/**
 * @file
 * Registry of all figure/table benches, each expressed as a build
 * function that declares its output onto a sweep::Sweep. The same
 * build functions back the standalone bench binaries (via
 * figureMain + bench/fig_main.cc) and the `melody sweep` suite
 * runner, so both share cache entries and emit identical bytes.
 */

#ifndef MELODY_BENCH_FIGURES_HH
#define MELODY_BENCH_FIGURES_HH

#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace figs {

/** One registered figure/table bench. */
struct Figure
{
    /** Short CLI alias (e.g. "fig03"). */
    const char *name;
    /** Standalone binary name (e.g. "fig03_loaded_latency"). */
    const char *binary;
    /** One-line description for `melody sweep --list`. */
    const char *title;
    /** Declares the figure's items onto @p sweep. */
    void (*build)(cxlsim::sweep::Sweep &sweep);
};

/** All figures in suite (declaration/paper) order. */
const std::vector<Figure> &all();

/** Find by alias or binary name; nullptr if unknown. */
const Figure *find(const std::string &nameOrBinary);

/**
 * main() body of a standalone figure binary: builds the figure's
 * sweep with environment options (MELODY_SWEEP_JOBS etc.), scoped
 * to @p binary, and streams it to stdout.
 */
int figureMain(const char *binary);

// Build functions, defined in the per-figure bench sources.
void buildFig01(cxlsim::sweep::Sweep &);
void buildTable1(cxlsim::sweep::Sweep &);
void buildFig03(cxlsim::sweep::Sweep &);
void buildFig04(cxlsim::sweep::Sweep &);
void buildFig05(cxlsim::sweep::Sweep &);
void buildFig06(cxlsim::sweep::Sweep &);
void buildFig07(cxlsim::sweep::Sweep &);
void buildFig08(cxlsim::sweep::Sweep &);
void buildFig09(cxlsim::sweep::Sweep &);
void buildFig11(cxlsim::sweep::Sweep &);
void buildFig12(cxlsim::sweep::Sweep &);
void buildFig14(cxlsim::sweep::Sweep &);
void buildFig15(cxlsim::sweep::Sweep &);
void buildFig16(cxlsim::sweep::Sweep &);
void buildUsecaseTuning(cxlsim::sweep::Sweep &);
void buildAblationPrefetch(cxlsim::sweep::Sweep &);
void buildAblationTails(cxlsim::sweep::Sweep &);
void buildAblationMlp(cxlsim::sweep::Sweep &);
void buildAblationEmulation(cxlsim::sweep::Sweep &);
void buildPoolingInterference(cxlsim::sweep::Sweep &);
void buildPredictionAccuracy(cxlsim::sweep::Sweep &);
void buildTieringPolicies(cxlsim::sweep::Sweep &);

/**
 * Test-only figure exercising the supervised sweep runner: its
 * "victim" point misbehaves per MELODY_CRASHTEST_MODE
 * (segv | abort | hang | exception | exit | ok). Registered so
 * find() resolves it (CI crash-recovery job, test_supervisor) but
 * hidden from all() so it never runs as part of `sweep all`.
 */
void buildCrashTest(cxlsim::sweep::Sweep &);

}  // namespace figs

#endif  // MELODY_BENCH_FIGURES_HH
