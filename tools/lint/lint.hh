/**
 * @file
 * melody-lint: project-specific static analysis for the simulator.
 *
 * The simulator's correctness story rests on contracts that the
 * type system cannot express and that runtime tests only probe:
 *
 *  - determinism: every stochastic draw goes through the seeded
 *    cxlsim::Rng; iteration order of output-producing code must not
 *    depend on hash-table layout; no hidden mutable state reachable
 *    from parallelFor workers;
 *  - RAS-status hygiene: fault-capable layers must consume the
 *    ras::Status a request returns — dropping one silently converts
 *    a poisoned/timed-out access into a clean one; flow-aware
 *    analysis extends this from call sites to whole scopes (a
 *    status bound to a local that is never read before scope exit
 *    is just as dropped);
 *  - fork/signal hygiene: the supervised sweep runner forks
 *    workers and installs signal handlers; child regions
 *    must not exit()/throw/touch stdio/take locks, and handler code
 *    may only call the async-signal-safe allowlist;
 *  - architecture layering: the DESIGN.md §13 layer order is what
 *    makes the next topology refactor safe — lower layers must not
 *    include upward, and include cycles are always errors;
 *  - error discipline: invalid *user input* throws ConfigError so
 *    front ends can print usage and exit(2); SIM_FATAL is reserved
 *    for internal invariants, and stray stdout/stderr writes in the
 *    library would corrupt figure output streams;
 *  - header hygiene: headers are include-guarded (project
 *    convention, not #pragma once) and self-contained.
 *
 * melody-lint enforces these as compile-time-cheap rules over a
 * real tokenizer (comments and string literals never produce false
 * hits) plus a structural front end (structure.hh) that recovers
 * scopes, function bodies and the include graph. A violation can be
 * suppressed on its own line or the line above with:
 *
 *     // lint:allow(rule-id[, rule-id...][: reason])
 *
 * The reason string is surfaced in the --json report together with
 * every suppression's location, so suppression drift stays
 * auditable in review.
 */

#ifndef MELODY_LINT_LINT_HH
#define MELODY_LINT_LINT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace melodylint {

/** Diagnostic severity: errors gate the build, warnings inform. */
enum class Severity { kWarning, kError };

const char *severityName(Severity s);

/** One finding, anchored to a repo-relative path and 1-based line. */
struct Diagnostic
{
    std::string path;
    int line = 0;
    std::string rule;
    Severity severity = Severity::kError;
    std::string message;
};

/** One violation silenced by lint:allow, with its stated reason. */
struct SuppressionNote
{
    std::string path;
    int line = 0;
    std::string rule;
    std::string reason;  ///< empty when the allow carries none
};

/** Aggregate result of linting one or more files. */
struct Report
{
    std::vector<Diagnostic> diags;
    /** Every live suppression (a lint:allow that actually silenced
     *  a violation this run), kept visible in JSON. */
    std::vector<SuppressionNote> suppressions;
    int filesScanned = 0;
    /** Violations silenced by lint:allow (== suppressions.size()
     *  for tree scans; kept as a plain count for summaries). */
    int suppressed = 0;
    /** Files served from the content-hash cache (tree scans). */
    int cacheHits = 0;
    /** Wall-clock of the scan, for the CI perf canary. */
    double elapsedMs = 0.0;

    int errorCount() const;
    int warningCount() const;
};

/**
 * Lint one translation unit (per-file rules only; the project-wide
 * include-cycle pass needs the whole tree and runs in lintTree).
 *
 * @param path    Repo-relative path; rule scoping (which rules
 *                apply) is derived from it, so tests can lint
 *                fixture content under a virtual path.
 * @param content Full file contents.
 * @param suppressedOut Incremented per lint:allow'd violation.
 * @param notesOut      Filled with one note per suppression.
 * @param includesOut   Filled with the quoted-include list (used by
 *                      the driver to build the include graph
 *                      without re-lexing).
 */
std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &content,
           int *suppressedOut = nullptr,
           std::vector<SuppressionNote> *notesOut = nullptr,
           std::vector<struct IncludeDecl> *includesOut = nullptr);

/** Knobs for tree scans (CLI: --jobs / --no-cache / --cache). */
struct TreeOptions
{
    /** Reuse per-file results keyed by content hash. */
    bool useCache = false;
    /** Cache file path; empty picks ".melody-lint-cache". */
    std::string cachePath;
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
};

/**
 * Recursively lint every C/C++ source under each root (file roots
 * are linted directly). Directories named lint_fixtures, build*,
 * .git, CMakeFiles and results are skipped. Files are linted in
 * parallel and reported in sorted path order, so output is
 * deterministic for any jobs count; a project phase then builds
 * the include graph over all scanned files and appends the
 * arch-include-cycle diagnostics.
 */
Report lintTree(const std::vector<std::string> &roots,
                const TreeOptions &options);
Report lintTree(const std::vector<std::string> &roots);

/** Machine-readable report (stable keys, sorted diagnostics). */
void writeJsonReport(const Report &report, std::ostream &os);

}  // namespace melodylint

#endif  // MELODY_LINT_LINT_HH
