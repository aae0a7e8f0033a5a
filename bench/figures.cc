#include "bench/figures.hh"

#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace figs {

const std::vector<Figure> &
all()
{
    // Explicit table (no static self-registration: these objects
    // live in a static library, where unreferenced registrars are
    // dropped by the linker). Suite order = paper order.
    static const std::vector<Figure> kFigures = {
        {"fig01", "fig01_spectrum",
         "Sub-us CXL latency/bandwidth spectrum", buildFig01},
        {"table1", "table1_testbed",
         "Testbed latency/bandwidth calibration", buildTable1},
        {"fig03", "fig03_loaded_latency",
         "CXL (tail) latencies and bandwidth", buildFig03},
        {"fig04", "fig04_noise",
         "Latency under co-located bandwidth noise", buildFig04},
        {"fig05", "fig05_rw_ratios",
         "Bandwidth across read:write ratios", buildFig05},
        {"fig06", "fig06_prefetch_latency",
         "Prefetcher impact on average latency", buildFig06},
        {"fig07", "fig07_real_workloads",
         "Real-workload slowdowns on CXL", buildFig07},
        {"fig08", "fig08_slowdowns",
         "Slowdown CDFs across the suite", buildFig08},
        {"fig09", "fig09_latency_spectrum",
         "Slowdown vs latency spectrum", buildFig09},
        {"fig11", "fig11_spa_accuracy",
         "Spa model accuracy", buildFig11},
        {"fig12", "fig12_prefetch_coverage",
         "Prefetch coverage vs slowdown", buildFig12},
        {"fig14", "fig14_breakdown",
         "Slowdown breakdown by component", buildFig14},
        {"fig15", "fig15_breakdown_cdf",
         "Breakdown CDFs across the suite", buildFig15},
        {"fig16", "fig16_period_analysis",
         "Phase/period analysis", buildFig16},
        {"usecase", "usecase_tuning",
         "Tuning use case: pinning fraction", buildUsecaseTuning},
        {"ablation-prefetch", "ablation_prefetch",
         "Ablation: prefetcher model", buildAblationPrefetch},
        {"ablation-tails", "ablation_tails",
         "Ablation: tail injection", buildAblationTails},
        {"ablation-mlp", "ablation_mlp",
         "Ablation: MLP limits", buildAblationMlp},
        {"ablation-emulation", "ablation_emulation",
         "Ablation: NUMA-emulation fidelity", buildAblationEmulation},
        {"pooling", "pooling_interference",
         "Pooled-device interference", buildPoolingInterference},
        {"prediction", "prediction_accuracy",
         "Slowdown-prediction accuracy", buildPredictionAccuracy},
        {"tiering", "tiering_policies",
         "Tiering-policy comparison", buildTieringPolicies},
    };
    return kFigures;
}

void
buildCrashTest(cxlsim::sweep::Sweep &s)
{
    using cxlsim::sweep::Emit;
    // The mode is part of the victim's cache key: a cached "ok"
    // result must never satisfy a "segv" run (and vice versa).
    const char *env = std::getenv("MELODY_CRASHTEST_MODE");
    const std::string mode = env ? env : "ok";

    s.text("# crashtest: crash-recovery self test\n");
    for (int k = 0; k < 2; ++k)
        s.point("pre k=" + std::to_string(k), [k](Emit &e) {
            e.printf("pre %d = %d\n", k, k * k);
        });
    const std::size_t victim = s.point(
        "victim mode=" + mode, 1, [mode](Emit *slots) {
            if (mode == "segv") {
                // Deliberate: kills the whole sweep by SIGSEGV (exit
                // 139), also under sanitizers that would report a
                // null store and exit 1 instead.
                std::signal(SIGSEGV, SIG_DFL);
                std::raise(SIGSEGV);
            } else if (mode == "exception") {
                throw std::runtime_error("crashtest exception");
            }
            slots[0].text("victim ok\n");
        });
    s.place(victim);
    for (int k = 0; k < 2; ++k)
        s.point("post k=" + std::to_string(k), [k](Emit &e) {
            e.printf("post %d = %d\n", k, k * k * k);
        });
    // A gather over the victim, so a rerun also exercises gathers
    // fed from a mix of cached and fresh slots.
    s.gather(s.slotsOf(victim),
             [](const std::vector<std::string> &in, Emit &out) {
                 out.printf("victim emitted %zu byte(s)\n",
                            in[0].size());
             });
}

const Figure *
find(const std::string &nameOrBinary)
{
    for (const Figure &f : all())
        if (nameOrBinary == f.name || nameOrBinary == f.binary)
            return &f;
    // Test-only figure (see figures.hh): resolvable by name so the
    // CI crash-recovery job and test_sweep can select it, but
    // absent from all() so `sweep all` never runs it.
    static const Figure kCrashTest = {
        "crashtest", "crashtest_selftest",
        "Crash-recovery self test (test-only)",
        buildCrashTest};
    if (nameOrBinary == kCrashTest.name ||
        nameOrBinary == kCrashTest.binary)
        return &kCrashTest;
    return nullptr;
}

}  // namespace figs
