/**
 * @file
 * Ablation: memory-level parallelism and CPU tolerance to CXL
 * latency.
 *
 *  (1) coldBurst (miss clustering): lone misses pay the full
 *      latency delta; clustered misses amortize it across the LFB
 *      — why real workloads tolerate CXL better than a naive
 *      MPKI x latency model predicts (Finding #2's flip side).
 *  (2) ROB size: the window's ability to run ahead of a miss sets
 *      CPU tolerance — compare SKX-class (224) with SPR-class
 *      (512) and hypothetical deeper windows on the same memory.
 */

#include "bench/common.hh"
#include "bench/figures.hh"
#include "cpu/multicore.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;

namespace {

double
slowdownWith(const workloads::WorkloadProfile &w,
             unsigned rob, unsigned lfb, const char *mem)
{
    melody::Platform lp("EMR2S", "Local");
    melody::Platform tp("EMR2S", mem);
    cpu::CpuProfile prof = lp.cpu();
    if (rob)
        prof.robSize = rob;
    if (lfb)
        prof.lfbEntries = lfb;

    auto lb = lp.makeBackend(5);
    cpu::MultiCore ml(prof, w.exec, lb.get(),
                      workloads::makeKernels(w));
    const auto base = ml.run();

    auto tb = tp.makeBackend(5);
    cpu::MultiCore mt(prof, w.exec, tb.get(),
                      workloads::makeKernels(w));
    return melody::slowdownPct(base, mt.run());
}

}  // namespace

namespace figs {

void
buildAblationMlp(sweep::Sweep &S)
{
    S.text(bench::headerText("Ablation",
                             "MLP and CPU tolerance to CXL latency"));

    S.text(bench::sectionText(
        "(1) dependence sweep (pointer-chase fraction) on CXL-A"));
    S.textf("%10s %12s\n", "depFrac", "S(%)");
    for (double dep : {1.0, 0.5, 0.25, 0.0}) {
        S.point("dep|ubench-rnd-4096m-i56|frac=" +
                    stats::Table::num(dep, 2) + "|seed=5",
                [dep](sweep::Emit &out) {
                    auto v = bench::scaled(
                        workloads::byName("ubench-rnd-4096m-i56"),
                        40000);
                    v.dependentFrac = dep;
                    v.coldBurst = 4;
                    out.printf("%10.2f %12.1f\n", dep,
                               slowdownWith(v, 0, 0, "CXL-A"));
                });
    }
    S.text("MLP lifts absolute performance on every backend, "
           "but the LOCAL baseline gains the most - so the "
           "relative slowdown is LARGER for MLP-friendly "
           "workloads (Finding #2: relative slowdowns exceed "
           "the latency ratio), while pure chases pay the "
           "latency ratio directly.\n");

    S.text(bench::sectionText(
        "(2) ROB-size sweep (chase workload, CXL-B)"));
    S.textf("%8s %12s\n", "ROB", "S(%)");
    for (unsigned rob : {128u, 224u, 512u, 1024u}) {
        S.point("rob|ubench-chase-4096m-i17|" +
                    std::to_string(rob) + "|seed=5",
                [rob](sweep::Emit &out) {
                    auto chase = bench::scaled(
                        workloads::byName("ubench-chase-4096m-i17"),
                        30000);
                    out.printf(
                        "%8u %12.1f\n", rob,
                        slowdownWith(chase, rob, 0, "CXL-B"));
                });
    }
    S.text("Dependent chains defeat the window: ROB growth "
           "barely helps pointer chasing (CPU tolerance is "
           "workload-structural, Finding #2).\n");

    S.text(bench::sectionText(
        "(3) LFB (MLP limit) sweep (random-burst "
        "workload, CXL-B)"));
    S.textf("%8s %12s\n", "LFB", "S(%)");
    for (unsigned lfb : {8u, 16u, 32u, 64u}) {
        S.point("lfb|dlrm-inference|" + std::to_string(lfb) +
                    "|seed=5",
                [lfb](sweep::Emit &out) {
                    auto rnd = bench::scaled(
                        workloads::byName("dlrm-inference"), 20000);
                    out.printf(
                        "%8u %12.1f\n", lfb,
                        slowdownWith(rnd, 0, lfb, "CXL-B"));
                });
    }
    S.text("More fill buffers raise the overlap ceiling — the "
           "hardware lever the paper's Implication #1a points "
           "at (CPUs must tolerate CXL latencies).\n");
}

}  // namespace figs
