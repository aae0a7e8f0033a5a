/**
 * @file
 * Capacity-planner example: "should this workload go on CXL?"
 *
 * Implements the paper's deployment guidance (Recommendation #2):
 * for each candidate workload, measure local bandwidth demand and
 * slowdown on each device, then bin it as a drop-in candidate,
 * latency-sensitive, or bandwidth-bound. This is the decision a
 * memory-pooling operator makes before placing a tenant on CXL.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/slowdown.hh"
#include "stats/table.hh"
#include "workloads/suite.hh"

using namespace cxlsim;

namespace {

const char *
verdict(double s_best, double bw_gbps)
{
    if (s_best < 10.0)
        return "DROP-IN: CXL-ready";
    if (bw_gbps > 20.0)
        return "BANDWIDTH-BOUND: needs CXL-D/x2";
    if (s_best < 50.0)
        return "TOLERABLE: pool with headroom";
    return "KEEP LOCAL or tier hot set";
}

}  // namespace

int
main(int argc, char **argv)
{
    std::printf("== CXL capacity planner ==\n\n");

    std::vector<std::string> names;
    if (argc > 1) {
        for (int i = 1; i < argc; ++i)
            names.push_back(argv[i]);
    } else {
        names = {"redis/ycsb-b",  "605.mcf_s",    "gpt2-small",
                 "pts-openssl",   "bfs-web",      "519.lbm_r",
                 "dlrm-inference", "spark-scan",  "520.omnetpp_r"};
    }

    melody::SlowdownStudy study(2026);
    stats::Table t({"Workload", "LocalBW(GB/s)", "S(CXL-D)",
                    "S(CXL-A)", "S(CXL-B)", "Verdict"});
    for (const auto &n : names) {
        if (!workloads::hasWorkload(n)) {
            std::printf("unknown workload: %s (skipping)\n",
                        n.c_str());
            continue;
        }
        auto w = workloads::byName(n);
        w.blocksPerCore =
            std::min<std::uint64_t>(w.blocksPerCore, 40000);
        const auto &base = study.baseline(w, "EMR2S");
        const double sD = study.slowdown(w, "EMR2S", "CXL-D");
        const double sA = study.slowdown(w, "EMR2S", "CXL-A");
        const double sB = study.slowdown(w, "EMR2S", "CXL-B");
        t.addRow({n, stats::Table::num(base.backendGBps(), 1),
                  stats::Table::num(sD, 1) + "%",
                  stats::Table::num(sA, 1) + "%",
                  stats::Table::num(sB, 1) + "%",
                  verdict(std::min({sD, sA, sB}),
                          base.backendGBps())});
    }
    t.print();
    std::printf("\nUsage: capacity_planner [workload ...] — any of "
                "the 265 suite names.\n");
    return 0;
}
