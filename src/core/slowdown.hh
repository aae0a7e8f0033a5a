/**
 * @file
 * Workload slowdown measurement (§3.1 "Performance metric"):
 * S = (P_DRAM / P_CXL - 1) * 100%, with socket-local DRAM as the
 * baseline. Performance is wall-clock execution time of the same
 * instruction stream, so S reflects the combined latency and
 * bandwidth impact of the memory setup.
 */

#ifndef MELODY_CORE_SLOWDOWN_HH
#define MELODY_CORE_SLOWDOWN_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hh"
#include "cpu/multicore.hh"
#include "workloads/profile.hh"

namespace melody {

/** Run @p w on @p platform once. */
cxlsim::cpu::RunResult
runWorkload(const cxlsim::workloads::WorkloadProfile &w,
            const Platform &platform, std::uint64_t seed,
            bool prefetchers_on = true,
            cxlsim::Tick sampling_interval = 0);

/** Slowdown percentage of @p test relative to @p baseline. */
double slowdownPct(const cxlsim::cpu::RunResult &baseline,
                   const cxlsim::cpu::RunResult &test);

/**
 * Runs workloads across setups, caching the per-server Local
 * baseline so each distinct workload profile's baseline runs once.
 */
class SlowdownStudy
{
  public:
    explicit SlowdownStudy(std::uint64_t seed = 1234) : seed_(seed) {}

    /** Baseline result for (workload, server), memoized by the
     *  whole profile: phases and exec count, not just the name. */
    const cxlsim::cpu::RunResult &
    baseline(const cxlsim::workloads::WorkloadProfile &w,
             const std::string &server);

    /** Slowdown of @p w on (server, memory) vs the local baseline. */
    double slowdown(const cxlsim::workloads::WorkloadProfile &w,
                    const std::string &server,
                    const std::string &memory);

    /** As slowdown(), but also expose the test run. */
    double slowdownWithRun(const cxlsim::workloads::WorkloadProfile &w,
                           const std::string &server,
                           const std::string &memory,
                           cxlsim::cpu::RunResult *test_out);

    /**
     * Slowdowns of many workloads on one setup (each run is
     * independent and deterministic), returned in input order.
     * Called from `melody batch`, the runs spread over every core.
     * Inside a sweep point (fig08, fig09) they run serially on the
     * point's thread, since parallelFor keeps nested calls serial,
     * unless that point is the only one left to compute.
     */
    std::vector<double> slowdownBatch(
        const std::vector<cxlsim::workloads::WorkloadProfile> &ws,
        const std::string &server, const std::string &memory);

  private:
    std::uint64_t seed_;
    std::mutex mu_;
    std::map<std::pair<std::string, cxlsim::workloads::WorkloadProfile>,
             cxlsim::cpu::RunResult>
        baselines_;
};

}  // namespace melody

#endif  // MELODY_CORE_SLOWDOWN_HH
