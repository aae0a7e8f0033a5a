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
 * baseline so each workload's baseline runs once.
 */
class SlowdownStudy
{
  public:
    explicit SlowdownStudy(std::uint64_t seed = 1234) : seed_(seed) {}

    /** Baseline result for (workload, server), memoized. */
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
     * Slowdowns of many workloads on one setup, computed in
     * parallel on parallelFor's default pool (each run is
     * independent and deterministic). Results are returned in
     * input order.
     */
    std::vector<double> slowdownBatch(
        const std::vector<cxlsim::workloads::WorkloadProfile> &ws,
        const std::string &server, const std::string &memory);

  private:
    std::uint64_t seed_;
    std::mutex mu_;
    std::map<std::string, cxlsim::cpu::RunResult> baselines_;
};

}  // namespace melody

#endif  // MELODY_CORE_SLOWDOWN_HH
