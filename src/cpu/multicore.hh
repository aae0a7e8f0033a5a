/**
 * @file
 * Multi-core co-simulation: N cores over one shared hierarchy.
 *
 * Cores are advanced earliest-time-first so their memory requests
 * reach the shared backend in (nearly) global time order — a
 * conservative co-simulation that captures bandwidth contention,
 * shared-LLC effects, and device queueing across threads.
 */

#ifndef CXLSIM_CPU_MULTICORE_HH
#define CXLSIM_CPU_MULTICORE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "cpu/hierarchy.hh"
#include "cpu/kernel.hh"
#include "cpu/profile.hh"
#include "mem/backend.hh"

namespace cxlsim::cpu {

/** Result of running a workload on N cores. */
struct RunResult
{
    /** Wall-clock ticks (max over cores). */
    Tick wallTicks = 0;
    /** Per-core-averaged counter set. */
    CounterSet counters;
    /** Core 0's periodic samples, if sampling was enabled. */
    std::vector<CounterSample> samples;
    /** Backend traffic totals. */
    mem::BackendStats backendStats;
    // Named by perfbench/driver.cc; delete at the next benchmark change.
    std::vector<ras::RasReportEntry> ras;

    /** Wall time in seconds. */
    double
    seconds() const
    {
        return static_cast<double>(wallTicks) /
               static_cast<double>(kTicksPerSec);
    }

    /** Average achieved backend bandwidth, GB/s. */
    double
    backendGBps() const
    {
        const double s = seconds();
        return s > 0.0 ? backendStats.totalGB() / s : 0.0;
    }
};

/** Runs one workload's kernels on a shared MemoryHierarchy. */
class MultiCore
{
  public:
    /**
     * @param profile        CPU microarchitecture.
     * @param exec           Workload execution character.
     * @param backend        Memory backend (not owned).
     * @param kernels        One kernel per core (owned).
     * @param prefetchers_on HW prefetcher master switch.
     */
    MultiCore(const CpuProfile &profile, const CoreExecParams &exec,
              mem::MemoryBackend *backend,
              std::vector<std::unique_ptr<Kernel>> kernels,
              bool prefetchers_on = true);

    /**
     * Per-core pre-warming budget handed to Kernel::preloadRange:
     * 0.7 of the LLC split evenly over @p cores.
     */
    static std::uint64_t preloadBudget(const CpuProfile &profile,
                                       std::size_t cores);

    /** Enable 1ms-style sampling on core 0. */
    void enableSampling(Tick interval);

    /** Run every core to completion and report. */
    RunResult run();

    MemoryHierarchy &hierarchy() { return *hier_; }

  private:
    /** Serial engine: a TournamentTree steps the earliest core next,
     *  in (now, index) order. */
    void runSerial();

    /** End-of-run counter-accounting checks (sim::Invariants). */
    void checkInvariants() const;

    std::vector<std::unique_ptr<Kernel>> kernels_;
    std::unique_ptr<MemoryHierarchy> hier_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<CounterSample> samples_;
    mem::MemoryBackend *backend_;
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_MULTICORE_HH
