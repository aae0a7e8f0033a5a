/**
 * @file
 * Event-driven out-of-order core backend model.
 *
 * The core consumes a Kernel's block stream and accounts time the
 * way the Spa counter set sees it:
 *
 *  - Non-memory uops retire at the issue width; frontend stalls
 *    are a workload property (their delta across memory backends
 *    is ~0, matching §5.3's observation).
 *  - Demand loads that miss enter an outstanding-load window
 *    bounded by the LFB entry count (MLP limit) and the ROB size
 *    (how far the window can run past the oldest incomplete load).
 *    `dependent` loads serialize (pointer chasing). The window is a
 *    small vector in issue order, at most lfbEntries (<= 16) long;
 *    completion order differs from issue order, so a purge drops
 *    every completed entry in one in-order pass, and is skipped
 *    while the time is before the window's earliest completion.
 *  - When the core stalls on loads, cycles are charged to P1 and
 *    to P3/P4/P5 per Intel nesting semantics using the deepest
 *    outstanding load's StallTag; waiting on a pending prefetched
 *    line charges the level the prefetch homes at — which is how
 *    CXL's prefetcher-timeliness loss shows up as "cache
 *    slowdown" (Finding #4).
 *  - Stores drain through a finite store buffer via RFOs; a full
 *    buffer with no loads outstanding charges P2.
 */

#ifndef CXLSIM_CPU_CORE_HH
#define CXLSIM_CPU_CORE_HH

#include <compare>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "cpu/counters.hh"
#include "cpu/hierarchy.hh"
#include "cpu/kernel.hh"
#include "cpu/profile.hh"
#include "sim/types.hh"

namespace cxlsim::cpu {

/** Workload-level execution character (backend-independent). */
struct CoreExecParams
{
    /** Fraction of total non-stalled time lost to frontend stalls. */
    double frontendStallFrac = 0.05;
    /** Fraction of exec cycles with exactly 1 / 2 ports busy. */
    double onePortFrac = 0.10;
    double twoPortFrac = 0.15;
    /** Fraction of exec cycles serialized (scoreboard). */
    double serializeFrac = 0.01;

    auto operator<=>(const CoreExecParams &) const = default;
};

/** A periodic counter snapshot (for §5.6 period analysis). */
struct CounterSample
{
    Tick when;
    CounterSet counters;
};

/** One simulated core executing one Kernel. */
class Core
{
  public:
    /**
     * @param profile   Microarchitecture parameters.
     * @param exec      Workload execution character.
     * @param hierarchy Shared memory hierarchy (not owned).
     * @param core_id   Index within the hierarchy.
     * @param kernel    Instruction stream (not owned).
     */
    Core(const CpuProfile &profile, const CoreExecParams &exec,
         MemoryHierarchy *hierarchy, unsigned core_id,
         Kernel *kernel);

    /**
     * Process one block.
     * @return false when the kernel is exhausted (the core also
     *         drains outstanding work on the last call).
     */
    bool step();

    /** True once the kernel is exhausted and the core drained. */
    bool done() const { return done_; }

    /** Current core-local time. */
    Tick now() const { return static_cast<Tick>(tickNow_); }

    /** Counters including prefetch statistics. */
    CounterSet counters() const;

    /**
     * Enable periodic counter sampling every @p interval ticks
     * (the paper samples every 1ms); samples append to @p out.
     */
    void enableSampling(Tick interval, std::vector<CounterSample> *out);

  private:
    struct OutstandingLoad
    {
        double completion;  // tick
        std::uint64_t uopIdx;
        StallTag tag;
    };

    void execute(const Block &b);
    void doLoad(const MemOp &op);
    void doStore(const MemOp &op);

    /** Advance to @p target ticks, charging a load stall. */
    void stallOnLoads(double target);
    /** Advance to @p target ticks, charging a store stall. */
    void stallOnStore(double target);

    void purgeLoads();
    void purgeStores();
    double cyclesOf(double ticks) const { return ticks / tpc_; }
    void maybeSample();

    CpuProfile profile_;
    CoreExecParams exec_;
    MemoryHierarchy *hier_;
    unsigned coreId_;
    Kernel *kernel_;

    double tpc_;        ///< ticks per cycle
    double tickNow_ = 0.0;
    std::uint64_t uopIdx_ = 0;
    bool done_ = false;

    /** Outstanding loads in issue order: at most lfbEntries, so a
     *  purge compacts a few entries in place. */
    std::vector<OutstandingLoad> loads_;
    /** The earliest completion in loads_, or kNever when empty. */
    static constexpr double kNever =
        std::numeric_limits<double>::infinity();
    double nextDone_ = kNever;
    std::deque<double> storeBuf_;

    CounterSet cnt_;

    Tick sampleInterval_ = 0;
    Tick nextSample_ = 0;
    std::vector<CounterSample> *samples_ = nullptr;
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_CORE_HH
