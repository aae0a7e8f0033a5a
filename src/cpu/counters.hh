/**
 * @file
 * The performance-counter set Spa relies on (paper Table 2), with
 * Intel nesting semantics (paper Figure 10):
 *
 *   P1 BOUND_ON_LOADS   cycles stalled with >=1 outstanding demand load
 *   P2 BOUND_ON_STORES  cycles stalled with the store buffer full
 *   P3 STALLS_L1D_MISS  subset of P1: an L1-miss demand load outstanding
 *   P4 STALLS_L2_MISS   subset of P3: an L2-miss demand load outstanding
 *   P5 STALLS_L3_MISS   subset of P4: an L3-miss demand load outstanding
 *   P6 RETIRED.STALLS   cycles retiring no uops (all stalls)
 *   P7 1_PORTS_UTIL     cycles executing exactly 1 uop
 *   P8 2_PORTS_UTIL     cycles executing exactly 2 uops
 *   P9 STALLS.SCOREBD   cycles stalled on serializing operations
 *
 * plus the derived prefetcher counters used in §5.4 (L1PF/L2PF
 * requests that hit or miss the LLC).
 *
 * The stall components of Figure 10 are *derived*, exactly as in
 * the paper: sStore = P2, sL1 = P1-P3, sL2 = P3-P4, sL3 = P4-P5,
 * sDRAM = P5, sCore = P7+P8+P9.
 */

#ifndef CXLSIM_CPU_COUNTERS_HH
#define CXLSIM_CPU_COUNTERS_HH

#include <cstdint>

namespace cxlsim::cpu {

/** Attribution level of a memory-subsystem stall. */
enum class StallTag : std::uint8_t { kL1 = 0, kL2, kL3, kDram };

/** One capture of the Spa counter set (units: cycles / events). */
struct CounterSet
{
    double cycles = 0.0;
    double instructions = 0.0;

    double p1 = 0.0;  ///< BOUND_ON_LOADS
    double p2 = 0.0;  ///< BOUND_ON_STORES
    double p3 = 0.0;  ///< STALLS_L1D_MISS
    double p4 = 0.0;  ///< STALLS_L2_MISS
    double p5 = 0.0;  ///< STALLS_L3_MISS
    double p6 = 0.0;  ///< RETIRED.STALLS
    double p7 = 0.0;  ///< 1_PORTS_UTIL
    double p8 = 0.0;  ///< 2_PORTS_UTIL
    double p9 = 0.0;  ///< STALLS.SCOREBD

    std::uint64_t l1pfL3Miss = 0;
    std::uint64_t l1pfL3Hit = 0;
    std::uint64_t l2pfL3Miss = 0;
    std::uint64_t l2pfL3Hit = 0;
    std::uint64_t demandL3Miss = 0;
    std::uint64_t l2pfIssued = 0;
    std::uint64_t l1pfIssued = 0;

    // Named by perfbench/driver.cc; delete at the next benchmark change.
    std::uint64_t machineChecks = 0;
    std::uint64_t demandTimeouts = 0;
    std::uint64_t prefetchDrops = 0;

    /** Derived stall components (Figure 10). */
    double sStore() const { return p2; }
    double sL1() const { return p1 - p3; }
    double sL2() const { return p3 - p4; }
    double sL3() const { return p4 - p5; }
    double sDram() const { return p5; }
    double sCore() const { return p7 + p8 + p9; }
    double sMemory() const { return p1 + p2; }
    double sBackend() const { return sMemory() + sCore(); }

    CounterSet &operator+=(const CounterSet &o);
    CounterSet operator-(const CounterSet &o) const;

    /**
     * Multiply the cycle/event accumulators (cycles, instructions,
     * P1-P9) by @p f — e.g. 1/N to normalize an N-core sum to a
     * per-core view. The integral prefetch line counts are left
     * untouched: they are population totals, not per-core rates.
     */
    CounterSet &scale(double f);
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_COUNTERS_HH
