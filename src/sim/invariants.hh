/**
 * @file
 * Runtime invariant layer for the simulator (DESIGN.md §10).
 *
 * Validation-heavy simulators treat self-checking as a first-class
 * feature: a counter-nesting violation (paper Figure 10 requires
 * P1 ⊇ P3 ⊇ P4 ⊇ P5) or a controller completing a request before
 * it arrived silently corrupts every figure built on top of it.
 * The hooks sprinkled through src/cpu and src/cxl validate those
 * contracts at runtime and report violations as *structured
 * diagnostics* (invariant name, component, offending values)
 * instead of raw aborts, so a sweep can finish, attribute the
 * violation to a point, and still render the surviving figures.
 *
 * Checking is scoped, not global: a hook only fires when an
 * Invariants collector is installed on the current thread via
 * InvariantScope (the sweep engine installs one around each point
 * when Options::checkInvariants is set — default-on in Debug
 * builds, opt-in via `--check-invariants` in Release). When no
 * collector is installed a hook costs one thread-local load and a
 * branch, so the Release hot path is unaffected.
 *
 * Invariant catalog (names are stable, tests match on them):
 *   counters/nesting        P1 >= P3 >= P4 >= P5 >= 0 (per core)
 *   counters/pf-subset      L1PF/L2PF L3 hit+miss <= issued
 *   counters/l3-subset      pf+demand L3 misses <= LLC miss count
 *   counters/conservation   backend reads/writes == hierarchy
 *                           demand+prefetch+RFO / writeback counts
 *   cxl/completion-order    service() completion >= arrival
 *   cxl/utilization-bounds  controller utilization in [0, 1]
 *   queue/pf-occupancy      prefetch in-flight queues <= budget
 *
 * record() is thread-safe, so one collector may be shared by
 * threads that report into it concurrently.
 */

#ifndef CXLSIM_SIM_INVARIANTS_HH
#define CXLSIM_SIM_INVARIANTS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cxlsim::sim {

/** One recorded invariant violation. */
struct InvariantViolation
{
    /** Catalog name, e.g. "counters/nesting". */
    std::string invariant;
    /** Component instance, e.g. "core 3" or "CxlController". */
    std::string where;
    /** Formatted offending values, e.g. "p1=10.0 p3=11.2". */
    std::string values;
};

/**
 * Collector for one checked region (typically one sweep point).
 * Recording never aborts; the owner decides how to surface the
 * violations (the sweep report, a CLI diagnostic, a test assert).
 */
class Invariants
{
  public:
    /** Record a violation (bounded; see dropped()). */
    void record(std::string invariant, std::string where,
                std::string values);

    bool failed() const { return !violations_.empty() || dropped_; }

    const std::vector<InvariantViolation> &
    violations() const
    {
        return violations_;
    }

    /** Violations beyond the recording cap (first 64 are kept). */
    std::uint64_t dropped() const { return dropped_; }

    /** Recording cap; further record() calls only bump dropped(). */
    static constexpr std::size_t kMaxRecorded = 64;

  private:
    std::vector<InvariantViolation> violations_;
    std::uint64_t dropped_ = 0;
};

/**
 * The collector installed on the current thread, or nullptr.
 * Hook idiom (format values only on failure):
 *
 *   if (sim::Invariants *inv = sim::currentInvariants())
 *       if (!(a >= b))
 *           inv->record("counters/nesting", "core 0", ...);
 */
Invariants *currentInvariants();

/** RAII installation of @p inv on the current thread (nestable —
 *  the previous collector is restored on destruction). */
class InvariantScope
{
  public:
    explicit InvariantScope(Invariants *inv);
    ~InvariantScope();

    InvariantScope(const InvariantScope &) = delete;
    InvariantScope &operator=(const InvariantScope &) = delete;

  private:
    Invariants *prev_;
};

/** Invariant checking default: on in Debug builds, off in Release
 *  (opt in via `--check-invariants` / Options::checkInvariants). */
constexpr bool
invariantsDefaultOn()
{
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

/**
 * Tolerant float comparison for the derived-counter invariants:
 * the P1..P5 accumulators sum the same stall segments in slightly
 * different subsets, so exact >= can fail by one ulp-scale rounding
 * step on legitimate runs.
 */
inline bool
approxGe(double a, double b)
{
    const double mag = (a < 0 ? -a : a) + (b < 0 ? -b : b);
    return a >= b - (1e-9 * mag + 1e-9);
}

}  // namespace cxlsim::sim

#endif  // CXLSIM_SIM_INVARIANTS_HH
