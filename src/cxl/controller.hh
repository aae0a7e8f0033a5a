/**
 * @file
 * CXL memory controller model (paper Figure 2b).
 *
 * The controller parses arriving flits, queues requests, schedules
 * them onto DDR channels, and is subject to the vendor-specific
 * effects the paper reasons about in §3.2: scheduler hiccups /
 * flow-control backpressure accumulation (modelled as a
 * bounded-Pareto pause process whose rate couples to utilization),
 * thermal throttling, and imperfect refresh hiding. These are what
 * produce the microsecond-level tail latencies the paper is first
 * to disclose.
 */

#ifndef CXLSIM_CXL_CONTROLLER_HH
#define CXLSIM_CXL_CONTROLLER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cxl/device_profile.hh"
#include "dram/channel.hh"
#include "ras/fault_plan.hh"
#include "ras/ras.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace cxlsim::cxl {

/** Controller-side counters. */
struct ControllerStats
{
    std::uint64_t requests = 0;
    std::uint64_t hiccups = 0;
    std::uint64_t thermalPauses = 0;
    double hiccupNs = 0.0;
};

/**
 * Request queue + scheduler + DDR channels of one CXL device.
 *
 * serviceEx() is called in arrival order with the tick the request
 * clears the link; it returns the tick the data is ready to leave
 * the device (read) or is durably accepted (write), plus the RAS
 * completion status.
 *
 * With RAS enabled (enableRas), the controller additionally runs
 * the media-error process (correctable ECC, poison-returning
 * uncorrectable errors, patrol scrub) and a device-health state
 * machine composing with the hiccup/thermal processes: a Degraded
 * device serves with extra scrub latency, a TimedOut/Offline one
 * refuses service (the host's completion timer expires instead).
 */
class CxlController
{
  public:
    CxlController(const DeviceProfile &profile, std::uint64_t seed);

    /** Service one 64B request; see class comment. */
    ras::AccessResult serviceEx(Addr addr, bool is_write, Tick arrival);

    /**
     * Arm fault injection: media-error process, health monitor and
     * the scheduled events of @p plan targeting @p device, all on
     * RNG streams derived from @p seed (independent of the hiccup
     * stream, so a zero-rate plan is bit-identical to no plan).
     */
    void enableRas(const ras::FaultPlan &plan, unsigned device,
                   std::uint64_t seed);

    /** Link layer escalation: replay budget exhausted. */
    void noteLinkDown();

    /** Current device health (Healthy when RAS is disabled). */
    ras::DeviceHealth health() const;

    /** Media/health fault counters (empty when RAS is disabled). */
    void addRasTo(ras::RasStats *out) const;

    const ControllerStats &stats() const { return stats_; }

    /** Smoothed utilization estimate in [0, 1]. */
    double utilization() const { return util_; }

    /** Aggregate DRAM-side row hit rate (for diagnostics). */
    double dramRowHitRate() const;

  private:
    double hiccupProbability() const;
    void updateUtilization(Tick now);
    void applyScheduledEvents(Tick now);
    Tick patrolScrubCatchUp(Tick now);

    /** All fault-injection state; absent (null) when RAS is off so
     *  the clean path stays bit-identical to pre-RAS builds. */
    struct RasState
    {
        ras::MediaFaultParams mediaParams;
        std::unique_ptr<ras::MediaFaultProcess> media;
        ras::HealthMonitor monitor;
        /** Scheduled events for this device, sorted by tick. */
        std::vector<ras::ScheduledFault> events;
        std::size_t nextEvent = 0;
        /** Next patrol-scrub pass (0 = patrol disabled). */
        Tick nextScrub = 0;
        ras::RasStats stats;

        RasState(const ras::FaultPlan &plan, unsigned device,
                 std::uint64_t seed);
    };

    DeviceProfile profile_;
    std::vector<std::unique_ptr<dram::Channel>> channels_;
    Rng rng_;
    std::unique_ptr<RasState> ras_;

    Tick schedFreeAt_ = 0;
    Tick lastArrival_ = 0;
    double util_ = 0.0;
    /** EWMA of achieved GB/s for the thermal model. */
    double ewmaGBps_ = 0.0;
    /** Measurement window for the bandwidth estimate. */
    Tick windowStart_ = 0;
    std::uint64_t windowBytes_ = 0;

    Tick idleCreditTicks_ = 0;

    ControllerStats stats_;
};

}  // namespace cxlsim::cxl

#endif  // CXLSIM_CXL_CONTROLLER_HH
