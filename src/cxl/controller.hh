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

#include <cstdint>
#include <memory>
#include <vector>

#include "cxl/device_profile.hh"
#include "dram/channel.hh"
#include "sim/fixed_divisor.hh"
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
 * service() is called in arrival order with the tick the request
 * clears the link; it returns the tick the data is ready to leave
 * the device (read) or is durably accepted (write).
 */
class CxlController
{
  public:
    CxlController(const DeviceProfile &profile, std::uint64_t seed);

    /** Service one 64B request; see class comment. */
    [[nodiscard]] Tick service(Addr addr, bool is_write, Tick arrival);

    const ControllerStats &stats() const { return stats_; }

    /** Smoothed utilization estimate in [0, 1]. */
    double utilization() const { return util_; }

    /** Aggregate DRAM-side row hit rate (for diagnostics). */
    double dramRowHitRate() const;

  private:
    double hiccupProbability() const;
    void updateUtilization(Tick now);

    DeviceProfile profile_;
    // profile_'s latencies in ticks, computed once: the profile
    // never changes after construction.
    Tick perReqTicks_;
    Tick controllerTicks_;
    Tick thermalPauseTicks_;
    std::vector<std::unique_ptr<dram::Channel>> channels_;
    FixedDivisor channelSplit_;
    Rng rng_;

    Tick schedFreeAt_ = 0;
    double util_ = 0.0;
    /** hiccupProbability() at util_; refreshed whenever util_ moves. */
    double hiccupProb_;
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
