/**
 * @file
 * RAS (reliability / availability / serviceability) primitives for
 * the CXL memory path.
 *
 * Real CXL-at-scale deployments see hard error events the clean-path
 * model cannot express: CRC-failed flits replayed by the link layer
 * (CXL LLR), correctable media errors absorbed by on-the-fly ECC,
 * uncorrectable errors returned to the host as *poison*, and devices
 * that stop responding altogether. This module provides the shared
 * vocabulary — completion statuses, per-device fault counters, the
 * seeded fault processes, and the device-health state machine — that
 * the link, device and host layers compose into an end-to-end fault
 * and recovery model.
 *
 * Determinism contract: every fault process draws from a dedicated
 * Rng stream derived from the owner's seed, so (a) a zero-rate
 * configuration is bit-identical to a build with RAS disabled, and
 * (b) any fixed FaultPlan yields identical results regardless of
 * how many parallelFor workers schedule the runs.
 */

#ifndef CXLSIM_RAS_RAS_HH
#define CXLSIM_RAS_RAS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace cxlsim::stats {
class JsonWriter;
}

namespace cxlsim::ras {

/** Completion status of one memory request, as seen by the host. */
enum class Status : std::uint8_t {
    kOk = 0,     ///< data returned, no error
    kRetryable,  ///< transient transport failure; re-issue may succeed
    kPoisoned,   ///< data returned carrying poison (uncorrectable)
    kTimeout,    ///< no completion within the host's timer
};

constexpr std::string_view
statusName(Status s)
{
    switch (s) {
      case Status::kOk:
        return "ok";
      case Status::kRetryable:
        return "retryable";
      case Status::kPoisoned:
        return "poisoned";
      case Status::kTimeout:
        return "timeout";
    }
    return "?";
}

/** Completion tick + status of one request at any layer of the
 *  memory path (controller, device, backend). [[nodiscard]]:
 *  dropping it silently swallows poison/timeout (melody-lint's
 *  ras-ignored-status rule rejects the (void) escape hatch too). */
struct [[nodiscard]] AccessResult
{
    Tick done;
    Status status = Status::kOk;
};

/** Health state of one CXL device, coarsest to the host's view. */
enum class DeviceHealth : std::uint8_t {
    kHealthy = 0,
    kDegraded,  ///< elevated error rate; served with extra scrubbing
    kTimedOut,  ///< unresponsive (error EWMA tripped); requests time out
    kOffline,   ///< administratively removed (scheduled fault)
};

constexpr std::string_view
healthName(DeviceHealth h)
{
    switch (h) {
      case DeviceHealth::kHealthy:
        return "healthy";
      case DeviceHealth::kDegraded:
        return "degraded";
      case DeviceHealth::kTimedOut:
        return "timedout";
      case DeviceHealth::kOffline:
        return "offline";
    }
    return "?";
}

/** True when the device cannot serve requests at all. */
constexpr bool
isDown(DeviceHealth h)
{
    return h == DeviceHealth::kTimedOut || h == DeviceHealth::kOffline;
}

/**
 * Per-device RAS event counters. One instance per fault-capable
 * node (device, backend, failover router); aggregated for reports.
 */
struct RasStats
{
    // Link layer.
    std::uint64_t crcErrors = 0;      ///< flits that failed CRC
    std::uint64_t linkReplays = 0;    ///< LLR replay rounds
    std::uint64_t linkDownEvents = 0; ///< replay budget exhausted

    // Media layer.
    std::uint64_t corrected = 0;       ///< correctable ECC events
    std::uint64_t uncorrected = 0;     ///< uncorrectable media errors
    std::uint64_t poisonedReturns = 0; ///< responses carrying poison
    std::uint64_t patrolScrubs = 0;    ///< background scrub passes
    std::uint64_t refusedRequests = 0; ///< arrivals while down

    // Host-side recovery.
    std::uint64_t hostRetries = 0;  ///< re-issues after backoff
    std::uint64_t hostTimeouts = 0; ///< retry budget exhausted
    std::uint64_t failovers = 0;    ///< requests re-routed to fallback
    /** Extra latency suffered on failed-over requests, ns. */
    double failoverExtraNs = 0.0;

    // Health transitions.
    std::uint64_t degradedEntries = 0;
    std::uint64_t offlineEntries = 0;

    /** Total injected fault events (for quick non-zero checks). */
    std::uint64_t
    injected() const
    {
        return crcErrors + corrected + uncorrected;
    }

    bool any() const;
    RasStats &operator+=(const RasStats &o);

    /** Emit this counter set as a JSON object (keys are stable). */
    void writeJson(stats::JsonWriter *w) const;
};

/** One named node's stats in a backend tree report. */
struct RasReportEntry
{
    std::string name;
    RasStats stats;
};

/** Link-layer (flit CRC / LLR replay) fault parameters. */
struct LinkFaultParams
{
    /** Per-flit CRC failure probability. */
    double crcErrorProb = 0.0;
    /** Replay round-trip added per retry (LLR ack timeout + resend), ns. */
    double replayNs = 80.0;
    /** Replay attempts before the link is declared down. */
    unsigned maxReplays = 8;

    bool enabled() const { return crcErrorProb > 0.0; }
    /** @throw ConfigError on out-of-range values. */
    void validate() const;
};

/** Media (DRAM-behind-controller) fault parameters. */
struct MediaFaultParams
{
    /** Per-access correctable ECC error probability. */
    double correctableProb = 0.0;
    /** Per-access uncorrectable (poison-returning) probability. */
    double uncorrectableProb = 0.0;
    /** Extra on-the-fly correction latency per correctable hit, ns. */
    double scrubExtraNs = 40.0;
    /** Patrol-scrub cadence, us (0 disables background scrub). */
    double patrolIntervalUs = 0.0;
    /** Scheduler occupancy of one patrol-scrub pass, ns. */
    double patrolNs = 120.0;

    bool
    enabled() const
    {
        return correctableProb > 0.0 || uncorrectableProb > 0.0 ||
               patrolIntervalUs > 0.0;
    }
    void validate() const;
};

/** Error-rate EWMA thresholds for the health state machine. */
struct HealthParams
{
    /** EWMA smoothing factor per observed request. */
    double ewmaAlpha = 0.02;
    /** Error EWMA above which the device enters Degraded. */
    double degradeThreshold = 0.05;
    /** Error EWMA above which the device stops responding. */
    double timeoutThreshold = 0.25;
    /** Hysteresis: recover one level below threshold * this. */
    double recoveryFraction = 0.5;

    void validate() const;
};

/** Host-side completion-timeout and re-issue policy. */
struct HostRetryParams
{
    /** Completion timer before a request is declared lost, ns. */
    double timeoutNs = 2000.0;
    /** Re-issue budget per request. */
    unsigned maxRetries = 4;
    /** First backoff before re-issue, ns; doubles per attempt. */
    double backoffNs = 250.0;
    /** Backoff growth factor. */
    double backoffMult = 2.0;

    void validate() const;
};

/**
 * Link-layer fault process: one seeded CRC/replay stream per link
 * direction pair. flitPenalty() is drawn once per flit transfer and
 * returns the extra serialization the replays cost; when the replay
 * budget is exhausted the flit is lost and the caller must escalate
 * (link-down event).
 */
class LinkFaultProcess
{
  public:
    LinkFaultProcess(const LinkFaultParams &p, std::uint64_t seed);

    /**
     * Sample the fault process for one flit.
     *
     * @param[out] lost Set true when replays were exhausted and the
     *                  flit never got through.
     * @return Extra link occupancy ticks spent on replays.
     */
    Tick flitPenalty(bool *lost);

    const LinkFaultParams &params() const { return params_; }

    /** Accumulate this process's counters into @p out. */
    void addTo(RasStats *out) const;

  private:
    LinkFaultParams params_;
    Rng rng_;
    std::uint64_t crcErrors_ = 0;
    std::uint64_t replays_ = 0;
    std::uint64_t exhausted_ = 0;
};

/** Outcome of the media fault process for one access. */
struct MediaOutcome
{
    /** Extra service latency (correction / scrub), ticks. */
    Tick extraTicks = 0;
    /** Response carries poison (uncorrectable error). */
    bool poisoned = false;
    /** A correctable error was absorbed. */
    bool corrected = false;
};

/** Per-access media error sampler with its own stream. */
class MediaFaultProcess
{
  public:
    MediaFaultProcess(const MediaFaultParams &p, std::uint64_t seed);

    MediaOutcome sample();

    const MediaFaultParams &params() const { return params_; }

  private:
    MediaFaultParams params_;
    Rng rng_;
};

/**
 * Device-health state machine, driven by an error-rate EWMA:
 *
 *   Healthy -> Degraded -> TimedOut     (error EWMA crossings)
 *        \________________ Offline      (scheduled/administrative)
 *
 * Scheduled (forced) states pin the machine until an explicit
 * recover event; EWMA-driven states recover with hysteresis once
 * the error rate decays below recoveryFraction * threshold.
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(const HealthParams &p);

    DeviceHealth state() const { return state_; }
    double errorRate() const { return errEwma_; }

    /** Observe one request outcome (error = UE or link-down). */
    void recordOutcome(bool error);

    /** Link-layer replay exhaustion: a strong error signal. */
    void noteLinkDown();

    /** Scheduled fault: pin the state until recover(). */
    void force(DeviceHealth h);

    /** Scheduled recovery: unpin and reset the error EWMA. */
    void recover();

    std::uint64_t degradedEntries() const { return degradedEntries_; }
    std::uint64_t offlineEntries() const { return offlineEntries_; }

  private:
    void transition(DeviceHealth next);

    HealthParams params_;
    DeviceHealth state_ = DeviceHealth::kHealthy;
    bool forced_ = false;
    double errEwma_ = 0.0;
    std::uint64_t degradedEntries_ = 0;
    std::uint64_t offlineEntries_ = 0;
};

}  // namespace cxlsim::ras

#endif  // CXLSIM_RAS_RAS_HH
