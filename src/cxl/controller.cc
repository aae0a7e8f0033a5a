#include "controller.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/invariants.hh"

namespace cxlsim::cxl {

CxlController::CxlController(const DeviceProfile &profile,
                             std::uint64_t seed)
    : profile_(profile), rng_(seed)
{
    profile_.validate();
    for (unsigned c = 0; c < profile_.dramChannels; ++c) {
        dram::ChannelConfig cc;
        cc.timing = profile_.dramTiming;
        cc.refreshHiding = profile_.refreshHiding;
        cc.seed = seed * 7919 + c;
        channels_.push_back(std::make_unique<dram::Channel>(cc));
    }
}

double
CxlController::hiccupProbability() const
{
    const auto &h = profile_.hiccups;
    double p = h.baseProb;
    if (util_ > h.onsetUtil && h.loadProb > 0.0) {
        const double x = (util_ - h.onsetUtil) / (1.0 - h.onsetUtil);
        p += h.loadProb * std::pow(x, h.loadExponent);
    }
    return p;
}

void
CxlController::updateUtilization(Tick now)
{
    // Windowed bandwidth estimate (robust to bursty arrivals,
    // unlike per-arrival inter-arrival rates).
    constexpr Tick kWindow = 2 * kTicksPerUs;
    windowBytes_ += 64;
    if (now < windowStart_) {
        // Slightly out-of-order arrival; fold into current window.
        return;
    }
    if (now - windowStart_ >= kWindow) {
        const double gbps =
            static_cast<double>(windowBytes_) /
            ticksToNs(now - windowStart_);
        constexpr double a = 0.3;
        ewmaGBps_ = a * gbps + (1.0 - a) * ewmaGBps_;
        util_ = std::clamp(ewmaGBps_ / profile_.schedPeakGBps(),
                           0.0, 1.0);
        windowStart_ = now;
        windowBytes_ = 0;
    }
    lastArrival_ = now;
}

Tick
CxlController::service(Addr addr, bool is_write, Tick arrival)
{
    ++stats_.requests;
    updateUtilization(arrival);

    // Work-conserving scheduler with idle backfill: callers (e.g.
    // the pooled-device arbiter) may present arrivals out of time
    // order. A request arriving before the current schedule tail
    // can be served in an idle gap the scheduler provably had,
    // instead of queueing behind slots scheduled for the future.
    const Tick perReq = nsToTicks(profile_.schedulerPerReqNs);
    Tick start;
    bool backfilled = false;
    if (arrival >= schedFreeAt_) {
        idleCreditTicks_ = std::min<Tick>(
            idleCreditTicks_ + (arrival - schedFreeAt_),
            kTicksPerUs);
        start = arrival;
    } else if (idleCreditTicks_ >= perReq) {
        idleCreditTicks_ -= perReq;
        start = arrival;
        backfilled = true;
    } else {
        start = schedFreeAt_;
    }

    // Vendor hiccup process: a heavy-tailed extra delay for this
    // request (flow-control backpressure accumulation, scheduler
    // reordering, transient management traffic). It inflates the
    // request's latency without stalling the whole pipeline —
    // devices reach their rated bandwidth despite their tails
    // (Table 1 vs Figure 3).
    Tick hiccupDelay = 0;
    if (rng_.chance(hiccupProbability())) {
        const auto &h = profile_.hiccups;
        const double pauseNs =
            rng_.boundedPareto(h.minNs, h.maxNs, h.alpha);
        hiccupDelay = nsToTicks(pauseNs);
        ++stats_.hiccups;
        stats_.hiccupNs += pauseNs;
    }

    // Thermal throttling when sustained bandwidth exceeds the
    // device's envelope: this one does block the scheduler.
    const auto &th = profile_.thermal;
    if (ewmaGBps_ > th.bwThresholdGBps &&
        rng_.chance(th.throttleProb)) {
        start += nsToTicks(th.pauseNs);
        ++stats_.thermalPauses;
    }

    // Scheduler occupancy caps the total request rate (a
    // backfilled request consumed a past idle slot instead).
    if (!backfilled)
        schedFreeAt_ = start + perReq;

    // Line-interleave across DDR channels (channel-local address
    // so one channel's stream covers all of its banks).
    const Addr line = addr / kCacheLineBytes;
    const std::size_t n = channels_.size();
    auto &chan = *channels_[line % n];
    const Addr local = (line / n) * kCacheLineBytes;
    const Tick dramDone = chan.access(local, is_write, start);

    // Fixed pipeline latency for flit parse, queue traversal and
    // response packing, plus any hiccup delay.
    const Tick done =
        dramDone + nsToTicks(profile_.controllerNs) + hiccupDelay;

    // Service contracts (DESIGN.md §10): a completion can never
    // precede its arrival, and the bandwidth-utilization EWMA is
    // clamped into [0, 1] by construction.
    if (sim::Invariants *inv = sim::currentInvariants()) {
        if (done < arrival)
            inv->record("cxl/completion-order", "CxlController",
                        "arrival=" + std::to_string(arrival) +
                            " done=" + std::to_string(done));
        if (util_ < 0.0 || util_ > 1.0)
            inv->record("cxl/utilization-bounds", "CxlController",
                        "util=" + std::to_string(util_));
    }

    return done;
}

double
CxlController::dramRowHitRate() const
{
    std::uint64_t hits = 0, total = 0;
    for (const auto &c : channels_) {
        hits += c->stats().rowHits;
        total += c->stats().reads + c->stats().writes;
    }
    return total ? static_cast<double>(hits) /
                       static_cast<double>(total)
                 : 0.0;
}

}  // namespace cxlsim::cxl
