#include "pool.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cxlsim::cxl {

PooledCxlDevice::PooledCxlDevice(const DeviceProfile &profile,
                                 unsigned heads,
                                 PoolArbitration policy,
                                 std::uint64_t seed,
                                 std::vector<double> weights)
    : profile_(profile), policy_(policy),
      weights_(std::move(weights)), stats_(heads),
      inflight_(heads), lastActive_(heads, 0),
      ctrl_(profile, seed ^ 0xbeefcafe12345678ULL)
{
    SIM_ASSERT(heads >= 1, "pool needs at least one head");
    if (weights_.empty())
        weights_.assign(heads, 1.0);
    SIM_ASSERT(weights_.size() == heads, "one weight per head");
    for (unsigned h = 0; h < heads; ++h)
        links_.push_back(
            std::make_unique<link::DuplexLink>(profile_.linkCfg));
}

void
PooledCxlDevice::retire(unsigned head, Tick completion)
{
    inflight_[head].push_back(completion);
}

Tick
PooledCxlDevice::earliestAdmission(unsigned head, Tick now)
{
    SIM_ASSERT(head < links_.size(), "pool head out of range");
    if (policy_ == PoolArbitration::kNone)
        return now;
    constexpr Tick kHorizon = 2 * kTicksPerUs;
    bool contended = false;
    for (unsigned h = 0; h < lastActive_.size(); ++h) {
        if (h == head)
            continue;
        const Tick d = now >= lastActive_[h]
                           ? now - lastActive_[h]
                           : lastActive_[h] - now;
        if (d < kHorizon)
            contended = true;
    }
    if (!contended)
        return now;

    double share = 1.0 / static_cast<double>(inflight_.size());
    if (policy_ == PoolArbitration::kWeighted) {
        double total = 0.0;
        for (double w : weights_)
            total += w;
        share = weights_[head] / total;
    }
    const auto credits = std::max<std::size_t>(
        2, static_cast<std::size_t>(share * profile_.queueCapacity));

    auto &fl = inflight_[head];
    Tick start = now;
    while (true) {
        fl.erase(std::remove_if(fl.begin(), fl.end(),
                                [&](Tick t) { return t <= start; }),
                 fl.end());
        if (fl.size() < credits)
            break;
        Tick earliest = fl.front();
        for (Tick t : fl)
            earliest = std::min(earliest, t);
        start = earliest;
    }
    return start;
}

Tick
PooledCxlDevice::arbitrate(unsigned head, Tick arrival)
{
    lastActive_[head] = arrival;
    if (policy_ == PoolArbitration::kNone)
        return arrival;

    // A head is "competing" if another head was active within the
    // recent horizon; only then does the credit limit engage.
    constexpr Tick kHorizon = 2 * kTicksPerUs;
    bool contended = false;
    for (unsigned h = 0; h < lastActive_.size(); ++h)
        if (h != head && arrival >= lastActive_[h] &&
            arrival - lastActive_[h] < kHorizon)
            contended = true;
    if (!contended)
        return arrival;

    const Tick start = earliestAdmission(head, arrival);
    if (start > arrival)
        stats_[head].arbWaitNs += ticksToNs(start - arrival);
    return start;
}

Tick
PooledCxlDevice::read(unsigned head, Addr addr, Tick host_issue)
{
    SIM_ASSERT(head < links_.size(), "pool head out of range");
    ++stats_[head].reads;
    const Tick req = links_[head]->send(
        kReadRequestBytes, link::Dir::kToDevice, host_issue);
    const Tick entry = arbitrate(head, req);
    const Tick done = ctrl_.service(addr, /*is_write=*/false, entry);
    retire(head, done);
    return links_[head]->send(kDataBytes, link::Dir::kFromDevice, done);
}

Tick
PooledCxlDevice::write(unsigned head, Addr addr, Tick host_issue)
{
    SIM_ASSERT(head < links_.size(), "pool head out of range");
    ++stats_[head].writes;
    const Tick data = links_[head]->send(
        kDataBytes, link::Dir::kToDevice, host_issue);
    const Tick cmd =
        host_issue + nsToTicks(profile_.linkCfg.propagationNs);
    const Tick entry = arbitrate(head, cmd);
    const Tick done = ctrl_.service(addr, /*is_write=*/true, entry);
    retire(head, done);
    return links_[head]->send(kCompletionBytes, link::Dir::kFromDevice,
                              std::max(done, data));
}

}  // namespace cxlsim::cxl
