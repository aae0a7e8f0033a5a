#include "device.hh"

#include <algorithm>

namespace cxlsim::cxl {

namespace {

/** Switch stage parameters: generous bandwidth, real forwarding cost. */
link::LinkConfig
switchLinkConfig()
{
    link::LinkConfig cfg;
    cfg.gbpsPerDir = 64.0;
    cfg.propagationNs = 150.0;  // store-and-forward + arbitration
    return cfg;
}

}  // namespace

CxlDevice::CxlDevice(const DeviceProfile &profile, std::uint64_t seed,
                     unsigned switch_hops)
    : profile_(profile), ctrl_(profile, seed ^ 0xc3a5c85c97cb3127ULL)
{
    if (profile_.halfDuplexLink)
        halfDuplex_ =
            std::make_unique<link::HalfDuplexLink>(profile_.linkCfg);
    else
        duplex_ = std::make_unique<link::DuplexLink>(profile_.linkCfg);
    for (unsigned i = 0; i < switch_hops; ++i)
        switches_.push_back(
            std::make_unique<link::DuplexLink>(switchLinkConfig()));
}

link::SendResult
CxlDevice::sendLinkEx(unsigned bytes, link::Dir dir, Tick now)
{
    if (halfDuplex_) {
        // FPGA IP: only data payloads occupy the shared medium;
        // small request/completion flits ride a side channel and
        // pay propagation only. Direction switches between read
        // data and write data incur the turnaround penalty that
        // degrades CXL-C under mixed read/write traffic (Fig 5).
        if (bytes < kDataBytes)
            return {now + nsToTicks(
                              halfDuplex_->config().propagationNs),
                    false};
        return halfDuplex_->sendEx(bytes, dir, now);
    }
    return duplex_->sendEx(bytes, dir, now);
}

void
CxlDevice::enableRas(const ras::FaultPlan &plan, unsigned device,
                     std::uint64_t seed)
{
    ctrl_.enableRas(plan, device, seed);
    const std::uint64_t linkSeed = seed ^ 0x94d049bb133111ebULL;
    if (halfDuplex_)
        halfDuplex_->enableFaults(plan.link, linkSeed);
    else
        duplex_->enableFaults(plan.link, linkSeed);
}

void
CxlDevice::addRasTo(ras::RasStats *out) const
{
    if (halfDuplex_)
        halfDuplex_->addRasTo(out);
    else
        duplex_->addRasTo(out);
    ctrl_.addRasTo(out);
}

Tick
CxlDevice::throughSwitches(unsigned bytes, link::Dir dir, Tick now)
{
    if (dir == link::Dir::kToDevice) {
        for (auto &sw : switches_)
            now = sw->sendEx(bytes, dir, now).at;
    } else {
        for (auto it = switches_.rbegin(); it != switches_.rend(); ++it)
            now = (*it)->sendEx(bytes, dir, now).at;
    }
    return now;
}

ras::AccessResult
CxlDevice::readEx(Addr addr, Tick host_issue)
{
    Tick t = throughSwitches(kReadRequestBytes, link::Dir::kToDevice,
                             host_issue);
    const auto req =
        sendLinkEx(kReadRequestBytes, link::Dir::kToDevice, t);
    if (req.lost) {
        // Replay budget exhausted on the request flit: the
        // controller never sees it. The host may re-issue.
        ctrl_.noteLinkDown();
        return {req.at, ras::Status::kRetryable};
    }
    const ras::AccessResult so =
        ctrl_.serviceEx(addr, /*is_write=*/false, req.at);
    if (so.status == ras::Status::kTimeout)
        return so;  // device down: no data ever comes back
    const auto data =
        sendLinkEx(kDataBytes, link::Dir::kFromDevice, so.done);
    t = throughSwitches(kDataBytes, link::Dir::kFromDevice, data.at);
    if (data.lost) {
        ctrl_.noteLinkDown();
        return {t, ras::Status::kRetryable};
    }
    return {t, so.status};
}

ras::AccessResult
CxlDevice::writeEx(Addr addr, Tick host_issue)
{
    // Writes are posted: the command header reaches the controller
    // at wire speed and is queued while the data flits stream over
    // the link. Completion (NDR) requires both the data transfer
    // and the DRAM write to finish. Modelling the command path
    // independently keeps the controller's arrival order close to
    // issue order, as in real devices with per-request queue slots.
    Tick dataArrive = throughSwitches(kDataBytes,
                                      link::Dir::kToDevice,
                                      host_issue);
    const auto data =
        sendLinkEx(kDataBytes, link::Dir::kToDevice, dataArrive);
    if (data.lost) {
        ctrl_.noteLinkDown();
        return {data.at, ras::Status::kRetryable};
    }
    const Tick cmdArrive =
        host_issue +
        nsToTicks(profile_.linkCfg.propagationNs *
                  static_cast<double>(1 + switches_.size()));
    const ras::AccessResult so =
        ctrl_.serviceEx(addr, /*is_write=*/true, cmdArrive);
    if (so.status == ras::Status::kTimeout)
        return so;  // no completion: host timer expires

    Tick t = std::max(data.at, so.done);
    const auto cmpl =
        sendLinkEx(kCompletionBytes, link::Dir::kFromDevice, t);
    t = throughSwitches(kCompletionBytes, link::Dir::kFromDevice,
                        cmpl.at);
    if (cmpl.lost) {
        ctrl_.noteLinkDown();
        return {t, ras::Status::kRetryable};
    }
    // Writes never surface poison: a bad target line is simply
    // overwritten (and counted by the controller).
    return {t, ras::Status::kOk};
}

std::uint64_t
CxlDevice::linkBytes() const
{
    const link::LinkStats &s = halfDuplex_ ? halfDuplex_->stats()
                                           : duplex_->stats();
    return s.bytes[0] + s.bytes[1];
}

}  // namespace cxlsim::cxl
