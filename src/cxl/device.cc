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
    : profile_(profile),
      cmdPropTicks_(nsToTicks(profile.linkCfg.propagationNs *
                              static_cast<double>(1 + switch_hops))),
      ctrl_(profile, seed ^ 0xc3a5c85c97cb3127ULL)
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

Tick
CxlDevice::sendLink(unsigned bytes, link::Dir dir, Tick now)
{
    if (halfDuplex_) {
        // FPGA IP: only data payloads occupy the shared medium;
        // small request/completion flits ride a side channel and
        // pay propagation only. Direction switches between read
        // data and write data incur the turnaround penalty that
        // degrades CXL-C under mixed read/write traffic (Fig 5).
        if (bytes < kDataBytes)
            return now + nsToTicks(halfDuplex_->config().propagationNs);
        return halfDuplex_->send(bytes, dir, now);
    }
    return duplex_->send(bytes, dir, now);
}

Tick
CxlDevice::throughSwitches(unsigned bytes, link::Dir dir, Tick now)
{
    if (dir == link::Dir::kToDevice) {
        for (auto &sw : switches_)
            now = sw->send(bytes, dir, now);
    } else {
        for (auto it = switches_.rbegin(); it != switches_.rend(); ++it)
            now = (*it)->send(bytes, dir, now);
    }
    return now;
}

Tick
CxlDevice::read(Addr addr, Tick host_issue)
{
    Tick t = throughSwitches(kReadRequestBytes, link::Dir::kToDevice,
                             host_issue);
    t = sendLink(kReadRequestBytes, link::Dir::kToDevice, t);
    t = ctrl_.service(addr, /*is_write=*/false, t);
    t = sendLink(kDataBytes, link::Dir::kFromDevice, t);
    return throughSwitches(kDataBytes, link::Dir::kFromDevice, t);
}

Tick
CxlDevice::write(Addr addr, Tick host_issue)
{
    // Writes are posted: the command header reaches the controller
    // at wire speed and is queued while the data flits stream over
    // the link. Completion (NDR) requires both the data transfer
    // and the DRAM write to finish. Modelling the command path
    // independently keeps the controller's arrival order close to
    // issue order, as in real devices with per-request queue slots.
    const Tick dataArrive = sendLink(
        kDataBytes, link::Dir::kToDevice,
        throughSwitches(kDataBytes, link::Dir::kToDevice, host_issue));
    const Tick cmdArrive = host_issue + cmdPropTicks_;
    const Tick stored =
        ctrl_.service(addr, /*is_write=*/true, cmdArrive);

    Tick t = std::max(dataArrive, stored);
    t = sendLink(kCompletionBytes, link::Dir::kFromDevice, t);
    return throughSwitches(kCompletionBytes, link::Dir::kFromDevice, t);
}

std::uint64_t
CxlDevice::linkBytes() const
{
    const link::LinkStats &s = halfDuplex_ ? halfDuplex_->stats()
                                           : duplex_->stats();
    return s.bytes[0] + s.bytes[1];
}

}  // namespace cxlsim::cxl
