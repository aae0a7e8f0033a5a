#include "local_backend.hh"

namespace cxlsim::mem {

LocalDramBackend::LocalDramBackend(const LocalDramConfig &cfg)
    : cfg_(cfg)
{
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        dram::ChannelConfig cc;
        cc.timing = cfg_.timing;
        cc.refreshHiding = cfg_.refreshHiding;
        cc.seed = cfg_.seed * 104729 + c;
        channels_.push_back(std::make_unique<dram::Channel>(cc));
    }
}

AccessResult
LocalDramBackend::accessEx(Addr addr, ReqType type, Tick now)
{
    note(type);
    const Addr line = addr / kCacheLineBytes;
    const std::size_t n = channels_.size();
    auto &chan = *channels_[line % n];
    // Channel-local address: consecutive lines on one channel
    // spread across all its banks.
    const Addr local = (line / n) * kCacheLineBytes;
    const Tick done = chan.access(local, !isRead(type), now);
    return {done + nsToTicks(cfg_.baseNs), ras::Status::kOk};
}

double
LocalDramBackend::peakGBps() const
{
    return cfg_.timing.peakGBps() * static_cast<double>(cfg_.channels);
}

}  // namespace cxlsim::mem
