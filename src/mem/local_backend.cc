#include "local_backend.hh"

namespace cxlsim::mem {

LocalDramBackend::LocalDramBackend(const LocalDramConfig &cfg)
    : cfg_(cfg), baseTicks_(nsToTicks(cfg.baseNs)),
      channelSplit_(cfg.channels)
{
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        dram::ChannelConfig cc;
        cc.timing = cfg_.timing;
        cc.refreshHiding = cfg_.refreshHiding;
        cc.seed = cfg_.seed * 104729 + c;
        channels_.push_back(std::make_unique<dram::Channel>(cc));
    }
}

Tick
LocalDramBackend::access(Addr addr, ReqType type, Tick now)
{
    note(type);
    const Addr line = addr / kCacheLineBytes;
    auto &chan = *channels_[channelSplit_.rem(line)];
    // Channel-local address: consecutive lines on one channel
    // spread across all its banks.
    const Addr local = channelSplit_.quot(line) * kCacheLineBytes;
    const Tick done = chan.access(local, !isRead(type), now);
    return done + baseTicks_;
}

double
LocalDramBackend::peakGBps() const
{
    return cfg_.timing.peakGBps() * static_cast<double>(cfg_.channels);
}

}  // namespace cxlsim::mem
