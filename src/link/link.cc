#include "link.hh"

namespace cxlsim::link {

Tick
DuplexLink::send(unsigned bytes, Dir dir, Tick now)
{
    const auto d = static_cast<unsigned>(dir);
    const Tick start = std::max(now, freeAt_[d]);
    const Tick ser = serializationTicks(bytes, cfg_.gbpsPerDir);
    freeAt_[d] = start + ser;
    ++stats_.transfers[d];
    stats_.bytes[d] += bytes;
    return freeAt_[d] + nsToTicks(cfg_.propagationNs);
}

Tick
HalfDuplexLink::send(unsigned bytes, Dir dir, Tick now)
{
    const auto d = static_cast<unsigned>(dir);
    Tick start = std::max(now, freeAt_);
    const bool from = dir == Dir::kFromDevice;
    if (from != lastDirFrom_) {
        start += nsToTicks(cfg_.turnaroundNs);
        lastDirFrom_ = from;
    }
    const Tick ser = serializationTicks(bytes, cfg_.gbpsPerDir);
    freeAt_ = start + ser;
    ++stats_.transfers[d];
    stats_.bytes[d] += bytes;
    return freeAt_ + nsToTicks(cfg_.propagationNs);
}

}  // namespace cxlsim::link
