#include "numa_backend.hh"

namespace cxlsim::mem {

namespace {
constexpr unsigned kRequestBytes = 16;
constexpr unsigned kDataBytes = 64;
constexpr unsigned kAckBytes = 8;
}  // namespace

NumaBackend::NumaBackend(std::string name, BackendPtr target,
                         const NumaHopConfig &cfg)
    : name_(std::move(name)), target_(std::move(target)), cfg_(cfg),
      upi_(cfg.upi), jitter_(cfg.jitter, cfg.seed ^ 0x9d2c5680ULL)
{
}

Tick
NumaBackend::access(Addr addr, ReqType type, Tick now)
{
    note(type);
    const bool read = isRead(type);

    Tick t = now + jitter_.sample(now);
    // Outbound: a small request for reads, the full line for writes.
    t = upi_.send(read ? kRequestBytes : kDataBytes,
                  link::Dir::kToDevice, t);
    t = target_->access(addr, type, t);
    // Inbound: data for reads, an ack for writes.
    t = upi_.send(read ? kDataBytes : kAckBytes, link::Dir::kFromDevice,
                  t);
    return t + nsToTicks(cfg_.extraNs);
}

}  // namespace cxlsim::mem
