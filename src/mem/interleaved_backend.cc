#include "interleaved_backend.hh"

#include "sim/logging.hh"

namespace cxlsim::mem {

InterleavedBackend::InterleavedBackend(std::string name,
                                       std::vector<BackendPtr> targets)
    : name_(std::move(name)), targets_(std::move(targets))
{
    SIM_ASSERT(!targets_.empty(), "interleaving needs >= 1 target");
}

Tick
InterleavedBackend::access(Addr addr, ReqType type, Tick now)
{
    note(type);
    const Addr line = addr / kCacheLineBytes;
    const std::size_t n = targets_.size();
    // Device-local line address: without the rescale, each device
    // would only ever see lines congruent to one residue and alias
    // onto a single one of its internal DDR channels.
    const Addr local = (line / n) * kCacheLineBytes;
    return targets_[line % n]->access(local, type, now);
}

}  // namespace cxlsim::mem
