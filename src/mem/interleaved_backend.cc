#include "interleaved_backend.hh"

namespace cxlsim::mem {

InterleavedBackend::InterleavedBackend(std::string name,
                                       std::vector<BackendPtr> targets)
    : name_(std::move(name)), targets_(std::move(targets)),
      targetSplit_(targets_.size())  // asserts >= 1 target
{
}

Tick
InterleavedBackend::access(Addr addr, ReqType type, Tick now)
{
    note(type);
    const Addr line = addr / kCacheLineBytes;
    // Device-local line address: without the rescale, each device
    // would only ever see lines congruent to one residue and alias
    // onto a single one of its internal DDR channels.
    const Addr local = targetSplit_.quot(line) * kCacheLineBytes;
    return targets_[targetSplit_.rem(line)]->access(local, type, now);
}

}  // namespace cxlsim::mem
