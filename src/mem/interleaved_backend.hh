/**
 * @file
 * Hardware interleaving across multiple identical backends — the
 * "two CXL-D devices, effectively doubling bandwidth to 104 GB/s"
 * experiment of Figure 8f.
 */

#ifndef CXLSIM_MEM_INTERLEAVED_BACKEND_HH
#define CXLSIM_MEM_INTERLEAVED_BACKEND_HH

#include <cstddef>
#include <string>
#include <vector>

#include "mem/backend.hh"

namespace cxlsim::mem {

/** Line-granularity round-robin interleaving over N backends. */
class InterleavedBackend : public MemoryBackend
{
  public:
    InterleavedBackend(std::string name,
                       std::vector<BackendPtr> targets);

    Tick access(Addr addr, ReqType type, Tick now) override;
    const std::string &name() const override { return name_; }

    std::size_t ways() const { return targets_.size(); }

  private:
    std::string name_;
    std::vector<BackendPtr> targets_;
};

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_INTERLEAVED_BACKEND_HH
