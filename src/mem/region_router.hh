/**
 * @file
 * Address-range routing between two memory backends.
 *
 * Implements the §5.7 "performance tuning" use case: after Spa
 * identifies the objects responsible for slowdown bursts, those
 * address ranges are pinned to local DRAM while the rest of the
 * heap stays on CXL — reducing 605.mcf's slowdown from 13% to 2%
 * in the paper.
 */

#ifndef CXLSIM_MEM_REGION_ROUTER_HH
#define CXLSIM_MEM_REGION_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/backend.hh"

namespace cxlsim::mem {

/** Routes pinned address ranges to a "fast" backend, rest to "slow". */
class RegionRouter : public MemoryBackend
{
  public:
    RegionRouter(std::string name, BackendPtr fast, BackendPtr slow);

    /** Pin [lo, hi) to the fast backend. */
    void pinRegion(Addr lo, Addr hi);

    Tick access(Addr addr, ReqType type, Tick now) override;
    const std::string &name() const override { return name_; }

    /** Fraction of requests that were served by the fast backend. */
    double fastFraction() const;

  private:
    struct Region
    {
        Addr lo;
        Addr hi;
    };

    bool pinned(Addr a) const;

    std::string name_;
    BackendPtr fast_;
    BackendPtr slow_;
    std::vector<Region> regions_;
    std::uint64_t fastHits_ = 0;
    std::uint64_t total_ = 0;
};

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_REGION_ROUTER_HH
