#include "region_router.hh"

namespace cxlsim::mem {

RegionRouter::RegionRouter(std::string name, BackendPtr fast,
                           BackendPtr slow)
    : name_(std::move(name)), fast_(std::move(fast)),
      slow_(std::move(slow))
{
}

void
RegionRouter::pinRegion(Addr lo, Addr hi)
{
    regions_.push_back({lo, hi});
}

bool
RegionRouter::pinned(Addr a) const
{
    for (const auto &r : regions_)
        if (a >= r.lo && a < r.hi)
            return true;
    return false;
}

Tick
RegionRouter::access(Addr addr, ReqType type, Tick now)
{
    note(type);
    ++total_;
    if (pinned(addr)) {
        ++fastHits_;
        return fast_->access(addr, type, now);
    }
    return slow_->access(addr, type, now);
}

double
RegionRouter::fastFraction() const
{
    return total_ ? static_cast<double>(fastHits_) /
                        static_cast<double>(total_)
                  : 0.0;
}

}  // namespace cxlsim::mem
