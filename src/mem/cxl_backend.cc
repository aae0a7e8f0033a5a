#include "cxl_backend.hh"

namespace cxlsim::mem {

CxlBackend::CxlBackend(const CxlBackendConfig &cfg)
    : name_(cfg.switchHops
                ? cfg.profile.name + "+Switch"
                : cfg.profile.name),
      cfg_(cfg), device_(cfg.profile, cfg.seed, cfg.switchHops)
{
}

Tick
CxlBackend::access(Addr addr, ReqType type, Tick now)
{
    note(type);
    const Tick issue = now + nsToTicks(cfg_.hostOverheadNs);
    return isRead(type) ? device_.read(addr, issue)
                        : device_.write(addr, issue);
}

}  // namespace cxlsim::mem
