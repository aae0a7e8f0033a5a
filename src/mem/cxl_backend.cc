#include "cxl_backend.hh"

#include <algorithm>

namespace cxlsim::mem {

CxlBackend::CxlBackend(const CxlBackendConfig &cfg)
    : name_(cfg.switchHops
                ? cfg.profile.name + "+Switch"
                : cfg.profile.name),
      cfg_(cfg), device_(cfg.profile, cfg.seed, cfg.switchHops)
{
    if (cfg_.faultPlan.enabled()) {
        cfg_.faultPlan.validate();
        device_.enableRas(cfg_.faultPlan, cfg_.deviceIndex,
                          cfg_.seed ^ 0xd1b54a32d192ed03ULL);
    }
}

AccessResult
CxlBackend::accessEx(Addr addr, ReqType type, Tick now)
{
    note(type);
    const Tick overhead = nsToTicks(cfg_.hostOverheadNs);
    const auto &rp = cfg_.faultPlan.hostRetry;

    Tick issue = now + overhead;
    double backoffNs = rp.backoffNs;
    for (unsigned attempt = 0;; ++attempt) {
        const AccessResult r =
            isRead(type) ? device_.readEx(addr, issue)
                         : device_.writeEx(addr, issue);
        if (r.status == ras::Status::kOk ||
            r.status == ras::Status::kPoisoned)
            return r;

        // No (usable) completion arrived: the host's completion
        // timer expires, then it backs off and re-issues — or
        // gives up once the retry budget is spent.
        const Tick expired =
            std::max(r.done, issue + nsToTicks(rp.timeoutNs));
        if (attempt >= rp.maxRetries) {
            ++hostStats_.hostTimeouts;
            return {expired, ras::Status::kTimeout};
        }
        ++hostStats_.hostRetries;
        issue = expired + nsToTicks(backoffNs);
        backoffNs *= rp.backoffMult;
    }
}

void
CxlBackend::rasReport(std::vector<ras::RasReportEntry> *out) const
{
    ras::RasStats s = hostStats_;
    device_.addRasTo(&s);
    if (s.any())
        out->push_back({name_, s});
}

}  // namespace cxlsim::mem
