/**
 * @file
 * TimingBackend: a forwarding MemoryBackend for traced runs.
 *
 * It hands every access()/accessEx() to the wrapped backend unchanged
 * and adds up the host time spent inside those calls, which separates
 * memory-model time from the CPU-model time around it. It keeps its
 * own request counts through the base class, so a run reports the
 * same BackendStats as it would on the bare backend, plus lifetime
 * counts (never reset) to check against the wrapped backend's.
 */

#ifndef PERFBENCH_TIMING_BACKEND_HH
#define PERFBENCH_TIMING_BACKEND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/backend.hh"
#include "trace.hh"

namespace perfbench {

class TimingBackend final : public cxlsim::mem::MemoryBackend
{
  public:
    explicit TimingBackend(cxlsim::mem::MemoryBackend *inner)
        : inner_(inner)
    {
    }

    cxlsim::Tick
    access(cxlsim::Addr addr, cxlsim::mem::ReqType type,
           cxlsim::Tick now) override
    {
        const std::int64_t t0 = nowNs();
        const cxlsim::Tick done = inner_->access(addr, type, now);
        count(type, t0);
        return done;
    }

    cxlsim::mem::AccessResult
    accessEx(cxlsim::Addr addr, cxlsim::mem::ReqType type,
             cxlsim::Tick now) override
    {
        const std::int64_t t0 = nowNs();
        const cxlsim::mem::AccessResult r =
            inner_->accessEx(addr, type, now);
        count(type, t0);
        return r;
    }

    void
    rasReport(std::vector<cxlsim::ras::RasReportEntry> *out) const override
    {
        inner_->rasReport(out);
    }

    const std::string &name() const override { return inner_->name(); }

    /** Host nanoseconds spent inside the wrapped backend. */
    std::int64_t hostNs() const { return hostNs_; }
    /** Requests forwarded since construction. */
    const cxlsim::mem::BackendStats &forwarded() const
    {
        return forwarded_;
    }

  private:
    void
    count(cxlsim::mem::ReqType type, std::int64_t t0)
    {
        hostNs_ += nowNs() - t0;
        note(type);
        if (cxlsim::mem::isRead(type))
            ++forwarded_.reads;
        else
            ++forwarded_.writes;
    }

    cxlsim::mem::MemoryBackend *inner_;
    std::int64_t hostNs_ = 0;
    cxlsim::mem::BackendStats forwarded_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_BACKEND_HH
