/**
 * @file
 * MemoryBackend: the interface between the CPU's last-level cache
 * and whatever provides memory — socket-local DRAM, a remote NUMA
 * node, or a CXL expander (possibly behind switches or a NUMA hop).
 *
 * The paper's experiments bind entire workloads to one backend
 * ("worst-case CXL setup, excluding tiering or interleaving",
 * §3.1); the RegionRouter below additionally supports the §5.7
 * tuning use case, where specific hot objects are pinned back to
 * local DRAM.
 *
 * A backend implements one entry point, accessEx(), which returns
 * the completion tick and RAS status together; the status-less
 * access() is a forwarder in the base class, so every caller sees
 * the same path and the same faults.
 */

#ifndef CXLSIM_MEM_BACKEND_HH
#define CXLSIM_MEM_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "ras/ras.hh"
#include "sim/types.hh"

namespace cxlsim::mem {

/** Completion tick + RAS status of one backend access (the one
 *  [[nodiscard]] completion type of the whole memory path). */
using AccessResult = ras::AccessResult;

/** Byte/request counters every backend keeps. */
struct BackendStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    std::uint64_t
    requests() const
    {
        return reads + writes;
    }

    double
    totalGB() const
    {
        return static_cast<double>(requests()) * 64.0 / 1e9;
    }
};

/** Abstract memory target for 64B line requests. */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /**
     * Issue a 64B request and return its completion tick and RAS
     * status. This is the one function a backend implements.
     *
     * @param addr Line-aligned physical address.
     * @param type Request class (affects read/write direction).
     * @param now  Issue tick (request leaves the LLC/uncore).
     */
    virtual AccessResult accessEx(Addr addr, ReqType type,
                                  Tick now) = 0;

    /**
     * accessEx() without the status, for fire-and-forget or
     * fault-free traffic (LLC writebacks, tiering migration,
     * MLC/Mio). Virtual only because the benchmark's forwarding
     * TimingBackend (perfbench/timing_backend.hh) overrides it;
     * no backend in the simulator does.
     */
    virtual Tick
    access(Addr addr, ReqType type, Tick now)
    {
        return accessEx(addr, type, now).done;
    }

    /**
     * Append this backend's (and its children's) RAS counters to
     * @p out, one entry per fault-capable node. Fault-free
     * backends contribute nothing.
     */
    virtual void
    rasReport(std::vector<ras::RasReportEntry> *out) const
    {
        (void)out;
    }

    /** Human-readable setup name ("Local", "CXL-A", ...). */
    virtual const std::string &name() const = 0;

    const BackendStats &stats() const { return stats_; }
    void resetStats() { stats_ = BackendStats{}; }

  protected:
    void
    note(ReqType t)
    {
        if (isRead(t))
            ++stats_.reads;
        else
            ++stats_.writes;
    }

    BackendStats stats_;
};

using BackendPtr = std::unique_ptr<MemoryBackend>;

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_BACKEND_HH
