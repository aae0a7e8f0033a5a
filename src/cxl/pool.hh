/**
 * @file
 * Multi-headed pooled CXL device (the paper's pooling scenario).
 *
 * §4's takeaway — "CXL could be useful for certain real-world
 * applications, e.g., in pooling scenarios" — and Recommendation
 * #1 — "predictable latency is crucial for QoS in the cloud" —
 * motivate this extension: one expander shared by multiple host
 * ports (as in CXL 2.0 multi-headed devices / Pond-style pools).
 *
 * Each head has its own link; the controller is shared. The
 * arbiter decides how head traffic interleaves into the shared
 * request scheduler:
 *   kNone         - FCFS free-for-all (a noisy neighbour can
 *                   monopolize the scheduler),
 *   kRoundRobin   - per-head queues drained fairly,
 *   kWeighted     - bandwidth-weighted fair sharing.
 *
 * The pooling bench measures tenant-A tail latency as tenant-B
 * load rises under each policy.
 */

#ifndef CXLSIM_CXL_POOL_HH
#define CXLSIM_CXL_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cxl/controller.hh"
#include "cxl/device.hh"
#include "cxl/device_profile.hh"
#include "link/link.hh"
#include "sim/types.hh"

namespace cxlsim::cxl {

/** Head-arbitration policy for the shared request scheduler. */
enum class PoolArbitration : std::uint8_t {
    kNone,
    kRoundRobin,
    kWeighted,
};

/** Per-head counters. */
struct HeadStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Extra ticks spent waiting on the arbiter. */
    double arbWaitNs = 0.0;
};

/**
 * A type-3 expander with N host ports sharing one controller.
 *
 * Fairness is enforced the way CXL does it — credit-based flow
 * control: each head owns a share of the device's request-queue
 * credits, and a head that exhausts its credits must wait for one
 * of its outstanding requests to complete before injecting more.
 * Under kNone a single head may consume the whole queue.
 */
class PooledCxlDevice
{
  public:
    /**
     * @param profile  Device preset (e.g. cxlD() for a big pool).
     * @param heads    Number of host ports.
     * @param policy   Arbitration policy.
     * @param weights  Relative share per head (kWeighted only);
     *                 defaults to equal shares.
     */
    PooledCxlDevice(const DeviceProfile &profile, unsigned heads,
                    PoolArbitration policy, std::uint64_t seed,
                    std::vector<double> weights = {});

    /**
     * Earliest tick at which @p head may inject a new request
     * (credit availability). Callers running a closed loop should
     * defer issue until this time so requests enter the shared
     * scheduler in true time order — exactly how CXL flow-control
     * credits gate a real host bridge.
     */
    Tick earliestAdmission(unsigned head, Tick now);

    /** 64B read/write from @p head; returns the host-visible
     *  completion tick. */
    [[nodiscard]] Tick read(unsigned head, Addr addr, Tick host_issue);
    [[nodiscard]] Tick write(unsigned head, Addr addr, Tick host_issue);

    unsigned heads() const
    {
        return static_cast<unsigned>(links_.size());
    }
    const HeadStats &headStats(unsigned head) const
    {
        return stats_[head];
    }
    const ControllerStats &controllerStats() const
    {
        return ctrl_.stats();
    }

  private:
    /** Arbiter: earliest tick @p head may enter the scheduler
     *  (credit-based: waits for an outstanding-request credit). */
    Tick arbitrate(unsigned head, Tick arrival);

    /** Record a completion so its credit can be reclaimed. */
    void retire(unsigned head, Tick completion);

    DeviceProfile profile_;
    PoolArbitration policy_;
    std::vector<double> weights_;
    std::vector<std::unique_ptr<link::DuplexLink>> links_;
    std::vector<HeadStats> stats_;
    /** Outstanding-request completion times per head (credits). */
    std::vector<std::vector<Tick>> inflight_;
    /** Recent activity horizon per head (for contention checks). */
    std::vector<Tick> lastActive_;
    CxlController ctrl_;
};

}  // namespace cxlsim::cxl

#endif  // CXLSIM_CXL_POOL_HH
