/**
 * @file
 * SyntheticKernel: turns a WorkloadProfile into a per-core
 * instruction-block stream.
 *
 * Address streams: a sequential cursor and a strided cursor walk
 * the core's partition of the working set (training the hardware
 * prefetchers, like array sweeps in real code); random accesses
 * (optionally Zipf-skewed, optionally pointer-chase dependent)
 * span the full working set (defeating the prefetchers, like hash
 * tables and graph frontiers). Stores walk a dedicated region plus
 * a random component.
 */

#ifndef CXLSIM_WORKLOADS_SYNTHETIC_KERNEL_HH
#define CXLSIM_WORKLOADS_SYNTHETIC_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/kernel.hh"
#include "sim/rng.hh"
#include "workloads/profile.hh"

namespace cxlsim::workloads {

/** Kernel generating one core's share of a synthetic workload. */
class SyntheticKernel : public cpu::Kernel
{
  public:
    /**
     * @param profile Workload description.
     * @param core_id This core's index in [0, threads).
     */
    SyntheticKernel(const WorkloadProfile &profile, unsigned core_id);

    bool next(cpu::Block *b) override;

    /** The hot region — and, if it fits the budget, the whole
     *  partition — is cache-resident at steady state. */
    cpu::LineRange preloadRange(std::uint64_t budget_bytes)
        const override;

  private:
    const Phase &currentPhase() const;
    Addr randomLine();
    Addr hotLine();
    Addr nextSeq();
    Addr nextStride();
    Addr nextStoreAddr();

    WorkloadProfile prof_;
    unsigned coreId_;
    Rng rng_;

    std::uint64_t blocksEmitted_ = 0;
    /** Phase boundaries in emitted-block units. */
    std::vector<std::uint64_t> phaseEnds_;
    std::size_t phaseIdx_ = 0;

    /** Partition of the working set owned by this core. */
    Addr partBase_;
    std::uint64_t partBytes_;
    std::uint64_t wsLines_;

    Addr seqBase_ = 0;
    Addr seqCursor_;
    Addr strideCursor_;
    Addr storeCursor_;
    Addr hotBase_ = 0;
    std::uint64_t hotLines_ = 1;

    /** Fractional-op accumulators. */
    double loadAcc_ = 0.0;
    double storeAcc_ = 0.0;
};

/** Build one kernel per thread of @p profile. */
std::vector<std::unique_ptr<cpu::Kernel>>
makeKernels(const WorkloadProfile &profile);

}  // namespace cxlsim::workloads

#endif  // CXLSIM_WORKLOADS_SYNTHETIC_KERNEL_HH
