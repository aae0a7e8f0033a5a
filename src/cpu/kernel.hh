/**
 * @file
 * The instruction-stream interface between workloads and the core
 * model.
 *
 * A Kernel emits Blocks: a handful of non-memory uops plus up to
 * kMaxOps memory operations. Loads may be flagged `dependent`
 * (their result feeds the next address — pointer chasing), which
 * prevents memory-level parallelism and makes the workload
 * latency-sensitive. streamId stands in for the load instruction's
 * IP, which the L1 stride prefetcher trains on.
 */

#ifndef CXLSIM_CPU_KERNEL_HH
#define CXLSIM_CPU_KERNEL_HH

#include <cstdint>

#include "cpu/cache.hh"
#include "sim/types.hh"

namespace cxlsim::cpu {

/** One memory operation within a block. */
struct MemOp
{
    Addr addr = 0;
    std::uint16_t streamId = 0;
    bool isStore = false;
    bool dependent = false;
};

/** A short run of instructions between memory operations. */
struct Block
{
    static constexpr unsigned kMaxOps = 8;

    /** Non-memory uops executed in this block. */
    unsigned uops = 0;
    unsigned nOps = 0;
    MemOp ops[kMaxOps];

    void
    addOp(const MemOp &op)
    {
        if (nOps < kMaxOps)
            ops[nOps++] = op;
    }
};

/** A workload's per-core instruction stream. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /**
     * Produce the next block.
     * @return false when the stream is exhausted.
     */
    virtual bool next(Block *b) = 0;

    /**
     * The cache lines that are resident at steady state, as one
     * contiguous range (empty by default). The runner pre-warms the
     * hierarchy with every core's range so short simulations
     * measure steady-state behaviour instead of cold-start misses.
     * @p budget_bytes is roughly this core's share of the LLC: a
     * kernel whose working set fits should return all of it (it
     * would be LLC-resident in steady state); larger working sets
     * return only their hot set. The base is line-aligned, and the
     * ranges of a workload's kernels must be pairwise disjoint:
     * they share one LLC (Cache::fill).
     */
    virtual LineRange
    preloadRange(std::uint64_t budget_bytes) const
    {
        (void)budget_bytes;
        return {};
    }
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_KERNEL_HH
