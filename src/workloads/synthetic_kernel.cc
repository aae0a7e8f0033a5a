#include "synthetic_kernel.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace cxlsim::workloads {

namespace {
/** Stream ids: distinct training contexts for the L1 stride PF. */
constexpr std::uint16_t kSeqStream = 1;
constexpr std::uint16_t kStrideStream = 2;
constexpr std::uint16_t kRandomStreamBase = 8;
constexpr Addr kStrideBytes = 4 * kCacheLineBytes;
}  // namespace

SyntheticKernel::SyntheticKernel(const WorkloadProfile &profile,
                                 unsigned core_id)
    : prof_(profile), coreId_(core_id),
      rng_(profile.seed * 1000003ULL + core_id)
{
    SIM_ASSERT(prof_.workingSetBytes >= (1u << 16),
               "working set too small");
    const unsigned threads = std::max(1u, prof_.threads);
    partBytes_ = prof_.workingSetBytes / threads;
    partBase_ = static_cast<Addr>(core_id) * partBytes_;
    wsLines_ = prof_.workingSetBytes / kCacheLineBytes;

    std::uint64_t hotBytes = prof_.hotBytes
                                 ? prof_.hotBytes
                                 : std::min<std::uint64_t>(
                                       3ULL << 19, partBytes_ / 8);
    hotBytes = std::max<std::uint64_t>(hotBytes, 64 * 1024);
    hotBase_ = partBase_;
    hotLines_ = hotBytes / kCacheLineBytes;

    // Streams start beyond the hot region so they measure memory
    // behaviour rather than walking pre-warmed lines.
    seqBase_ = partBase_ + hotLines_ * kCacheLineBytes;
    if (seqBase_ >= partBase_ + partBytes_)
        seqBase_ = partBase_;
    seqCursor_ = seqBase_;
    strideCursor_ = partBase_ + partBytes_ / 2;
    storeCursor_ = partBase_ + partBytes_ / 4;

    if (prof_.phases.empty())
        prof_.phases.push_back(Phase{});
    double totalW = 0.0;
    for (const auto &p : prof_.phases)
        totalW += p.weight;
    std::uint64_t acc = 0;
    for (const auto &p : prof_.phases) {
        acc += static_cast<std::uint64_t>(
            static_cast<double>(prof_.blocksPerCore) * p.weight /
            totalW);
        phaseEnds_.push_back(acc);
    }
    phaseEnds_.back() = prof_.blocksPerCore;
}

const Phase &
SyntheticKernel::currentPhase() const
{
    return prof_.phases[phaseIdx_];
}

Addr
SyntheticKernel::randomLine()
{
    std::uint64_t line;
    if (prof_.zipfSkew > 0.0)
        line = rng_.zipf(wsLines_, prof_.zipfSkew);
    else
        line = rng_.below(wsLines_);
    return line * kCacheLineBytes;
}

Addr
SyntheticKernel::hotLine()
{
    return hotBase_ +
           rng_.below(hotLines_) * kCacheLineBytes;
}

Addr
SyntheticKernel::nextSeq()
{
    const Addr a = seqCursor_;
    seqCursor_ += kCacheLineBytes;
    if (seqCursor_ >= partBase_ + partBytes_)
        seqCursor_ = seqBase_;
    return a;
}

Addr
SyntheticKernel::nextStride()
{
    const Addr a = strideCursor_;
    strideCursor_ += kStrideBytes;
    if (strideCursor_ >= partBase_ + partBytes_)
        strideCursor_ = partBase_ + partBytes_ / 2;
    return a;
}

Addr
SyntheticKernel::nextStoreAddr()
{
    // Most stores update resident data in place; the rest stream
    // through the partition (70%) or scatter randomly (30%).
    if (rng_.chance(prof_.storeHotFrac))
        return hotLine();
    if (rng_.chance(0.3))
        return partBase_ + (rng_.below(partBytes_ / kCacheLineBytes)) *
                               kCacheLineBytes;
    const Addr a = storeCursor_;
    storeCursor_ += kCacheLineBytes;
    if (storeCursor_ >= partBase_ + partBytes_)
        storeCursor_ = partBase_;
    return a;
}

cpu::LineRange
SyntheticKernel::preloadRange(std::uint64_t budget_bytes) const
{
    if (partBytes_ <= budget_bytes) {
        // The whole partition is LLC-resident at steady state.
        return {lineAlign(partBase_),
                (partBytes_ + kCacheLineBytes - 1) / kCacheLineBytes};
    }
    return {lineAlign(hotBase_), hotLines_};
}

bool
SyntheticKernel::next(cpu::Block *b)
{
    if (blocksEmitted_ >= prof_.blocksPerCore)
        return false;
    while (blocksEmitted_ >= phaseEnds_[phaseIdx_] &&
           phaseIdx_ + 1 < prof_.phases.size())
        ++phaseIdx_;
    const Phase &ph = currentPhase();

    b->nOps = 0;
    const double jitter = 0.75 + 0.5 * rng_.uniform();
    b->uops = std::max(
        1u, static_cast<unsigned>(prof_.uopsPerBlock * jitter + 0.5));

    loadAcc_ += prof_.loadsPerBlock * ph.intensity;
    storeAcc_ += prof_.storesPerBlock * ph.stores;

    // The accumulators can be negative after a burst overdraft;
    // casting a negative double to unsigned is UB, so clamp first.
    auto nLoads = loadAcc_ > 0.0
                      ? static_cast<unsigned>(loadAcc_)
                      : 0u;
    auto nStores = storeAcc_ > 0.0
                       ? static_cast<unsigned>(storeAcc_)
                       : 0u;
    // Leave room in the block: spill the remainder to later blocks.
    nLoads = std::min(nLoads, cpu::Block::kMaxOps - 2);
    nStores = std::min(nStores, cpu::Block::kMaxOps - nLoads);
    loadAcc_ -= nLoads;
    storeAcc_ -= nStores;

    int loadBudget = static_cast<int>(nLoads);
    while (loadBudget > 0 &&
           b->nOps + nStores < cpu::Block::kMaxOps) {
        cpu::MemOp op;
        op.isStore = false;
        const double u = rng_.uniform();
        if (u < prof_.seqFrac) {
            op.addr = nextSeq();
            op.streamId = kSeqStream;
        } else if (u < prof_.seqFrac + prof_.strideFrac) {
            op.addr = nextStride();
            op.streamId = kStrideStream;
        } else if (u < prof_.seqFrac + prof_.strideFrac +
                           prof_.hotFrac) {
            op.addr = hotLine();
            op.streamId = static_cast<std::uint16_t>(
                kRandomStreamBase + rng_.below(8));
        } else if (rng_.chance(prof_.dependentFrac * ph.dependence)) {
            // Pointer chase: a single dependent cold miss.
            op.addr = randomLine();
            op.streamId = static_cast<std::uint16_t>(
                kRandomStreamBase + rng_.below(8));
            op.dependent = true;
        } else {
            // Independent cold misses cluster (coldBurst): fetches
            // of an object's adjacent fields overlap in the LFB —
            // the memory-level parallelism real workloads exhibit.
            const unsigned space =
                cpu::Block::kMaxOps - b->nOps - nStores;
            const unsigned burst = std::min<unsigned>(
                std::max(1u, prof_.coldBurst), space);
            for (unsigned k = 0; k < burst; ++k) {
                cpu::MemOp m;
                m.isStore = false;
                m.addr = randomLine();
                m.streamId = static_cast<std::uint16_t>(
                    kRandomStreamBase + rng_.below(8));
                b->addOp(m);
            }
            // Borrow any overdraft from future blocks' budgets.
            loadBudget -= static_cast<int>(burst);
            if (loadBudget < 0)
                loadAcc_ += loadBudget;
            continue;
        }
        b->addOp(op);
        --loadBudget;
    }
    for (unsigned i = 0; i < nStores; ++i) {
        cpu::MemOp op;
        op.isStore = true;
        op.addr = nextStoreAddr();
        b->addOp(op);
    }

    ++blocksEmitted_;
    return true;
}

std::vector<std::unique_ptr<cpu::Kernel>>
makeKernels(const WorkloadProfile &profile)
{
    std::vector<std::unique_ptr<cpu::Kernel>> out;
    const unsigned threads = std::max(1u, profile.threads);
    out.reserve(threads);
    for (unsigned c = 0; c < threads; ++c)
        out.push_back(
            std::make_unique<SyntheticKernel>(profile, c));
    return out;
}

}  // namespace cxlsim::workloads
