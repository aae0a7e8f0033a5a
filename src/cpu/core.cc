#include "core.hh"

#include <algorithm>

namespace cxlsim::cpu {

Core::Core(const CpuProfile &profile, const CoreExecParams &exec,
           MemoryHierarchy *hierarchy, unsigned core_id,
           Kernel *kernel)
    : profile_(profile), exec_(exec), hier_(hierarchy),
      coreId_(core_id), kernel_(kernel),
      tpc_(ticksPerCycle(profile.freqGhz))
{
    loads_.reserve(profile.lfbEntries + 1);
}

void
Core::enableSampling(Tick interval, std::vector<CounterSample> *out)
{
    sampleInterval_ = interval;
    nextSample_ = interval;
    samples_ = out;
}

CounterSet
Core::counters() const
{
    CounterSet c = cnt_;
    const PfStats &pf = hier_->pfStats(coreId_);
    c.l1pfIssued = pf.l1pfIssued;
    c.l1pfL3Miss = pf.l1pfL3Miss;
    c.l1pfL3Hit = pf.l1pfL3Hit;
    c.l2pfIssued = pf.l2pfIssued;
    c.l2pfL3Miss = pf.l2pfL3Miss;
    c.l2pfL3Hit = pf.l2pfL3Hit;
    c.demandL3Miss = pf.demandL3Miss;
    c.machineChecks = pf.machineChecks;
    c.demandTimeouts = pf.demandTimeouts;
    c.prefetchDrops = pf.prefetchDrops;
    return c;
}

void
Core::maybeSample()
{
    if (!samples_)
        return;
    while (static_cast<Tick>(tickNow_) >= nextSample_) {
        samples_->push_back({nextSample_, counters()});
        nextSample_ += sampleInterval_;
    }
}

void
Core::purgeLoads()
{
    if (tickNow_ < nextDone_)
        return;  // none has completed yet
    // Completion times are not monotonic in issue order (an L2 hit
    // finishes before an older DRAM miss): drop every completed
    // entry, keeping the rest in issue order.
    double next = kNever;
    auto kept = loads_.begin();
    for (const OutstandingLoad &l : loads_) {
        if (l.completion > tickNow_) {
            *kept++ = l;
            next = std::min(next, l.completion);
        }
    }
    loads_.erase(kept, loads_.end());
    nextDone_ = next;
}

void
Core::purgeStores()
{
    while (!storeBuf_.empty() && storeBuf_.front() <= tickNow_)
        storeBuf_.pop_front();
}

void
Core::stallOnLoads(double target)
{
    // Charge the stall piecewise: within the window, each segment
    // is attributed to the deepest load *still outstanding* during
    // that segment (Intel counters stop counting a level once its
    // last outstanding miss at that level completes — a 16-cycle
    // L2 hit must not taint a 300ns DRAM wait, or vice versa).
    while (tickNow_ < target) {
        purgeLoads();
        purgeStores();
        if (loads_.empty()) {
            const double dt = cyclesOf(target - tickNow_);
            cnt_.cycles += dt;
            cnt_.p6 += dt;
            tickNow_ = target;
            break;
        }
        double boundary = target;
        StallTag deepest = StallTag::kL1;
        for (const auto &l : loads_) {
            if (l.tag > deepest)
                deepest = l.tag;
            if (l.completion < boundary)
                boundary = l.completion;
        }
        const double dtCycles = cyclesOf(boundary - tickNow_);
        cnt_.cycles += dtCycles;
        cnt_.p1 += dtCycles;
        if (deepest >= StallTag::kL2)
            cnt_.p3 += dtCycles;
        if (deepest >= StallTag::kL3)
            cnt_.p4 += dtCycles;
        if (deepest >= StallTag::kDram)
            cnt_.p5 += dtCycles;
        cnt_.p6 += dtCycles;
        // A long-latency wait keeps the scoreboard busy slightly
        // longer for serializing operations (small, per §5.4).
        cnt_.p9 += dtCycles * exec_.serializeFrac * 0.1;
        tickNow_ = boundary;
    }
    purgeLoads();
    purgeStores();
    maybeSample();
}

void
Core::stallOnStore(double target)
{
    if (target <= tickNow_)
        return;
    // Intel semantics: BOUND_ON_STORES requires no outstanding
    // loads; otherwise the cycles attribute to the load side.
    while (!loads_.empty() && tickNow_ < target)
        stallOnLoads(std::min(target, nextDone_));
    if (tickNow_ >= target)
        return;
    const double dtCycles = cyclesOf(target - tickNow_);
    cnt_.cycles += dtCycles;
    cnt_.p2 += dtCycles;
    cnt_.p6 += dtCycles;
    tickNow_ = target;
    purgeLoads();
    purgeStores();
    maybeSample();
}

void
Core::execute(const Block &b)
{
    const double execCycles =
        static_cast<double>(b.uops) /
        static_cast<double>(profile_.issueWidth);
    const double fe = exec_.frontendStallFrac;
    const double feCycles =
        fe < 1.0 ? execCycles * fe / (1.0 - fe) : 0.0;

    cnt_.p6 += feCycles;  // no retire during frontend stalls
    cnt_.p7 += execCycles * exec_.onePortFrac;
    cnt_.p8 += execCycles * exec_.twoPortFrac;
    cnt_.p9 += execCycles * exec_.serializeFrac;
    cnt_.instructions += b.uops;
    cnt_.cycles += execCycles + feCycles;

    tickNow_ += (execCycles + feCycles) * tpc_;
    uopIdx_ += b.uops;
    purgeLoads();
    purgeStores();
    maybeSample();
}

void
Core::doLoad(const MemOp &op)
{
    const auto outcome = hier_->demandLoad(
        coreId_, op.addr, op.streamId, static_cast<Tick>(tickNow_));
    cnt_.instructions += 1;
    ++uopIdx_;
    if (outcome.immediate)
        return;

    const double completion = static_cast<double>(outcome.readyAt);
    loads_.push_back({completion, uopIdx_, outcome.tag});
    nextDone_ = std::min(nextDone_, completion);

    if (op.dependent) {
        // The next address needs this data: serialize.
        stallOnLoads(static_cast<double>(outcome.readyAt));
        return;
    }

    // MLP limit: the LFB bounds outstanding L1 misses.
    while (loads_.size() >= profile_.lfbEntries)
        stallOnLoads(nextDone_);
    // ROB limit: cannot run further ahead of the oldest miss.
    while (!loads_.empty() &&
           uopIdx_ - loads_.front().uopIdx >= profile_.robSize) {
        stallOnLoads(loads_.front().completion);
    }
}

void
Core::doStore(const MemOp &op)
{
    cnt_.instructions += 1;
    ++uopIdx_;
    purgeStores();
    if (storeBuf_.size() >= profile_.storeBufferEntries)
        stallOnStore(storeBuf_.front());
    const Tick done =
        hier_->storeRfo(coreId_, op.addr, static_cast<Tick>(tickNow_));
    storeBuf_.push_back(static_cast<double>(done));
}

bool
Core::step()
{
    if (done_)
        return false;
    Block b;
    if (!kernel_->next(&b)) {
        // Drain: retire all outstanding loads and stores.
        while (!loads_.empty())
            stallOnLoads(nextDone_);
        if (!storeBuf_.empty())
            stallOnStore(storeBuf_.back());
        done_ = true;
        return false;
    }

    execute(b);
    for (unsigned i = 0; i < b.nOps; ++i) {
        if (b.ops[i].isStore)
            doStore(b.ops[i]);
        else
            doLoad(b.ops[i]);
    }
    return true;
}

}  // namespace cxlsim::cpu
