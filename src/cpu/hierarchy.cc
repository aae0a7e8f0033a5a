#include "hierarchy.hh"

#include <algorithm>
#include <string>

#include "sim/invariants.hh"
#include "sim/logging.hh"

namespace cxlsim::cpu {

MemoryHierarchy::PerCore::PerCore(const CpuProfile &p)
    : l1(p.l1.sizeBytes, p.l1.ways), l2(p.l2.sizeBytes, p.l2.ways),
      l1pf(p.l1pf), l2pf(p.l2pf)
{
    l1pfCands.reserve(64);
    l2pfCands.reserve(64);
}

MemoryHierarchy::MemoryHierarchy(const CpuProfile &profile,
                                 unsigned cores,
                                 mem::MemoryBackend *backend,
                                 bool prefetchers_on)
    : profile_(profile),
      tickPerCycle_(ticksPerCycle(profile.freqGhz)),
      prefetchersOn_(prefetchers_on), backend_(backend),
      l3_(profile.l3.sizeBytes, profile.l3.ways)
{
    for (unsigned c = 0; c < cores; ++c)
        percore_.push_back(std::make_unique<PerCore>(profile));
}

void
MemoryHierarchy::purge(std::priority_queue<Tick, std::vector<Tick>,
                                           std::greater<>> *q,
                       Tick now)
{
    while (!q->empty() && q->top() <= now)
        q->pop();
}

void
MemoryHierarchy::handleEviction(PerCore *pc, unsigned from_level,
                                const Eviction &ev, Tick now)
{
    if (!ev.valid || !ev.dirty)
        return;
    if (from_level == 3) {
        // LLC victim: write back to memory (fire and forget — the
        // write occupies backend bandwidth but nothing waits on it).
        (void)backend_->access(ev.lineAddr, mem::ReqType::kWriteback,
                               now);
        ++pc->pf.writebacks;
        return;
    }
    // L1/L2 victim: merge the dirty data into the next level.
    Cache &next = from_level == 1 ? pc->l2 : l3_;
    if (next.contains(ev.lineAddr)) {
        next.markDirty(ev.lineAddr);
        return;
    }
    const Eviction cascade =
        next.insert(ev.lineAddr, now,
                    from_level == 1 ? StallTag::kL2 : StallTag::kL3,
                    /*dirty=*/true);
    handleEviction(pc, from_level + 1, cascade, now);
}

void
MemoryHierarchy::preload(const std::vector<LineRange> &ranges)
{
    SIM_ASSERT(ranges.size() == percore_.size(),
               "preload needs one range per core");
    // Resident, clean, ready: nothing to write back.
    for (std::size_t c = 0; c < ranges.size(); ++c)
        percore_[c]->l2.fill({&ranges[c], 1}, StallTag::kL2);
    l3_.fill(ranges, StallTag::kL3);
}

LoadOutcome
MemoryHierarchy::demandLoad(unsigned core, Addr addr,
                            unsigned stream_id, Tick now)
{
    PerCore &pc = *percore_[core];
    const Addr line = lineAlign(addr);
    LoadOutcome out{now, StallTag::kL1, true};

    Tick ready = 0;
    StallTag home = StallTag::kDram;
    const LookupResult r1 = pc.l1.lookup(line, now, &ready, &home);
    if (r1 == LookupResult::kHit) {
        // Ready L1 hit: no stall.
        if (prefetchersOn_)
            runL1Prefetcher(pc, stream_id, line, now);
        return out;
    }
    if (r1 == LookupResult::kPending) {
        // Delayed L1 hit: wait for the in-flight fill.
        out = {ready, home, false};
        if (prefetchersOn_)
            runL1Prefetcher(pc, stream_id, line, now);
        return out;
    }

    // L1 miss: the L1 stride prefetcher reacts first (it sits
    // closest to the core); when the throttled L2 streamer has
    // fallen behind, the L1 prefetcher is what picks the stream
    // back up — the L2PF -> L1PF coverage transfer of Figure 12.
    if (prefetchersOn_)
        runL1Prefetcher(pc, stream_id, line, now);

    // Walk L2.
    const LookupResult r2 = pc.l2.lookup(line, now, &ready, &home);
    if (r2 == LookupResult::kHit) {
        const Tick at = now + cyclesToTicks(profile_.l2.latencyCycles);
        handleEviction(&pc, 1, pc.l1.insert(line, at, StallTag::kL2, false),
                       now);
        out = {at, StallTag::kL2, false};
    } else if (r2 == LookupResult::kPending) {
        // Hit on a pending fill (e.g. in-flight L2 streamer line):
        // the wait is charged to the level the prefetch homes at.
        const Tick at = ready + cyclesToTicks(profile_.l2.latencyCycles);
        handleEviction(&pc, 1, pc.l1.insert(line, at, home, false), now);
        out = {at, home, false};
    } else {
        // L2 miss: walk the LLC.
        const LookupResult r3 = l3_.lookup(line, now, &ready, &home);
        if (r3 == LookupResult::kHit) {
            const Tick at =
                now + cyclesToTicks(profile_.l3.latencyCycles);
            handleEviction(&pc, 2, pc.l2.insert(line, at, StallTag::kL3,
                                           false), now);
            handleEviction(&pc, 1, pc.l1.insert(line, at, StallTag::kL3,
                                           false), now);
            out = {at, StallTag::kL3, false};
        } else if (r3 == LookupResult::kPending) {
            const Tick at =
                ready + cyclesToTicks(profile_.l3.latencyCycles);
            handleEviction(&pc, 2, pc.l2.insert(line, at, home, false),
                           now);
            handleEviction(&pc, 1, pc.l1.insert(line, at, home, false),
                           now);
            out = {at, home, false};
        } else {
            // True miss: fetch from the memory backend.
            const Tick done =
                backend_->access(line, mem::ReqType::kDemandLoad, now);
            ++pc.pf.demandL3Miss;
            handleEviction(&pc, 3,
                           l3_.insert(line, done, StallTag::kDram, false),
                           now);
            handleEviction(&pc, 2,
                           pc.l2.insert(line, done, StallTag::kDram,
                                        false),
                           now);
            handleEviction(&pc, 1,
                           pc.l1.insert(line, done, StallTag::kDram,
                                        false),
                           now);
            out = {done, StallTag::kDram, false};
        }
        // The L2 streamer trains on L2-side demand traffic.
        if (prefetchersOn_)
            runL2Prefetcher(pc, line, now);
    }
    return out;
}

Tick
MemoryHierarchy::storeRfo(unsigned core, Addr addr, Tick now)
{
    PerCore &pc = *percore_[core];
    const Addr line = lineAlign(addr);

    Tick ready = 0;
    StallTag home = StallTag::kDram;
    const LookupResult r1 = pc.l1.lookup(line, now, &ready, &home);
    if (r1 == LookupResult::kHit) {
        pc.l1.markDirty(line);
        return now + cyclesToTicks(1.0);
    }
    if (r1 == LookupResult::kPending) {
        pc.l1.markDirty(line);
        return ready;
    }

    const LookupResult r2 = pc.l2.lookup(line, now, &ready, &home);
    if (r2 == LookupResult::kHit) {
        const Tick at = now + cyclesToTicks(profile_.l2.latencyCycles);
        handleEviction(&pc, 1, pc.l1.insert(line, at, StallTag::kL2, true),
                       now);
        return at;
    }
    if (r2 == LookupResult::kPending) {
        handleEviction(&pc, 1, pc.l1.insert(line, ready, home, true), now);
        return ready;
    }

    const LookupResult r3 = l3_.lookup(line, now, &ready, &home);
    if (r3 == LookupResult::kHit) {
        const Tick at = now + cyclesToTicks(profile_.l3.latencyCycles);
        handleEviction(&pc, 1, pc.l1.insert(line, at, StallTag::kL3, true),
                       now);
        return at;
    }
    if (r3 == LookupResult::kPending) {
        handleEviction(&pc, 1, pc.l1.insert(line, ready, home, true), now);
        return ready;
    }

    // The L2 streamer trains on RFO streams too (store streams are
    // prefetchable on real Intel cores).
    if (prefetchersOn_)
        runL2Prefetcher(pc, line, now);

    // RFO fetches ownership + data from memory.
    const Tick done = backend_->access(line, mem::ReqType::kRfo, now);
    ++pc.pf.rfoFetches;
    handleEviction(&pc, 3, l3_.insert(line, done, StallTag::kDram, false),
                   now);
    handleEviction(&pc, 1, pc.l1.insert(line, done, StallTag::kDram, true),
                   now);
    return done;
}

void
MemoryHierarchy::runL1Prefetcher(PerCore &pc, unsigned stream_id,
                                 Addr line, Tick now)
{
    pc.l1pf.observe(stream_id, line, &pc.l1pfCands);
    if (pc.l1pfCands.empty())
        return;
    purge(&pc.l1pfInflight, now);
    // The nested runL2Prefetcher calls below fill l2pfCands only.
    for (Addr target : pc.l1pfCands) {
        if (pc.l1pfInflight.size() >= profile_.l1pf.budget)
            break;
        if (pc.l1.contains(target))
            continue;
        ++pc.pf.l1pfIssued;

        Tick ready = 0;
        StallTag home = StallTag::kDram;
        LookupResult r2 = pc.l2.lookup(target, now, &ready, &home);
        if (r2 == LookupResult::kMiss) {
            // The L1 prefetch arrives at L2 like any other L2
            // access and trains the streamer; the streamer may
            // cover this very line (and far beyond it).
            runL2Prefetcher(pc, target, now);
            r2 = pc.l2.lookup(target, now, &ready, &home);
        }
        // The attribution home of the resulting L1 line: when the
        // L1 prefetch merely rides an in-flight deeper fill, a
        // demand load catching it is stalled by THAT level (the
        // LLC-homed streamer fill on SPR/EMR -> sL3); only lines
        // the L1 prefetcher itself fetches from memory are
        // L1-homed ("delayed L1 hits", Finding #4).
        Tick at;
        StallTag l1home = StallTag::kL1;
        if (r2 == LookupResult::kHit) {
            at = now + cyclesToTicks(profile_.l2.latencyCycles);
            l1home = StallTag::kL2;
        } else if (r2 == LookupResult::kPending) {
            at = ready;
            l1home = home;
        } else {
            const LookupResult r3 = l3_.lookup(target, now, &ready,
                                               &home);
            if (r3 == LookupResult::kHit) {
                at = now + cyclesToTicks(profile_.l3.latencyCycles);
                ++pc.pf.l1pfL3Hit;
                l1home = StallTag::kL3;
            } else if (r3 == LookupResult::kPending) {
                at = ready;
                l1home = home;
            } else {
                // L1 prefetch falls through to memory — the
                // "L1PF-L3-miss" population of Figure 12. The fill
                // also lands in L2 (via the superqueue), so the
                // streamer won't re-fetch the same line.
                at = backend_->access(target, mem::ReqType::kL1Prefetch,
                                      now);
                ++pc.pf.l1pfL3Miss;
                handleEviction(&pc, 2,
                               pc.l2.insert(target, at,
                                            StallTag::kL1, false),
                               now);
            }
        }
        handleEviction(&pc, 1,
                       pc.l1.insert(target, at, l1home, false),
                       now);
        pc.l1pfInflight.push(at);
    }
    if (sim::Invariants *inv = sim::currentInvariants())
        if (pc.l1pfInflight.size() > profile_.l1pf.budget)
            inv->record(
                "queue/pf-occupancy", "l1pfInflight",
                "size=" + std::to_string(pc.l1pfInflight.size()) +
                    " budget=" +
                    std::to_string(profile_.l1pf.budget));
}

void
MemoryHierarchy::runL2Prefetcher(PerCore &pc, Addr line, Tick now)
{
    purge(&pc.l2pfInflight, now);
    // Feedback throttling: when fills come back late (CXL-class
    // latencies), the streamer runs a shallower in-flight depth.
    constexpr double kRefLatNs = 230.0;
    const double scale = std::max(
        0.6,
        std::min(1.0, kRefLatNs / std::max(50.0, pc.l2pfLatEwmaNs)));
    const auto effBudget = std::max(
        2u, static_cast<unsigned>(profile_.l2pf.budget * scale));
    const unsigned budget =
        effBudget > static_cast<unsigned>(pc.l2pfInflight.size())
            ? effBudget -
                  static_cast<unsigned>(pc.l2pfInflight.size())
            : 0;
    pc.l2pf.observe(line, budget, &pc.l2pfCands);
    if (pc.l2pfCands.empty())
        return;
    for (Addr target : pc.l2pfCands) {
        if (pc.l2.contains(target))
            continue;
        Tick ready = 0;
        StallTag home = StallTag::kDram;
        const LookupResult r3 = l3_.lookup(target, now, &ready, &home);
        ++pc.pf.l2pfIssued;
        if (r3 == LookupResult::kHit) {
            ++pc.pf.l2pfL3Hit;
            if (!profile_.l2pfFillsL3) {
                const Tick at =
                    now + cyclesToTicks(profile_.l3.latencyCycles);
                handleEviction(&pc, 2, pc.l2.insert(target, at,
                                               StallTag::kL2, false),
                               now);
            }
            continue;
        }
        if (r3 == LookupResult::kPending)
            continue;  // already in flight
        // Fetch from memory — the "L2PF-L3-miss" population.
        const Tick at =
            backend_->access(target, mem::ReqType::kL2Prefetch, now);
        ++pc.pf.l2pfL3Miss;
        pc.l2pfLatEwmaNs = 0.05 * ticksToNs(at - now) +
                           0.95 * pc.l2pfLatEwmaNs;
        if (profile_.l2pfFillsL3) {
            handleEviction(&pc, 3, l3_.insert(target, at, StallTag::kL3,
                                         false), now);
        } else {
            handleEviction(&pc, 2, pc.l2.insert(target, at, StallTag::kL2,
                                           false), now);
        }
        pc.l2pfInflight.push(at);
    }
    // The feedback throttle never shrinks the depth below 2, so
    // occupancy is bounded by the larger of that floor and the
    // configured budget.
    if (sim::Invariants *inv = sim::currentInvariants())
        if (pc.l2pfInflight.size() >
            std::max(2u, profile_.l2pf.budget))
            inv->record(
                "queue/pf-occupancy", "l2pfInflight",
                "size=" + std::to_string(pc.l2pfInflight.size()) +
                    " budget=" +
                    std::to_string(profile_.l2pf.budget));
}

}  // namespace cxlsim::cpu
