#include "mlc.hh"

#include <functional>

#include "sim/rng.hh"
#include "sim/tournament_tree.hh"
#include "sim/types.hh"
#include "stats/streaming.hh"

namespace melody {

using namespace cxlsim;

namespace {

constexpr double kCycleNs = 1.0 / 2.1;  // pacing clock (2.1 GHz)

/** One issue slot: a self-repacing access chain. */
struct Slot
{
    Tick nextIssue;
    Addr cursor;
    Addr base;
    std::uint64_t span;
    bool chase;      ///< latency thread: dependent random chase
    unsigned rwPhase;
};

}  // namespace

MlcPoint
mlcMeasure(mem::MemoryBackend *backend, const MlcConfig &cfg)
{
    Rng rng(cfg.seed);
    const Tick delay = nsToTicks(cfg.delayCycles * kCycleNs);
    const Tick warmup = usToTicks(cfg.warmupUs);
    const Tick end = warmup + usToTicks(cfg.windowUs);

    // Build slots: traffic threads stream sequentially through
    // disjoint regions; the chase thread hops randomly.
    std::vector<Slot> slots;
    const unsigned nTraffic = cfg.trafficThreads * cfg.slotsPerThread;
    slots.reserve(nTraffic + 1);
    for (unsigned i = 0; i < nTraffic; ++i) {
        Slot s{};
        s.base = static_cast<Addr>(i) * cfg.regionBytes;
        s.span = cfg.regionBytes;
        s.cursor = s.base + rng.below(s.span / kCacheLineBytes) *
                                kCacheLineBytes;
        // Staggered start within one delay period.
        s.nextIssue = delay ? rng.below(delay + 1) : i;
        s.chase = false;
        s.rwPhase = static_cast<unsigned>(rng.below(100));
        slots.push_back(s);
    }
    int chaseIdx = -1;
    if (cfg.latencyThread) {
        Slot s{};
        s.base = static_cast<Addr>(nTraffic) * cfg.regionBytes;
        s.span = cfg.regionBytes;
        s.cursor = s.base;
        s.nextIssue = 0;
        s.chase = true;
        slots.push_back(s);
        chaseIdx = static_cast<int>(slots.size()) - 1;
    }

    stats::Histogram lat(1.0, 1e7, 64);
    stats::StreamingStats latAll;
    std::uint64_t bytes = 0;

    // Advance the earliest slot until the window closes; ties go
    // to the lowest slot index.
    TournamentTree next(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
        next.set(i, slots[i].nextIssue);
    while (!next.empty()) {
        const std::size_t best = next.top();
        Slot &s = slots[best];
        const Tick issue = s.nextIssue;
        if (issue >= end)
            break;

        bool isWrite = false;
        Addr addr;
        if (s.chase) {
            addr = s.base + rng.below(s.span / kCacheLineBytes) *
                                kCacheLineBytes;
        } else {
            addr = s.cursor;
            s.cursor += kCacheLineBytes;
            if (s.cursor >= s.base + s.span)
                s.cursor = s.base;
            s.rwPhase = (s.rwPhase + 1) % 100;
            isWrite = s.rwPhase >=
                      static_cast<unsigned>(cfg.readFrac * 100.0);
        }

        const Tick done = backend->access(
            addr,
            isWrite ? mem::ReqType::kWriteback
                    : mem::ReqType::kDemandLoad,
            issue);

        if (issue >= warmup) {
            bytes += kCacheLineBytes;
            if (s.chase) {
                const double ns = ticksToNs(done - issue);
                lat.record(ns);
                latAll.add(ns);
            }
        }
        // Closed-loop with injected delay: next access when this
        // one completes plus the pacing delay.
        s.nextIssue = done + delay;
        if (s.chase)
            s.nextIssue = done + nsToTicks(2.0);  // tiny compute
        next.set(best, s.nextIssue);
    }

    MlcPoint p;
    p.delayCycles = cfg.delayCycles;
    const double secs = static_cast<double>(end - warmup) /
                        static_cast<double>(kTicksPerSec);
    // Exclude the latency thread's own traffic from bandwidth.
    const std::uint64_t chaseBytes =
        chaseIdx >= 0 ? latAll.count() * kCacheLineBytes : 0;
    p.gbps = static_cast<double>(bytes - chaseBytes) / 1e9 / secs;
    p.avgNs = latAll.mean();
    p.p50Ns = lat.percentile(0.50);
    p.p999Ns = lat.percentile(0.999);
    p.p9999Ns = lat.percentile(0.9999);
    p.samples = latAll.count();
    return p;
}

std::vector<MlcPoint>
mlcSweep(const std::function<mem::BackendPtr()> &make_backend,
         MlcConfig cfg, const std::vector<double> &delays)
{
    std::vector<MlcPoint> out;
    out.reserve(delays.size());
    for (double d : delays) {
        cfg.delayCycles = d;
        const mem::BackendPtr backend = make_backend();
        out.push_back(mlcMeasure(backend.get(), cfg));
    }
    return out;
}

std::vector<double>
mlcStandardDelays()
{
    return {40000, 20000, 10000, 5000, 2500, 1200, 700,
            500,   300,   200,   120,  80,   40,   0};
}

}  // namespace melody
