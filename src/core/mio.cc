#include "mio.hh"

#include <algorithm>
#include <vector>

#include "cpu/hierarchy.hh"
#include "sim/rng.hh"
#include "sim/tournament_tree.hh"

namespace melody {

using namespace cxlsim;

namespace {

constexpr std::uint64_t kChaseRegion = 256ULL << 20;  // > LLC
constexpr std::uint64_t kNoiseRegion = 64ULL << 20;

struct Agent
{
    Tick nextIssue = 0;
    Addr base = 0;
    std::uint64_t spanLines = 0;
    Addr cursor = 0;
    bool chase = false;
    unsigned rwPhase = 0;
    std::uint64_t remaining = 0;
};

}  // namespace

MioResult
mioChaseDirect(mem::MemoryBackend *backend, unsigned threads,
               std::uint64_t samples_per_thread, const MioNoise &noise,
               double peak_gbps, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Agent> agents;

    Addr nextBase = 0;
    for (unsigned t = 0; t < threads; ++t) {
        Agent a;
        a.base = nextBase;
        nextBase += kChaseRegion;
        a.spanLines = kChaseRegion / kCacheLineBytes;
        a.chase = true;
        a.remaining = samples_per_thread;
        a.nextIssue = t;  // deterministic stagger
        agents.push_back(a);
    }
    const unsigned noiseSlots = noise.threads * noise.slotsPerThread;
    for (unsigned t = 0; t < noiseSlots; ++t) {
        Agent a;
        a.base = nextBase;
        nextBase += kNoiseRegion;
        a.spanLines = kNoiseRegion / kCacheLineBytes;
        a.cursor = a.base;
        a.chase = false;
        a.remaining = ~0ULL;
        a.nextIssue = rng.below(1000);
        a.rwPhase = static_cast<unsigned>(rng.below(100));
        agents.push_back(a);
    }

    // Chasers with no samples to take never issue, and noise stops
    // with the last chaser, so then nothing runs at all.
    MioResult res;
    std::uint64_t bytes = 0;
    Tick lastTick = 0;
    std::uint64_t liveChasers = samples_per_thread ? threads : 0;
    TournamentTree next(agents.size());
    for (std::size_t i = 0; i < agents.size(); ++i)
        next.set(i, agents[i].nextIssue);
    const Tick pace = nsToTicks(noise.paceNs);

    while (liveChasers > 0) {
        const std::size_t best = next.top();
        Agent &a = agents[best];
        const Tick issue = a.nextIssue;

        Addr addr;
        bool isWrite = false;
        if (a.chase) {
            addr = a.base +
                   rng.below(a.spanLines) * kCacheLineBytes;
        } else {
            addr = a.cursor;
            a.cursor += kCacheLineBytes;
            if (a.cursor >= a.base + a.spanLines * kCacheLineBytes)
                a.cursor = a.base;
            a.rwPhase = (a.rwPhase + 1) % 100;
            isWrite = a.rwPhase >=
                      static_cast<unsigned>(noise.readFrac * 100.0);
        }

        const Tick done = backend->access(
            addr,
            isWrite ? mem::ReqType::kWriteback
                    : mem::ReqType::kDemandLoad,
            issue);
        bytes += kCacheLineBytes;
        lastTick = std::max(lastTick, done);

        if (a.chase) {
            res.latencyNs.record(ticksToNs(done - issue));
            // Dependent: next pointer known only after the load.
            a.nextIssue = done + nsToTicks(2.0);
            if (--a.remaining == 0) {
                --liveChasers;
                next.retire(best);
                continue;
            }
        } else {
            a.nextIssue = done + pace;
        }
        next.set(best, a.nextIssue);
    }

    const double secs =
        static_cast<double>(lastTick) /
        static_cast<double>(kTicksPerSec);
    res.gbps = secs > 0 ? static_cast<double>(bytes) / 1e9 / secs : 0;
    res.utilization = peak_gbps > 0 ? res.gbps / peak_gbps : 0.0;
    return res;
}

MioResult
mioChaseViaCpu(const cpu::CpuProfile &profile,
               mem::MemoryBackend *backend, unsigned threads,
               std::uint64_t samples_per_thread, bool prefetchers_on)
{
    cpu::MemoryHierarchy hier(profile, threads, backend,
                              prefetchers_on);
    MioResult res;

    struct Chaser
    {
        Tick now = 0;
        Addr cursor = 0;
        std::uint64_t remaining = 0;
    };
    std::vector<Chaser> chasers(threads);
    for (unsigned t = 0; t < threads; ++t) {
        chasers[t].cursor = static_cast<Addr>(t) * kChaseRegion;
        chasers[t].remaining = samples_per_thread;
        chasers[t].now = t;
    }

    std::uint64_t live = samples_per_thread ? threads : 0;
    TournamentTree next(threads);
    for (unsigned t = 0; t < threads; ++t)
        next.set(t, chasers[t].now);
    std::uint64_t bytes = 0;
    Tick lastTick = 0;
    while (live > 0) {
        const std::size_t best = next.top();
        Chaser &c = chasers[best];
        // Sequential pointer layout: the next pointer lives in the
        // next line, so the stride prefetcher can run ahead.
        const auto out = hier.demandLoad(
            static_cast<unsigned>(best), c.cursor,
            /*stream_id=*/static_cast<unsigned>(best), c.now);
        const Tick done = out.immediate ? c.now : out.readyAt;
        res.latencyNs.record(ticksToNs(done - c.now));
        bytes += kCacheLineBytes;
        lastTick = std::max(lastTick, done);
        c.cursor += kCacheLineBytes;
        c.now = done + nsToTicks(2.0);
        if (--c.remaining == 0) {
            --live;
            next.retire(best);
        } else {
            next.set(best, c.now);
        }
    }

    const double secs =
        static_cast<double>(lastTick) /
        static_cast<double>(kTicksPerSec);
    res.gbps = secs > 0 ? static_cast<double>(bytes) / 1e9 / secs : 0;
    return res;
}

}  // namespace melody
