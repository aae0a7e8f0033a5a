/**
 * @file
 * Pooling bench: noisy-neighbour interference on a multi-headed
 * CXL pool (the paper's pooling use case + Recommendation #1:
 * predictable latency is crucial for QoS in the cloud).
 *
 * Tenant A runs a latency-critical pointer chase on head 0;
 * tenant B drives increasing streaming load on head 1. We report
 * A's p50/p99.9 latency under each arbitration policy.
 */

#include "bench/common.hh"
#include "bench/figures.hh"
#include "cxl/pool.hh"
#include "sim/rng.hh"
#include "stats/histogram.hh"

using namespace cxlsim;
using namespace cxlsim::cxl;

namespace {

struct Result
{
    double p50;
    double p999;
    double victimGbps;
    double bullyGbps;
};

Result
runScenario(PoolArbitration policy, double bully_pace_ns,
            std::uint64_t seed)
{
    DeviceProfile prof = cxlB();
    prof.linkCfg.gbpsPerDir = 64.0;  // fat heads; shared 26GB/s
    prof.queueCapacity = 48;         // scheduler is the bottleneck
    PooledCxlDevice pool(prof, 2, policy, seed);
    Rng rng(seed);
    stats::Histogram lat(1, 1e7, 64);

    // Tenant A: closed-loop dependent chase on head 0.
    // Tenant B: 16 streaming slots on head 1, paced.
    constexpr unsigned kSlots = 256;
    Tick aNext = 0;
    Tick bNext[kSlots];
    Addr bCur[kSlots];
    for (unsigned i = 0; i < kSlots; ++i) {
        bNext[i] = i;
        bCur[i] = (static_cast<Addr>(i) + 1) << 28;
    }
    std::uint64_t aOps = 0, bOps = 0;
    const std::uint64_t target = 30000;
    Tick last = 0;
    while (aOps < target) {
        // Pick the earliest actor.
        unsigned bBest = 0;
        for (unsigned i = 1; i < kSlots; ++i)
            if (bNext[i] < bNext[bBest])
                bBest = i;
        if (aNext <= bNext[bBest]) {
            const Addr addr =
                rng.below(1 << 21) * kCacheLineBytes;
            const Tick done = pool.read(0, addr, aNext);
            lat.record(ticksToNs(done - aNext));
            aNext = done + nsToTicks(2);
            last = std::max(last, done);
            ++aOps;
        } else {
            // Respect credit availability: defer (not queue) when
            // the head is out of credits, like a real host bridge.
            const Tick adm =
                pool.earliestAdmission(1, bNext[bBest]);
            if (adm > bNext[bBest]) {
                bNext[bBest] = adm;
                continue;
            }
            const Tick done =
                pool.read(1, bCur[bBest], bNext[bBest]);
            bCur[bBest] += kCacheLineBytes;
            bNext[bBest] = done + nsToTicks(bully_pace_ns);
            last = std::max(last, done);
            ++bOps;
        }
    }
    Result r;
    r.p50 = lat.percentile(0.5);
    r.p999 = lat.percentile(0.999);
    const double secs = ticksToNs(last) * 1e-9;
    r.victimGbps = aOps * 64.0 / 1e9 / secs;
    r.bullyGbps = bOps * 64.0 / 1e9 / secs;
    return r;
}

const char *
policyName(PoolArbitration p)
{
    switch (p) {
      case PoolArbitration::kNone:
        return "none(FCFS)";
      case PoolArbitration::kRoundRobin:
        return "round-robin";
      default:
        return "weighted";
    }
}

}  // namespace

namespace figs {

void
buildPoolingInterference(sweep::Sweep &S)
{
    S.text(bench::headerText(
        "Pooling", "Noisy-neighbour QoS on a multi-headed CXL pool"));

    S.textf("%-12s %12s %10s %10s %12s\n", "policy", "bullyLoad",
            "A p50(ns)", "A p99.9", "bully GB/s");
    for (auto policy :
         {PoolArbitration::kNone, PoolArbitration::kRoundRobin,
          PoolArbitration::kWeighted}) {
        for (double pace : {100000.0, 500.0, 50.0, 0.0}) {
            S.point(std::string("scenario|") + policyName(policy) +
                        "|pace=" + stats::Table::num(pace, 0) +
                        "|seed=77",
                    [policy, pace](sweep::Emit &out) {
                        const auto r = runScenario(policy, pace, 77);
                        out.printf(
                            "%-12s %11.0fns %10.0f %10.0f "
                            "%12.2f\n",
                            policyName(policy), pace, r.p50, r.p999,
                            r.bullyGbps);
                    });
        }
    }
    S.text("\nTwo findings: (1) a streaming neighbour inflates "
           "the latency tenant's p99.9 ~3x even though the "
           "device is NOT saturated — the load-coupled hiccup "
           "behaviour of Finding #1 surfacing as cross-tenant "
           "interference; (2) credit-based fair sharing bounds "
           "the bully's queue occupancy (and throughput) — the "
           "QoS knob Recommendation #1 asks CXL controllers "
           "to expose.\n");
}

}  // namespace figs
