/**
 * @file
 * Tests for the Melody framework layer: platforms, the MLC-style
 * loaded-latency probe, the MIO latency sampler and the slowdown
 * runner — including the paper's qualitative findings.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/mio.hh"
#include "core/mlc.hh"
#include "core/platform.hh"
#include "core/slowdown.hh"
#include "mem/backend.hh"
#include "sim/logging.hh"
#include "workloads/suite.hh"

using namespace cxlsim;
using melody::Platform;

TEST(Platform, NamesAndCpuMapping)
{
    Platform p("EMR2S", "CXL-A");
    EXPECT_EQ(p.displayName(), "EMR:CXL-A");
    EXPECT_EQ(p.cpu().name, "EMR");
    Platform s("SKX8S", "NUMA-410ns");
    EXPECT_EQ(s.cpu().name, "SKX8S");
    EXPECT_NEAR(s.cpu().freqGhz, 2.5, 1e-9);
}

TEST(Platform, AllSetupsConstructBackends)
{
    const char *mems[] = {"Local",        "NUMA",
                          "CXL-A",        "CXL-B",
                          "CXL-C",        "CXL-D",
                          "CXL-A+NUMA",   "CXL-A+Switch",
                          "CXL-B+Switch2", "CXL-Dx2"};
    for (const char *m : mems) {
        Platform p("EMR2S", m);
        auto be = p.makeBackend(1);
        ASSERT_NE(be, nullptr) << m;
        const Tick done = be->access(0, mem::ReqType::kDemandLoad, 0);
        EXPECT_GT(done, 0u) << m;
    }
}

TEST(Mlc, BandwidthRisesAsDelayShrinks)
{
    Platform p("EMR2S", "CXL-A");
    melody::MlcConfig cfg;
    cfg.windowUs = 150;
    cfg.warmupUs = 40;
    const auto pts = melody::mlcSweep(
        [&] { return p.makeBackend(3); }, cfg, {20000, 2000, 200, 0});
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_LT(pts.front().gbps, pts.back().gbps);
    for (const auto &pt : pts)
        EXPECT_GT(pt.samples, 0u);
}

TEST(Mlc, LatencyRisesNearSaturation)
{
    Platform p("EMR2S", "CXL-B");
    auto be = p.makeBackend(5);
    melody::MlcConfig cfg;
    cfg.windowUs = 150;
    cfg.warmupUs = 40;
    cfg.delayCycles = 20000;
    const auto idle = melody::mlcMeasure(be.get(), cfg);
    auto be2 = p.makeBackend(5);
    cfg.delayCycles = 0;
    const auto loaded = melody::mlcMeasure(be2.get(), cfg);
    EXPECT_GT(loaded.avgNs, idle.avgNs * 1.5);
    // Saturated CXL devices reach us-level latencies (Fig 3a).
    EXPECT_GT(loaded.avgNs, 600.0);
}

TEST(Mlc, StandardDelayLadderDescends)
{
    const auto d = melody::mlcStandardDelays();
    ASSERT_GT(d.size(), 5u);
    for (std::size_t i = 1; i < d.size(); ++i)
        EXPECT_LT(d[i], d[i - 1]);
    EXPECT_EQ(d.back(), 0.0);
}

TEST(Mio, RecordsRequestedSamples)
{
    Platform p("EMR2S", "Local");
    auto be = p.makeBackend(7);
    const auto res = melody::mioChaseDirect(be.get(), 2, 3000);
    EXPECT_EQ(res.latencyNs.count(), 2u * 3000u);
    EXPECT_GT(res.gbps, 0.0);
}

TEST(Mio, MoreThreadsRaiseCxlTails)
{
    // Figure 3b: CXL tail latencies grow with co-located chasers.
    Platform p("EMR2S", "CXL-B");
    auto b1 = p.makeBackend(9);
    auto b32 = p.makeBackend(9);
    const auto r1 = melody::mioChaseDirect(b1.get(), 1, 8000);
    const auto r32 = melody::mioChaseDirect(b32.get(), 16, 2000);
    EXPECT_GT(r32.latencyNs.percentile(0.999),
              r1.latencyNs.percentile(0.999));
}

TEST(Mio, NoiseThreadsWorsenTails)
{
    // Figure 4: read/write background traffic inflates CXL tails.
    Platform p("EMR2S", "CXL-A");
    auto quiet = p.makeBackend(11);
    auto noisy = p.makeBackend(11);
    const auto rq = melody::mioChaseDirect(quiet.get(), 1, 6000);
    melody::MioNoise noise;
    noise.threads = 7;
    noise.readFrac = 0.5;
    noise.paceNs = 120.0;
    const auto rn =
        melody::mioChaseDirect(noisy.get(), 1, 6000, noise);
    EXPECT_GT(rn.latencyNs.percentile(0.999),
              rq.latencyNs.percentile(0.999) * 1.2);
    EXPECT_GT(rn.gbps, rq.gbps);
}

TEST(Mio, CpuPrefetchersHideSequentialChaseLatency)
{
    // Figure 6: through the CPU with prefetchers on, a
    // sequential-layout chase sees far lower latencies than the
    // device latency...
    Platform p("EMR2S", "CXL-B");
    auto beOn = p.makeBackend(13);
    const auto on = melody::mioChaseViaCpu(p.cpu(), beOn.get(), 2,
                                           20000, true);
    auto beOff = p.makeBackend(13);
    const auto off = melody::mioChaseViaCpu(p.cpu(), beOff.get(), 2,
                                            20000, false);
    EXPECT_LT(on.latencyNs.mean(), off.latencyNs.mean() * 0.5);
    // ...but prefetching does NOT eliminate the tails.
    EXPECT_GT(on.latencyNs.percentile(0.9999), 150.0);
}

TEST(Slowdown, LocalBaselineIsFaster)
{
    workloads::WorkloadProfile w = workloads::byName("605.mcf_s");
    w.blocksPerCore = 30000;
    Platform local("EMR2S", "Local");
    Platform cxl("EMR2S", "CXL-B");
    const auto b = melody::runWorkload(w, local, 15);
    const auto t = melody::runWorkload(w, cxl, 15);
    EXPECT_GT(melody::slowdownPct(b, t), 5.0);
    EXPECT_EQ(melody::slowdownPct(b, b), 0.0);
}

TEST(Slowdown, StudyCachesBaselines)
{
    melody::SlowdownStudy study(77);
    workloads::WorkloadProfile w = workloads::byName("pts-openssl");
    const auto &b1 = study.baseline(w, "EMR2S");
    const auto &b2 = study.baseline(w, "EMR2S");
    EXPECT_EQ(&b1, &b2);  // memoized
    const double s = study.slowdown(w, "EMR2S", "CXL-A");
    EXPECT_GT(s, -5.0);
    EXPECT_LT(s, 100.0);
}

TEST(Slowdown, ProfilesThatDifferOnlyInPhasesGetTwoBaselines)
{
    // Fig. 8d's scaled variants share name, length and threads.
    workloads::WorkloadProfile full =
        workloads::byName("520.omnetpp_r");
    full.blocksPerCore = 20000;
    full.phases = {{1.0, 1.0, 1.0, 1.0}};
    workloads::WorkloadProfile light = full;
    light.phases[0].intensity = 0.25;

    melody::SlowdownStudy study(4242);
    const cpu::RunResult &a = study.baseline(full, "EMR2S");
    const cpu::RunResult &b = study.baseline(light, "EMR2S");
    EXPECT_NE(&a, &b);
    EXPECT_NE(a.wallTicks, b.wallTicks);
    EXPECT_EQ(&study.baseline(full, "EMR2S"), &a);
    // Each is the baseline a study asked for that profile alone
    // computes, whatever was asked first.
    melody::SlowdownStudy fresh(4242);
    EXPECT_EQ(fresh.baseline(light, "EMR2S").wallTicks, b.wallTicks);
}

TEST(Slowdown, SuperLinearInLatency)
{
    // Finding #2: slowdown grows super-linearly with latency; at
    // minimum it must grow monotonically across the 140-410ns span.
    workloads::WorkloadProfile w =
        workloads::byName("ubench-chase-4096m-i17");
    w.blocksPerCore = 25000;
    melody::SlowdownStudy study(79);
    const double s140 = study.slowdown(w, "SKX2S", "NUMA-140ns");
    const double s410 = study.slowdown(w, "SKX8S", "NUMA-410ns");
    EXPECT_GT(s410, s140 * 1.5);
}

TEST(Slowdown, CxlNumaAnomaly)
{
    // §4 Fig 8c/d: CXL+NUMA is far worse than its average latency
    // suggests, due to congestion-episode tails.
    workloads::WorkloadProfile w =
        workloads::byName("520.omnetpp_r");
    w.blocksPerCore = 60000;
    melody::SlowdownStudy study(81);
    const double sCxl = study.slowdown(w, "EMR2S", "CXL-A");
    const double sCxlNuma =
        study.slowdown(w, "EMR2S", "CXL-A+NUMA");
    EXPECT_GT(sCxlNuma, sCxl * 3.0);
    EXPECT_GT(sCxlNuma, 60.0);
}

TEST(Slowdown, BandwidthBoundSufferMostOnWeakDevices)
{
    workloads::WorkloadProfile w = workloads::byName("603.bwaves_s");
    w.blocksPerCore = 15000;
    melody::SlowdownStudy study(83);
    const double sB = study.slowdown(w, "EMR2S", "CXL-B");
    const double sD = study.slowdown(w, "EMR2S", "CXL-D");
    // CXL-D's bandwidth advantage shows exactly here (Fig 8b/f).
    EXPECT_GT(sB, sD * 1.5);
    EXPECT_GT(sB, 150.0);  // the 1.5-5.8x tail
}

TEST(Mlc, WriteFractionMatchesConfig)
{
    Platform p("EMR2S", "Local");
    auto be = p.makeBackend(21);
    melody::MlcConfig cfg;
    cfg.readFrac = 0.75;
    cfg.delayCycles = 500;
    cfg.windowUs = 100;
    cfg.warmupUs = 20;
    cfg.latencyThread = false;
    melody::mlcMeasure(be.get(), cfg);
    const auto &st = be->stats();
    const double writeFrac =
        static_cast<double>(st.writes) /
        static_cast<double>(st.requests());
    EXPECT_NEAR(writeFrac, 0.25, 0.03);
}

namespace {

/**
 * Backend whose completions land on a coarse grid, so many MLC
 * slots become ready on the same tick, recording every issue as
 * (tick, slot). The slot is recoverable from the address because
 * each slot walks its own regionBytes-sized region in order.
 */
class GridBackend : public mem::MemoryBackend
{
  public:
    GridBackend(Tick grid, std::uint64_t regionBytes)
        : grid_(grid), regionBytes_(regionBytes)
    {}

    mem::AccessResult
    accessEx(Addr addr, mem::ReqType type, Tick now) override
    {
        note(type);
        issues.emplace_back(now, addr / regionBytes_);
        return {completion(now), ras::Status::kOk};
    }

    Tick completion(Tick now) const { return (now / grid_ + 2) * grid_; }

    const std::string &name() const override { return name_; }

    std::vector<std::pair<Tick, std::uint64_t>> issues;

  private:
    Tick grid_;
    std::uint64_t regionBytes_;
    std::string name_ = "grid";
};

melody::MlcConfig
gridConfig()
{
    melody::MlcConfig cfg;
    cfg.trafficThreads = 4;
    cfg.slotsPerThread = 8;
    cfg.regionBytes = 1ULL << 20;
    cfg.delayCycles = 0;
    cfg.warmupUs = 0.5;
    cfg.windowUs = 2.0;
    return cfg;
}

}  // namespace

TEST(Mlc, IssuesEarliestSlotFirstAndBreaksTiesByLowestIndex)
{
    const melody::MlcConfig cfg = gridConfig();
    GridBackend be(nsToTicks(50.0), cfg.regionBytes);
    melody::mlcMeasure(&be, cfg);

    // Every slot (32 traffic + the chase) took part.
    std::set<std::uint64_t> slots;
    for (const auto &is : be.issues)
        slots.insert(is.second);
    EXPECT_EQ(slots.size(), 33u);
    // Strictly increasing (tick, slot): time order first, and on a
    // shared tick the lowest slot index goes first, as a linear
    // scan for the minimum would choose.
    std::size_t ties = 0;
    for (std::size_t i = 1; i < be.issues.size(); ++i) {
        ASSERT_LT(be.issues[i - 1], be.issues[i]) << "issue #" << i;
        ties += be.issues[i - 1].first == be.issues[i].first;
    }
    // The grid makes ties the common case, so the rule above was
    // really exercised.
    EXPECT_GT(ties, be.issues.size() / 2);
}

TEST(Mlc, DrainsEverySlotUpToTheWindowEnd)
{
    const melody::MlcConfig cfg = gridConfig();
    GridBackend be(nsToTicks(50.0), cfg.regionBytes);
    const melody::MlcPoint p = melody::mlcMeasure(&be, cfg);
    const Tick end = usToTicks(cfg.warmupUs + cfg.windowUs);
    const std::uint64_t chase = cfg.trafficThreads * cfg.slotsPerThread;

    // No issue at or past the window end, and no slot stopped
    // while it could still issue inside the window: each slot's
    // next issue after its last one falls at or past the end.
    std::map<std::uint64_t, Tick> last;
    for (const auto &is : be.issues) {
        ASSERT_LT(is.first, end);
        last[is.second] = is.first;
    }
    ASSERT_EQ(last.size(), 33u);
    for (const auto &[slot, tick] : last) {
        const Tick next = be.completion(tick) +
                          (slot == chase ? nsToTicks(2.0) : 0);
        EXPECT_GE(next, end) << "slot " << slot;
    }
    // Chase samples are exactly its issues inside the window.
    std::uint64_t measured = 0;
    for (const auto &is : be.issues)
        measured += is.second == chase &&
                    is.first >= usToTicks(cfg.warmupUs);
    EXPECT_EQ(p.samples, measured);
}

TEST(Mlc, NoSlotsIssueNothing)
{
    melody::MlcConfig cfg = gridConfig();
    cfg.trafficThreads = 0;
    cfg.latencyThread = false;
    GridBackend be(nsToTicks(50.0), cfg.regionBytes);
    const melody::MlcPoint p = melody::mlcMeasure(&be, cfg);
    EXPECT_TRUE(be.issues.empty());
    EXPECT_EQ(p.samples, 0u);
    EXPECT_EQ(p.gbps, 0.0);
    EXPECT_EQ(p.avgNs, 0.0);
}

TEST(Mio, IssuesEarliestAgentFirstAndBreaksTiesByLowestIndex)
{
    // Chaser t walks [256t, 256t + 256) MB and noise slot k the
    // 64 MB after every chaser's, so a 64 MB region names its agent.
    constexpr std::uint64_t kRegion = 64ULL << 20;
    constexpr unsigned kChasers = 3;
    const auto agent = [](std::uint64_t region) {
        return region < 4 * kChasers ? region / 4
                                     : kChasers + region - 4 * kChasers;
    };
    melody::MioNoise noise;
    noise.threads = 2;
    noise.slotsPerThread = 4;
    GridBackend be(nsToTicks(50.0), kRegion);
    const auto r = melody::mioChaseDirect(&be, kChasers, 300, noise);
    EXPECT_EQ(r.latencyNs.count(), kChasers * 300u);

    std::set<std::uint64_t> agents;
    std::size_t ties = 0;
    for (std::size_t i = 0; i < be.issues.size(); ++i) {
        agents.insert(agent(be.issues[i].second));
        if (i == 0)
            continue;
        const std::pair<Tick, std::uint64_t> prev{
            be.issues[i - 1].first, agent(be.issues[i - 1].second)};
        const std::pair<Tick, std::uint64_t> cur{
            be.issues[i].first, agent(be.issues[i].second)};
        ASSERT_LT(prev, cur) << "issue #" << i;
        ties += prev.first == cur.first;
    }
    EXPECT_EQ(agents.size(), kChasers + 8u);
    EXPECT_GT(ties, be.issues.size() / 2);
}

TEST(Mio, CpuChaseIssuesEarliestChaserFirstAndBreaksTiesByLowestIndex)
{
    // Prefetchers off, every load of the sequential chase misses
    // to the backend at the chaser's own tick; chaser t walks its
    // own 256 MB region.
    Platform p("EMR2S", "Local");
    GridBackend be(nsToTicks(50.0), 256ULL << 20);
    const auto r = melody::mioChaseViaCpu(p.cpu(), &be, 5, 200, false);
    EXPECT_EQ(r.latencyNs.count(), 5 * 200u);
    ASSERT_EQ(be.issues.size(), 5 * 200u);
    std::size_t ties = 0;
    for (std::size_t i = 1; i < be.issues.size(); ++i) {
        ASSERT_LT(be.issues[i - 1], be.issues[i]) << "issue #" << i;
        ties += be.issues[i - 1].first == be.issues[i].first;
    }
    EXPECT_GT(ties, be.issues.size() / 2);
}

TEST(Mio, NoSamplesIssueNothing)
{
    // With no noise and with noise that would run until the last
    // chaser is done: nothing is issued either way.
    melody::MioNoise noise;
    noise.threads = 2;
    GridBackend be(nsToTicks(50.0), 64ULL << 20);
    for (const melody::MioNoise &n : {melody::MioNoise{}, noise}) {
        const auto r = melody::mioChaseDirect(&be, 4, 0, n);
        EXPECT_EQ(r.latencyNs.count(), 0u);
        EXPECT_EQ(r.gbps, 0.0);
    }
    Platform p("EMR2S", "Local");
    const auto r = melody::mioChaseViaCpu(p.cpu(), &be, 2, 0, true);
    EXPECT_EQ(r.latencyNs.count(), 0u);
    EXPECT_TRUE(be.issues.empty());
}

TEST(Mio, UtilizationAgainstPeak)
{
    Platform p("EMR2S", "CXL-A");
    auto be = p.makeBackend(23);
    melody::MioNoise noise;
    noise.threads = 16;
    noise.slotsPerThread = 8;
    noise.paceNs = 0.0;
    const auto r =
        melody::mioChaseDirect(be.get(), 1, 8000, noise, 32.0);
    EXPECT_GT(r.utilization, 0.3);
    EXPECT_LE(r.utilization, 1.1);
}

TEST(PlatformDeath, UnknownServerThrows)
{
    EXPECT_THROW(Platform("XEON9000", "Local"),
                 cxlsim::ConfigError);
}

TEST(PlatformDeath, UnknownMemoryThrows)
{
    Platform p("EMR2S", "DDR9");
    EXPECT_THROW(p.makeBackend(1), cxlsim::ConfigError);
}

TEST(SuiteDeath, UnknownWorkloadThrows)
{
    EXPECT_THROW(workloads::byName("586.quake_r"),
                 cxlsim::ConfigError);
}
