/**
 * @file
 * Tests for the CXL device models and the memory backends,
 * including Table-1 calibration checks: each setup's idle latency
 * and peak bandwidth must land near the paper's measurements.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/mio.hh"
#include "core/mlc.hh"
#include "core/platform.hh"
#include "cxl/device.hh"
#include "cxl/device_profile.hh"
#include "mem/cxl_backend.hh"
#include "mem/interleaved_backend.hh"
#include "mem/jitter.hh"
#include "mem/local_backend.hh"
#include "mem/numa_backend.hh"
#include "mem/region_router.hh"
#include "mem/tiering_backend.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace cxlsim;
using namespace cxlsim::mem;

namespace {

/** Mean idle latency of a dependent chase on a backend, ns. */
double
idleLatencyNs(MemoryBackend *b, int n = 4000,
              std::uint64_t seed = 5)
{
    Rng r(seed);
    Tick now = 0;
    double sum = 0;
    for (int i = 0; i < n; ++i) {
        const Addr a = r.below(1 << 22) * kCacheLineBytes;
        const Tick done =
            b->access(a, ReqType::kDemandLoad, now);
        sum += ticksToNs(done - now);
        now = done + nsToTicks(2);
    }
    return sum / n;
}

/** A backend whose every access completes a fixed delay after its
 *  issue, recording what it was asked for. */
class ScriptedBackend : public MemoryBackend
{
  public:
    explicit ScriptedBackend(double latencyNs)
        : latency_(nsToTicks(latencyNs))
    {}

    Tick
    access(Addr addr, ReqType type, Tick now) override
    {
        note(type);
        seen.emplace_back(addr, now);
        return now + latency_;
    }

    const std::string &name() const override { return name_; }

    /** (address, issue tick) of every request, in order. */
    std::vector<std::pair<Addr, Tick>> seen;

  private:
    Tick latency_;
    std::string name_ = "scripted";
};

/** Make a ScriptedBackend, keeping a pointer to it for inspection
 *  after ownership moves into a composite backend. */
BackendPtr
scripted(double latencyNs, ScriptedBackend **out)
{
    auto b = std::make_unique<ScriptedBackend>(latencyNs);
    *out = b.get();
    return b;
}

}  // namespace

TEST(CxlProfiles, PresetsAreSane)
{
    for (const char *n : {"CXL-A", "CXL-B", "CXL-C", "CXL-D"}) {
        const auto p = cxl::profileByName(n);
        EXPECT_EQ(p.name, n);
        EXPECT_GT(p.linkCfg.gbpsPerDir, 0.0);
        EXPECT_GT(p.controllerNs, 0.0);
        EXPECT_GE(p.dramChannels, 1u);
        EXPECT_GT(p.schedPeakGBps(), 10.0);
    }
    EXPECT_TRUE(cxl::cxlC().halfDuplexLink);
    EXPECT_FALSE(cxl::cxlA().halfDuplexLink);
    // CXL-C's 16GB capacity is what limits the paper to 60
    // workloads on it.
    EXPECT_EQ(cxl::cxlC().capacityBytes, 16ULL << 30);
}

/** Table 1 calibration: idle latency per memory setup on EMR. */
struct CalPoint
{
    const char *memory;
    double latNs;   // Table 1 value
    double tolFrac;
};

class Table1Latency : public ::testing::TestWithParam<CalPoint>
{
};

TEST_P(Table1Latency, IdleLatencyMatchesTable1)
{
    const auto &cp = GetParam();
    melody::Platform plat("EMR2S", cp.memory);
    auto be = plat.makeBackend(11);
    const double lat = idleLatencyNs(be.get());
    EXPECT_NEAR(lat, cp.latNs, cp.latNs * cp.tolFrac)
        << cp.memory;
}

INSTANTIATE_TEST_SUITE_P(
    EmrSetups, Table1Latency,
    ::testing::Values(CalPoint{"Local", 111, 0.10},
                      CalPoint{"NUMA", 193, 0.10},
                      CalPoint{"CXL-A", 214, 0.08},
                      CalPoint{"CXL-B", 271, 0.08},
                      CalPoint{"CXL-C", 394, 0.08},
                      CalPoint{"CXL-D", 239, 0.08}));

TEST(Table1, ServerLocalLatencies)
{
    struct
    {
        const char *server;
        double lat;
    } rows[] = {{"SPR2S", 114},
                {"EMR2S", 111},
                {"EMR2S'", 117},
                {"SKX2S", 90},
                {"SKX8S", 81}};
    for (const auto &row : rows) {
        melody::Platform plat(row.server, "Local");
        auto be = plat.makeBackend(13);
        EXPECT_NEAR(idleLatencyNs(be.get()), row.lat, row.lat * 0.12)
            << row.server;
    }
}

TEST(Table1, EmulatedNumaLatencyPoints)
{
    struct
    {
        const char *server;
        const char *mem;
        double lat;
    } rows[] = {{"SKX2S", "NUMA-140ns", 140},
                {"SKX8S", "NUMA-410ns", 410}};
    for (const auto &row : rows) {
        melody::Platform plat(row.server, row.mem);
        auto be = plat.makeBackend(17);
        EXPECT_NEAR(idleLatencyNs(be.get()), row.lat, row.lat * 0.12)
            << row.mem;
    }
}

TEST(CxlDevice, PeakBandwidthOrdering)
{
    // Read-only peak bandwidth per device ~ Table 1 "BW" column.
    struct
    {
        const char *mem;
        double bw;
        double tol;
    } rows[] = {{"CXL-A", 24, 6},
                {"CXL-B", 22, 6},
                {"CXL-D", 52, 10}};
    for (const auto &row : rows) {
        melody::Platform plat("EMR2S", row.mem);
        auto be = plat.makeBackend(19);
        melody::MlcConfig cfg;
        cfg.readFrac = 1.0;
        cfg.delayCycles = 0;
        cfg.windowUs = 200;
        cfg.warmupUs = 50;
        const auto p = melody::mlcMeasure(be.get(), cfg);
        EXPECT_NEAR(p.gbps, row.bw, row.tol) << row.mem;
    }
}

TEST(CxlDevice, DuplexPeaksUnderMixedButFpgaPeaksReadOnly)
{
    // Finding #1e: ASIC devices peak under mixed read/write; the
    // FPGA device peaks read-only.
    for (const char *mem : {"CXL-A", "CXL-C"}) {
        melody::Platform plat("EMR2S", mem);
        melody::MlcConfig cfg;
        cfg.delayCycles = 0;
        cfg.windowUs = 200;
        cfg.warmupUs = 50;

        auto be1 = plat.makeBackend(23);
        cfg.readFrac = 1.0;
        const double readOnly = melody::mlcMeasure(be1.get(), cfg).gbps;

        auto be2 = plat.makeBackend(23);
        cfg.readFrac = 0.67;
        const double mixed = melody::mlcMeasure(be2.get(), cfg).gbps;

        if (std::string(mem) == "CXL-A")
            EXPECT_GT(mixed, readOnly * 1.1) << mem;
        else
            EXPECT_LT(mixed, readOnly * 0.9) << mem;
    }
}

TEST(CxlDevice, SwitchAddsLatency)
{
    melody::Platform direct("EMR2S", "CXL-A");
    melody::Platform sw("EMR2S", "CXL-A+Switch");
    melody::Platform sw2("EMR2S", "CXL-A+Switch2");
    auto b0 = direct.makeBackend(29);
    auto b1 = sw.makeBackend(29);
    auto b2 = sw2.makeBackend(29);
    const double l0 = idleLatencyNs(b0.get());
    const double l1 = idleLatencyNs(b1.get());
    const double l2 = idleLatencyNs(b2.get());
    EXPECT_GT(l1, l0 + 100);  // one switch: ~+180ns
    EXPECT_GT(l2, l1 + 100);  // two: "CXL + multi-hops"
}

TEST(CxlDevice, TailLatencyWorseThanLocal)
{
    // Finding #1b: CXL-B/C have large p99.9-p50 gaps even at low
    // load, unlike local DRAM.
    auto run = [](const char *mem) {
        melody::Platform plat("EMR2S", mem);
        auto be = plat.makeBackend(31);
        auto res = melody::mioChaseDirect(be.get(), 4, 20000);
        return res.latencyNs.percentile(0.999) -
               res.latencyNs.percentile(0.5);
    };
    const double local = run("Local");
    const double cxlB = run("CXL-B");
    const double cxlC = run("CXL-C");
    EXPECT_LT(local, 120.0);
    EXPECT_GT(cxlB, local * 1.5);
    EXPECT_GT(cxlC, local * 1.5);
}

TEST(CxlDevice, HiccupStatsAccumulate)
{
    cxl::CxlDevice dev(cxl::cxlB(), 37);
    Rng r(41);
    Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        const Tick done =
            dev.read(r.below(1 << 20) * kCacheLineBytes, now);
        now = done + nsToTicks(5);
    }
    EXPECT_GT(dev.controllerStats().hiccups, 10u);
    EXPECT_GT(dev.controllerStats().hiccupNs, 0.0);
    EXPECT_EQ(dev.controllerStats().requests, 20000u);
}

TEST(Backends, NumaAddsToLocal)
{
    melody::Platform lp("EMR2S", "Local");
    melody::Platform np("EMR2S", "NUMA");
    auto lb = lp.makeBackend(43);
    auto nb = np.makeBackend(43);
    EXPECT_GT(idleLatencyNs(nb.get()), idleLatencyNs(lb.get()) + 50);
}

TEST(Backends, CxlNumaWorseThanCxl)
{
    melody::Platform cp("EMR2S", "CXL-A");
    melody::Platform cnp("EMR2S", "CXL-A+NUMA");
    auto cb = cp.makeBackend(47);
    auto cnb = cnp.makeBackend(47);
    const double cxl = idleLatencyNs(cb.get());
    const double cxlNuma = idleLatencyNs(cnb.get());
    // Table 1: CXL-A remote = 375ns (214 + 161).
    EXPECT_NEAR(cxlNuma - cxl, 161, 60);
}

TEST(Backends, InterleavingRaisesBandwidth)
{
    melody::Platform one("EMR2S'", "CXL-D");
    melody::Platform two("EMR2S'", "CXL-Dx2");
    melody::MlcConfig cfg;
    cfg.readFrac = 0.67;
    cfg.delayCycles = 0;
    cfg.windowUs = 200;
    cfg.warmupUs = 50;
    auto b1 = one.makeBackend(53);
    auto b2 = two.makeBackend(53);
    const double bw1 = melody::mlcMeasure(b1.get(), cfg).gbps;
    const double bw2 = melody::mlcMeasure(b2.get(), cfg).gbps;
    EXPECT_GT(bw2, bw1 * 1.6);
}

TEST(Backends, StatsCountReadsAndWrites)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(59);
    be->access(0, ReqType::kDemandLoad, 0);
    be->access(64, ReqType::kL1Prefetch, 0);
    be->access(128, ReqType::kRfo, 0);
    be->access(192, ReqType::kWriteback, 0);
    EXPECT_EQ(be->stats().reads, 3u);
    EXPECT_EQ(be->stats().writes, 1u);
    be->resetStats();
    EXPECT_EQ(be->stats().requests(), 0u);
}

TEST(RegionRouter, RoutesPinnedRegions)
{
    melody::Platform lp("EMR2S", "Local");
    melody::Platform cp("EMR2S", "CXL-C");
    RegionRouter router("pin", lp.makeBackend(61),
                        cp.makeBackend(61));
    router.pinRegion(0, 1 << 20);

    Tick now = 0;
    double fastLat = 0, slowLat = 0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        Tick d = router.access(
            static_cast<Addr>(i % 1024) * kCacheLineBytes,
            ReqType::kDemandLoad, now);
        fastLat += ticksToNs(d - now);
        now = d;
        d = router.access((2ULL << 20) +
                              static_cast<Addr>(i) * kCacheLineBytes,
                          ReqType::kDemandLoad, now);
        slowLat += ticksToNs(d - now);
        now = d;
    }
    EXPECT_NEAR(router.fastFraction(), 0.5, 0.01);
    EXPECT_LT(fastLat / n, 200.0);
    EXPECT_GT(slowLat / n, 300.0);
}

TEST(Jitter, InactiveByDefault)
{
    JitterParams p;
    JitterProcess j(p, 5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(j.sample(i * nsToTicks(100)), 0u);
}

TEST(Jitter, EpisodesTriggerUnderRate)
{
    JitterParams p;
    p.episodeProb = 0.05;
    p.refReqPerUs = 1.0;
    p.episodeMinRatePerUs = 1.0;
    p.episodeDurUs = 10.0;
    JitterProcess j(p, 7);
    Tick now = 0;
    std::uint64_t delayed = 0;
    for (int i = 0; i < 20000; ++i) {
        now += nsToTicks(300);  // ~3.3 req/us: above reference
        delayed += j.sample(now) > 0;
    }
    EXPECT_GT(j.episodes(), 5u);
    EXPECT_GT(delayed, 100u);
}

TEST(Jitter, RateCouplingSuppressesAtLowRate)
{
    JitterParams p;
    p.episodeProb = 0.05;
    p.refReqPerUs = 10.0;
    p.episodeMinRatePerUs = 0.001;
    JitterProcess j(p, 7);
    Tick now = 0;
    std::uint64_t delayed = 0;
    for (int i = 0; i < 3000; ++i) {
        now += usToTicks(50);  // 0.02 req/us: far below reference
        delayed += j.sample(now) > 0;
    }
    EXPECT_LT(delayed, 30u);
}

#include "cxl/pool.hh"

TEST(Pool, SingleHeadMatchesPlainDevice)
{
    cxl::PooledCxlDevice pool(cxl::cxlD(), 1,
                              cxl::PoolArbitration::kRoundRobin, 3);
    Rng r(5);
    Tick now = 0;
    double sum = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        const Tick done =
            pool.read(0, r.below(1 << 21) * kCacheLineBytes, now);
        sum += ticksToNs(done - now);
        now = done + nsToTicks(2);
    }
    // Idle latency ~ device latency (CXL-D ~239ns minus the host
    // overhead the CxlBackend would add).
    EXPECT_NEAR(sum / n, 200.0, 40.0);
}

TEST(Pool, CreditsThrottleOnlyUnderContention)
{
    cxl::PooledCxlDevice pool(cxl::cxlB(), 2,
                              cxl::PoolArbitration::kRoundRobin, 3);
    // Lone head: admission is always immediate.
    for (Tick t = 0; t < usToTicks(50); t += nsToTicks(500))
        EXPECT_EQ(pool.earliestAdmission(0, t), t);

    // Saturate head 1 with outstanding requests, then check that
    // its own admission defers while head 0 stays unaffected.
    Tick now = usToTicks(100);
    for (int i = 0; i < 64; ++i)
        EXPECT_GT(pool.read(1, static_cast<Addr>(i) * kCacheLineBytes,
                            now),
                  now);
    // Mark head 0 active -> contended.
    EXPECT_GT(pool.read(0, 0, now), now);
    EXPECT_GT(pool.earliestAdmission(1, now + 1), now + 1);
    EXPECT_EQ(pool.earliestAdmission(0, now + 1), now + 1);
}

TEST(Pool, WeightedSharesFavorHeavierHead)
{
    std::vector<double> weights{3.0, 1.0};
    cxl::PooledCxlDevice pool(cxl::cxlB(), 2,
                              cxl::PoolArbitration::kWeighted, 3,
                              weights);
    Tick now = usToTicks(10);
    // Both heads active and loaded.
    for (int i = 0; i < 64; ++i) {
        EXPECT_GT(pool.read(0, static_cast<Addr>(i) * 64, now), now);
        EXPECT_GT(pool.read(1, static_cast<Addr>(i) * 64 + (1 << 20), now),
                  now);
    }
    // Head 0 (weight 3) has more credits: its admission defers
    // less than head 1's.
    const Tick a0 = pool.earliestAdmission(0, now + 1);
    const Tick a1 = pool.earliestAdmission(1, now + 1);
    EXPECT_LE(a0, a1);
}

TEST(Pool, StatsAccumulatePerHead)
{
    cxl::PooledCxlDevice pool(cxl::cxlA(), 2,
                              cxl::PoolArbitration::kNone, 3);
    EXPECT_GT(pool.read(0, 0, 0), 0u);
    EXPECT_GT(pool.write(1, 64, 0), 0u);
    EXPECT_GT(pool.write(1, 128, 0), 0u);
    EXPECT_EQ(pool.headStats(0).reads, 1u);
    EXPECT_EQ(pool.headStats(0).writes, 0u);
    EXPECT_EQ(pool.headStats(1).writes, 2u);
    EXPECT_EQ(pool.controllerStats().requests, 3u);
}

TEST(Pool, HeadOutOfRangeDies)
{
    // head == heads would index past every per-head vector.
    cxl::PooledCxlDevice pool(cxl::cxlA(), 2,
                              cxl::PoolArbitration::kRoundRobin, 3);
    EXPECT_DEATH((void)pool.read(2, 0, 0), "head out of range");
    EXPECT_DEATH((void)pool.write(2, 0, 0), "head out of range");
    EXPECT_DEATH(pool.earliestAdmission(2, 0), "head out of range");
}

TEST(CxlDevice, PostedWritesOverlapCommandAndData)
{
    // The write command is queued while data streams: a write's
    // completion is bounded below by both paths but far less than
    // their sum.
    cxl::CxlDevice dev(cxl::cxlA(), 41);
    const Tick done = dev.write(4096, 0);
    const double ns = ticksToNs(done);
    EXPECT_GT(ns, 100.0);  // controller + DRAM + links
    EXPECT_LT(ns, 400.0);  // no serial double-charge
}

TEST(CxlDevice, WriteThroughputMatchesReadOrder)
{
    // Duplex ASIC: write data rides the to-device direction, so
    // write-only throughput is comparable to read-only.
    cxl::CxlDevice dev(cxl::cxlA(), 43);
    Tick lastR = 0, lastW = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        lastR = dev.read(static_cast<Addr>(i) * 64, 0);
    cxl::CxlDevice dev2(cxl::cxlA(), 43);
    for (int i = 0; i < n; ++i)
        lastW = dev2.write(static_cast<Addr>(i) * 64, 0);
    const double rBw = n * 64.0 / ticksToNs(lastR);
    const double wBw = n * 64.0 / ticksToNs(lastW);
    EXPECT_NEAR(wBw, rBw, rBw * 0.5);
}

TEST(CxlDevice, SwitchesForwardInBothDirections)
{
    cxl::CxlDevice direct(cxl::cxlA(), 47, 0);
    cxl::CxlDevice switched(cxl::cxlA(), 47, 1);
    const Tick d0 = direct.read(0, 0);
    const Tick d1 = switched.read(0, 0);
    // Two switch traversals (request + response).
    EXPECT_NEAR(ticksToNs(d1 - d0), 2 * 150.0, 40.0);
}

TEST(Backends, WritebacksCountAsWrites)
{
    melody::Platform lp("EMR2S", "CXL-A");
    auto be = lp.makeBackend(53);
    EXPECT_GT(be->access(0, ReqType::kWriteback, 0), 0u);
    EXPECT_GT(be->access(64, ReqType::kWriteback, 0), 0u);
    EXPECT_GT(be->access(128, ReqType::kDemandLoad, 0), 0u);
    EXPECT_EQ(be->stats().writes, 2u);
    EXPECT_EQ(be->stats().reads, 1u);
    EXPECT_NEAR(be->stats().totalGB(), 3 * 64.0 / 1e9, 1e-12);
}

TEST(Backends, AccessIsAccessExDone)
{
    // accessEx() survives only as a forwarder over access() for the
    // benchmark's TimingBackend: on every setup the Platform builds,
    // it must see the same completions and counts as access().
    const char *const setups[] = {
        "Local", "NUMA",         "CXL-A",   "CXL-B",     "CXL-C",
        "CXL-D", "CXL-A+Switch", "CXL-Dx2", "CXL-A+NUMA"};
    const ReqType types[] = {ReqType::kDemandLoad, ReqType::kL1Prefetch,
                             ReqType::kL2Prefetch, ReqType::kRfo,
                             ReqType::kWriteback};
    for (const char *setup : setups) {
        SCOPED_TRACE(setup);
        melody::Platform plat("EMR2S", setup);
        auto plain = plat.makeBackend(61);
        auto ex = plat.makeBackend(61);

        Rng r(67);
        Tick now = 0;
        for (int i = 0; i < 3000; ++i) {
            const Addr a = r.below(1 << 22) * kCacheLineBytes;
            const ReqType t = types[r.below(5)];
            const Tick done = plain->access(a, t, now);
            ASSERT_EQ(done, ex->accessEx(a, t, now).done)
                << "request " << i;
            now += nsToTicks(40.0 + static_cast<double>(r.below(80)));
        }
        EXPECT_EQ(plain->stats().reads, ex->stats().reads);
        EXPECT_EQ(plain->stats().writes, ex->stats().writes);

        std::vector<ras::RasReportEntry> report;
        ex->rasReport(&report);
        EXPECT_TRUE(report.empty());
    }
}

TEST(Backends, AccessIsTheOneEntryPoint)
{
    // Besides name(), access() is the one pure virtual: a backend
    // without it cannot be instantiated, and one with only access()
    // and name() is concrete.
    struct NameOnly : MemoryBackend
    {
        const std::string &name() const override { return name_; }
        std::string name_;
    };
    struct WithAccess : MemoryBackend
    {
        Tick
        access(Addr, ReqType, Tick now) override
        {
            return now + 7;
        }
        const std::string &name() const override { return name_; }
        std::string name_;
    };
    static_assert(std::is_abstract_v<NameOnly>);
    static_assert(!std::is_abstract_v<WithAccess>);
    WithAccess b;
    EXPECT_EQ(b.access(0, ReqType::kDemandLoad, 5), 12u);
}

TEST(Backends, CxlBackendIsHostOverheadPlusDevice)
{
    // CxlBackend adds the root-port overhead to the issue tick and
    // returns the device's completion unchanged.
    CxlBackendConfig cfg;
    cfg.profile = cxl::cxlB();
    cfg.seed = 71;
    CxlBackend be(cfg);
    cxl::CxlDevice twin(cxl::cxlB(), 71, 0);
    const Tick overhead = nsToTicks(cfg.hostOverheadNs);

    Rng r(73);
    Tick now = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = r.below(1 << 22) * kCacheLineBytes;
        const bool read = r.chance(0.7);
        const Tick got = be.access(
            a, read ? ReqType::kDemandLoad : ReqType::kWriteback, now);
        const Tick want = read ? twin.read(a, now + overhead)
                               : twin.write(a, now + overhead);
        ASSERT_EQ(got, want) << "request " << i;
        now += nsToTicks(30.0 + static_cast<double>(r.below(60)));
    }
    EXPECT_EQ(be.stats().requests(), 2000u);
}

TEST(Backends, InterleavedForwardsTargetCompletion)
{
    // Each line goes to one target at its device-local address, and
    // that target's completion comes back as it is.
    ScriptedBackend *t0 = nullptr, *t1 = nullptr;
    std::vector<BackendPtr> targets;
    targets.push_back(scripted(100.0, &t0));
    targets.push_back(scripted(200.0, &t1));
    InterleavedBackend be("x2", std::move(targets));

    const Tick now = nsToTicks(1000);
    for (Addr line = 0; line < 4; ++line) {
        const Tick done = be.access(line * kCacheLineBytes,
                                    ReqType::kDemandLoad, now);
        EXPECT_EQ(done, now + nsToTicks(line % 2 ? 200.0 : 100.0));
    }
    using Seen = std::vector<std::pair<Addr, Tick>>;
    EXPECT_EQ(t0->seen, (Seen{{0, now}, {kCacheLineBytes, now}}));
    EXPECT_EQ(t1->seen, (Seen{{0, now}, {kCacheLineBytes, now}}));
    EXPECT_EQ(be.stats().reads, 4u);
}

TEST(RegionRouter, AccessForwardsEachSidesCompletion)
{
    // Pinned lines carry the fast side's completion, the rest the
    // slow side's.
    ScriptedBackend *fast = nullptr, *slow = nullptr;
    RegionRouter router("pin", scripted(100.0, &fast),
                        scripted(300.0, &slow));
    router.pinRegion(0, 4096);

    EXPECT_EQ(router.access(64, ReqType::kDemandLoad, nsToTicks(10)),
              nsToTicks(110));
    EXPECT_EQ(router.access(8192, ReqType::kRfo, nsToTicks(10)),
              nsToTicks(310));
    using Seen = std::vector<std::pair<Addr, Tick>>;
    EXPECT_EQ(fast->seen, (Seen{{64, nsToTicks(10)}}));
    EXPECT_EQ(slow->seen, (Seen{{8192, nsToTicks(10)}}));
    EXPECT_DOUBLE_EQ(router.fastFraction(), 0.5);
}

TEST(Tiering, AccessForwardsTierCompletion)
{
    // One fast page: the first page touched lands there, the next
    // one on the slow tier, and each access returns its tier's
    // completion.
    ScriptedBackend *fast = nullptr, *slow = nullptr;
    TieringBackend::Config cfg;
    cfg.policy = TieringPolicy::kStatic;
    cfg.pageBytes = 1 << 20;
    cfg.fastCapacityBytes = 1 << 20;
    TieringBackend be("t", scripted(100.0, &fast),
                      scripted(400.0, &slow), cfg);

    EXPECT_EQ(be.access(0, ReqType::kDemandLoad, 0), nsToTicks(100));
    EXPECT_EQ(be.access(1 << 20, ReqType::kDemandLoad, nsToTicks(200)),
              nsToTicks(600));
    EXPECT_EQ(be.access(64, ReqType::kRfo, nsToTicks(1000)),
              nsToTicks(1100));
    EXPECT_EQ(fast->seen.size(), 2u);
    EXPECT_EQ(slow->seen.size(), 1u);
    EXPECT_EQ(be.tieringStats().fastAccesses, 2u);
    EXPECT_EQ(be.tieringStats().slowAccesses, 1u);
}

TEST(Validation, DeviceProfileBoundsAreChecked)
{
    cxl::DeviceProfile p = cxl::cxlA();
    EXPECT_NO_THROW(p.validate());

    p.hiccups.baseProb = 1.5;
    EXPECT_THROW(p.validate(), ConfigError);

    p = cxl::cxlB();
    p.dramChannels = 0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = cxl::cxlC();
    p.thermal.throttleProb = -0.25;
    EXPECT_THROW(p.validate(), ConfigError);

    // A bad profile must fail loudly at backend construction.
    mem::CxlBackendConfig cfg;
    cfg.profile = cxl::cxlD();
    cfg.profile.queueCapacity = 0;
    EXPECT_THROW(mem::CxlBackend be(cfg), ConfigError);
}

TEST(RegionRouter, MultipleRegions)
{
    melody::Platform lp("EMR2S", "Local");
    melody::Platform cp("EMR2S", "CXL-B");
    RegionRouter router("multi", lp.makeBackend(59),
                        cp.makeBackend(59));
    router.pinRegion(0, 1 << 16);
    router.pinRegion(1 << 20, (1 << 20) + (1 << 16));

    auto latOf = [&](Addr a) {
        static Tick now = 0;
        const Tick d =
            router.access(a, ReqType::kDemandLoad, now);
        const double ns = ticksToNs(d - now);
        now = d + nsToTicks(5);
        return ns;
    };
    EXPECT_LT(latOf(100), 200.0);             // region 1 -> local
    EXPECT_LT(latOf((1 << 20) + 64), 200.0);  // region 2 -> local
    EXPECT_GT(latOf(1 << 19), 200.0);         // between -> CXL
    EXPECT_GT(latOf(1 << 22), 200.0);         // beyond -> CXL
}
