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
#include "ras/fault_plan.hh"
#include "ras/ras.hh"
#include "sim/rng.hh"
#include "stats/json.hh"

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
 *  issue with a fixed status, recording what it was asked for. */
class ScriptedBackend : public MemoryBackend
{
  public:
    ScriptedBackend(double latencyNs, ras::Status status)
        : latency_(nsToTicks(latencyNs)), status_(status)
    {}

    AccessResult
    accessEx(Addr addr, ReqType type, Tick now) override
    {
        note(type);
        seen.emplace_back(addr, now);
        return {now + latency_, status_};
    }

    const std::string &name() const override { return name_; }

    /** (address, issue tick) of every request, in order. */
    std::vector<std::pair<Addr, Tick>> seen;

  private:
    Tick latency_;
    ras::Status status_;
    std::string name_ = "scripted";
};

/** Make a ScriptedBackend, keeping a pointer to it for inspection
 *  after ownership moves into a composite backend. */
BackendPtr
scripted(double latencyNs, ras::Status status, ScriptedBackend **out)
{
    auto b = std::make_unique<ScriptedBackend>(latencyNs, status);
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
            dev.readEx(r.below(1 << 20) * kCacheLineBytes, now).done;
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
            pool.readEx(0, r.below(1 << 21) * kCacheLineBytes, now)
                .done;
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
        EXPECT_EQ(pool.readEx(1, static_cast<Addr>(i) * kCacheLineBytes,
                              now)
                      .status,
                  ras::Status::kOk);
    // Mark head 0 active -> contended.
    EXPECT_EQ(pool.readEx(0, 0, now).status, ras::Status::kOk);
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
        EXPECT_EQ(pool.readEx(0, static_cast<Addr>(i) * 64, now).status,
                  ras::Status::kOk);
        EXPECT_EQ(
            pool.readEx(1, static_cast<Addr>(i) * 64 + (1 << 20), now)
                .status,
            ras::Status::kOk);
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
    EXPECT_EQ(pool.readEx(0, 0, 0).status, ras::Status::kOk);
    EXPECT_EQ(pool.writeEx(1, 64, 0).status, ras::Status::kOk);
    EXPECT_EQ(pool.writeEx(1, 128, 0).status, ras::Status::kOk);
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
    EXPECT_DEATH((void)pool.readEx(2, 0, 0), "head out of range");
    EXPECT_DEATH((void)pool.writeEx(2, 0, 0), "head out of range");
    EXPECT_DEATH(pool.earliestAdmission(2, 0), "head out of range");
}

TEST(CxlDevice, PostedWritesOverlapCommandAndData)
{
    // The write command is queued while data streams: a write's
    // completion is bounded below by both paths but far less than
    // their sum.
    cxl::CxlDevice dev(cxl::cxlA(), 41);
    const Tick done = dev.writeEx(4096, 0).done;
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
        lastR = dev.readEx(static_cast<Addr>(i) * 64, 0).done;
    cxl::CxlDevice dev2(cxl::cxlA(), 43);
    for (int i = 0; i < n; ++i)
        lastW = dev2.writeEx(static_cast<Addr>(i) * 64, 0).done;
    const double rBw = n * 64.0 / ticksToNs(lastR);
    const double wBw = n * 64.0 / ticksToNs(lastW);
    EXPECT_NEAR(wBw, rBw, rBw * 0.5);
}

TEST(CxlDevice, SwitchesForwardInBothDirections)
{
    cxl::CxlDevice direct(cxl::cxlA(), 47, 0);
    cxl::CxlDevice switched(cxl::cxlA(), 47, 1);
    const Tick d0 = direct.readEx(0, 0).done;
    const Tick d1 = switched.readEx(0, 0).done;
    // Two switch traversals (request + response).
    EXPECT_NEAR(ticksToNs(d1 - d0), 2 * 150.0, 40.0);
}

TEST(Backends, WritebacksCountAsWrites)
{
    melody::Platform lp("EMR2S", "CXL-A");
    auto be = lp.makeBackend(53);
    be->access(0, ReqType::kWriteback, 0);
    be->access(64, ReqType::kWriteback, 0);
    be->access(128, ReqType::kDemandLoad, 0);
    EXPECT_EQ(be->stats().writes, 2u);
    EXPECT_EQ(be->stats().reads, 1u);
    EXPECT_NEAR(be->stats().totalGB(), 3 * 64.0 / 1e9, 1e-12);
}

TEST(Backends, AccessIsAccessExDone)
{
    // access() is a forwarder over the one entry point a backend
    // implements: on every setup the Platform builds, with faults
    // armed, the status-less path must see the same completions and
    // leave the same RAS counters as accessEx().
    const char *const setups[] = {
        "Local", "NUMA",         "CXL-A",   "CXL-B",     "CXL-C",
        "CXL-D", "CXL-A+Switch", "CXL-Dx2", "CXL-A+NUMA"};
    // Rates high enough that a few thousand requests see CRC
    // replays and lost flits, corrected and poisoned lines, and a
    // device that goes offline and comes back; the second plan
    // adds the failover router.
    const char *const plans[] = {
        "crc=2e-2,maxreplay=1,ce=1e-2,ue=5e-3,scrub=20us,"
        "offline@100us:dev0,recover@200us:dev0",
        "crc=2e-2,maxreplay=1,ce=1e-2,ue=5e-3,scrub=20us,"
        "offline@100us:dev0,recover@200us:dev0,failover"};
    const ReqType types[] = {ReqType::kDemandLoad, ReqType::kL1Prefetch,
                             ReqType::kL2Prefetch, ReqType::kRfo,
                             ReqType::kWriteback};
    for (const char *spec : plans) {
        for (const char *setup : setups) {
            SCOPED_TRACE(std::string(setup) + " / " + spec);
            melody::Platform plat("EMR2S", setup);
            plat.setFaultPlan(ras::parseFaultPlan(spec));
            auto plain = plat.makeBackend(61);
            auto ex = plat.makeBackend(61);

            Rng r(67);
            Tick now = 0;
            std::uint64_t faulted = 0;
            for (int i = 0; i < 3000; ++i) {
                const Addr a = r.below(1 << 22) * kCacheLineBytes;
                const ReqType t = types[r.below(5)];
                const Tick done = plain->access(a, t, now);
                const AccessResult res = ex->accessEx(a, t, now);
                ASSERT_EQ(done, res.done) << "request " << i;
                faulted += res.status != ras::Status::kOk;
                now += nsToTicks(40.0 + static_cast<double>(r.below(80)));
            }

            std::vector<ras::RasReportEntry> rp, rx;
            plain->rasReport(&rp);
            ex->rasReport(&rx);
            ASSERT_EQ(rp.size(), rx.size());
            for (std::size_t i = 0; i < rp.size(); ++i) {
                // Every counter, via the report's JSON form; the
                // one double is compared exactly on its own.
                EXPECT_EQ(rp[i].name, rx[i].name);
                stats::JsonWriter wp, wx;
                rp[i].stats.writeJson(&wp);
                rx[i].stats.writeJson(&wx);
                EXPECT_EQ(wp.str(), wx.str()) << rp[i].name;
                EXPECT_EQ(rp[i].stats.failoverExtraNs,
                          rx[i].stats.failoverExtraNs);
            }
            // The plan must reach every CXL device, or this test
            // proves nothing about the fault paths.
            if (std::string(setup).rfind("CXL", 0) == 0) {
                ras::RasStats total;
                for (const auto &e : rx)
                    total += e.stats;
                EXPECT_GT(total.injected(), 0u);
                EXPECT_GT(total.offlineEntries, 0u);
                EXPECT_GT(faulted + total.failovers, 0u);
            }
        }
    }
}

TEST(Backends, AccessExIsTheOneEntryPoint)
{
    // Besides name(), accessEx() is the one pure virtual: a backend
    // without it cannot be instantiated, and with it access() comes
    // for free as its forwarder.
    struct NameOnly : MemoryBackend
    {
        const std::string &name() const override { return name_; }
        std::string name_;
    };
    struct WithAccessEx : MemoryBackend
    {
        AccessResult
        accessEx(Addr, ReqType, Tick now) override
        {
            return {now + 7, ras::Status::kPoisoned};
        }
        const std::string &name() const override { return name_; }
        std::string name_;
    };
    static_assert(std::is_abstract_v<NameOnly>);
    static_assert(!std::is_abstract_v<WithAccessEx>);
    WithAccessEx b;
    EXPECT_EQ(b.access(0, ReqType::kDemandLoad, 5), 12u);
}

TEST(Backends, CxlBackendIsHostOverheadPlusDevice)
{
    // Without a fault plan, CxlBackend adds the root-port overhead
    // to the issue tick and returns the device's result unchanged.
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
        const AccessResult got = be.accessEx(
            a, read ? ReqType::kDemandLoad : ReqType::kWriteback, now);
        const AccessResult want = read ? twin.readEx(a, now + overhead)
                                       : twin.writeEx(a, now + overhead);
        ASSERT_EQ(got.done, want.done) << "request " << i;
        ASSERT_EQ(got.status, want.status) << "request " << i;
        now += nsToTicks(30.0 + static_cast<double>(r.below(60)));
    }
    EXPECT_EQ(be.stats().requests(), 2000u);
}

TEST(Backends, InterleavedForwardsTargetStatus)
{
    // Each line goes to one target at its device-local address, and
    // that target's completion and status come back as they are.
    ScriptedBackend *t0 = nullptr, *t1 = nullptr;
    std::vector<BackendPtr> targets;
    targets.push_back(scripted(100.0, ras::Status::kOk, &t0));
    targets.push_back(scripted(200.0, ras::Status::kPoisoned, &t1));
    InterleavedBackend be("x2", std::move(targets));

    const Tick now = nsToTicks(1000);
    for (Addr line = 0; line < 4; ++line) {
        const AccessResult res = be.accessEx(line * kCacheLineBytes,
                                             ReqType::kDemandLoad, now);
        const bool odd = line % 2;
        EXPECT_EQ(res.done, now + nsToTicks(odd ? 200.0 : 100.0));
        EXPECT_EQ(res.status,
                  odd ? ras::Status::kPoisoned : ras::Status::kOk);
    }
    using Seen = std::vector<std::pair<Addr, Tick>>;
    EXPECT_EQ(t0->seen, (Seen{{0, now}, {kCacheLineBytes, now}}));
    EXPECT_EQ(t1->seen, (Seen{{0, now}, {kCacheLineBytes, now}}));
    EXPECT_EQ(be.stats().reads, 4u);
}

TEST(RegionRouter, AccessExForwardsEachSidesStatus)
{
    // Pinned lines carry the fast side's result, the rest the slow
    // side's; without failover nothing is re-routed, not even a
    // timeout.
    ScriptedBackend *fast = nullptr, *slow = nullptr;
    RegionRouter router(
        "pin", scripted(100.0, ras::Status::kPoisoned, &fast),
        scripted(300.0, ras::Status::kTimeout, &slow));
    router.pinRegion(0, 4096);

    const AccessResult p =
        router.accessEx(64, ReqType::kDemandLoad, nsToTicks(10));
    EXPECT_EQ(p.done, nsToTicks(110));
    EXPECT_EQ(p.status, ras::Status::kPoisoned);
    const AccessResult u =
        router.accessEx(8192, ReqType::kRfo, nsToTicks(10));
    EXPECT_EQ(u.done, nsToTicks(310));
    EXPECT_EQ(u.status, ras::Status::kTimeout);

    EXPECT_EQ(fast->seen.size(), 1u);
    EXPECT_EQ(slow->seen.size(), 1u);
    std::vector<ras::RasReportEntry> rep;
    router.rasReport(&rep);
    EXPECT_TRUE(rep.empty());
}

TEST(RegionRouter, FailoverReissuesTimeoutsOnFast)
{
    // A slow-side timeout is re-issued on the fast side at the tick
    // the wait ended; the wasted wait is the failover's extra time.
    ScriptedBackend *fast = nullptr, *slow = nullptr;
    RegionRouter router("pin", scripted(100.0, ras::Status::kOk, &fast),
                        scripted(500.0, ras::Status::kTimeout, &slow));
    router.enableFailover();

    const AccessResult res =
        router.accessEx(8192, ReqType::kDemandLoad, 0);
    EXPECT_EQ(res.done, nsToTicks(600));
    EXPECT_EQ(res.status, ras::Status::kOk);
    using Seen = std::vector<std::pair<Addr, Tick>>;
    EXPECT_EQ(slow->seen, (Seen{{8192, 0}}));
    EXPECT_EQ(fast->seen, (Seen{{8192, nsToTicks(500)}}));

    std::vector<ras::RasReportEntry> rep;
    router.rasReport(&rep);
    ASSERT_EQ(rep.size(), 1u);
    EXPECT_EQ(rep[0].name, "pin/failover");
    EXPECT_EQ(rep[0].stats.failovers, 1u);
    EXPECT_DOUBLE_EQ(rep[0].stats.failoverExtraNs, 500.0);
}

TEST(Tiering, AccessExForwardsTierStatusAndFailsOver)
{
    // One fast page: the first page touched lands there, the next
    // one on the slow tier, whose timeout surfaces as is until
    // failover serves it from the fast tier.
    ScriptedBackend *fast = nullptr, *slow = nullptr;
    TieringBackend::Config cfg;
    cfg.policy = TieringPolicy::kStatic;
    cfg.pageBytes = 1 << 20;
    cfg.fastCapacityBytes = 1 << 20;
    TieringBackend be("t", scripted(100.0, ras::Status::kPoisoned, &fast),
                      scripted(400.0, ras::Status::kTimeout, &slow),
                      cfg);

    const AccessResult f = be.accessEx(0, ReqType::kDemandLoad, 0);
    EXPECT_EQ(f.done, nsToTicks(100));
    EXPECT_EQ(f.status, ras::Status::kPoisoned);
    const AccessResult s =
        be.accessEx(1 << 20, ReqType::kDemandLoad, nsToTicks(200));
    EXPECT_EQ(s.done, nsToTicks(600));
    EXPECT_EQ(s.status, ras::Status::kTimeout);

    be.enableFailover();
    const AccessResult fo =
        be.accessEx(1 << 20, ReqType::kDemandLoad, nsToTicks(1000));
    EXPECT_EQ(fo.done, nsToTicks(1500));
    EXPECT_EQ(fo.status, ras::Status::kPoisoned);
    EXPECT_EQ(fast->seen.back(),
              (std::pair<Addr, Tick>{1 << 20, nsToTicks(1400)}));
    EXPECT_EQ(slow->seen.size(), 2u);

    EXPECT_EQ(be.tieringStats().fastAccesses, 1u);
    EXPECT_EQ(be.tieringStats().slowAccesses, 2u);
    std::vector<ras::RasReportEntry> rep;
    be.rasReport(&rep);
    ASSERT_EQ(rep.size(), 1u);
    EXPECT_EQ(rep[0].name, "t/failover");
    EXPECT_EQ(rep[0].stats.failovers, 1u);
    EXPECT_DOUBLE_EQ(rep[0].stats.failoverExtraNs, 400.0);
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
