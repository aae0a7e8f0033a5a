/**
 * @file
 * Tests for the CPU model: caches with pending-line semantics,
 * prefetchers, and the core's Intel-style stall accounting — the
 * substrate Spa's correctness rests on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "cpu/hierarchy.hh"
#include "cpu/multicore.hh"
#include "cpu/prefetcher.hh"
#include "cpu/profile.hh"
#include "core/platform.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;
using namespace cxlsim::cpu;

TEST(Cache, HitMissBasics)
{
    Cache c(64 * 1024, 8);
    Tick ready;
    StallTag home;
    EXPECT_EQ(c.lookup(0, 0, &ready, &home), LookupResult::kMiss);
    c.insert(0, 0, StallTag::kDram, false);
    EXPECT_EQ(c.lookup(0, 10, &ready, &home), LookupResult::kHit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, PendingUntilReady)
{
    Cache c(64 * 1024, 8);
    c.insert(64, nsToTicks(500), StallTag::kL2, false);
    Tick ready;
    StallTag home;
    EXPECT_EQ(c.lookup(64, nsToTicks(100), &ready, &home),
              LookupResult::kPending);
    EXPECT_EQ(ready, nsToTicks(500));
    EXPECT_EQ(home, StallTag::kL2);
    EXPECT_EQ(c.lookup(64, nsToTicks(600), &ready, &home),
              LookupResult::kHit);
    EXPECT_EQ(c.pendingHits(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2 ways, tiny cache: set count = 512 lines / ... use direct
    // geometry: 2 ways, 1 set = 128 bytes.
    Cache c(128, 2);
    ASSERT_EQ(c.sets(), 1u);
    c.insert(0 * 64, 0, StallTag::kDram, false);
    c.insert(1 * 64, 0, StallTag::kDram, false);
    Tick ready;
    StallTag home;
    // Touch line 0 so line 1 becomes LRU.
    c.lookup(0, 10, &ready, &home);
    const Eviction ev = c.insert(2 * 64, 0, StallTag::kDram, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 64u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(64));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(128, 2);
    c.insert(0, 0, StallTag::kDram, true);
    c.insert(64, 0, StallTag::kDram, false);
    const Eviction ev = c.insert(128, 0, StallTag::kDram, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0u);
}

TEST(Cache, MarkDirtyAndReinsert)
{
    Cache c(64 * 1024, 8);
    c.insert(0, 0, StallTag::kDram, false);
    c.markDirty(0);
    const Eviction none = c.insert(0, 100, StallTag::kL2, false);
    EXPECT_FALSE(none.valid);  // refresh, not new insert
    c.invalidate(0);
    EXPECT_FALSE(c.contains(0));
}

TEST(StridePrefetcher, TrainsOnConstantStride)
{
    PrefetcherConfig cfg{true, 4, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0 * 64, &out);
    EXPECT_TRUE(out.empty());
    pf.observe(1, 1 * 64, &out);
    EXPECT_TRUE(out.empty());  // confidence 1
    pf.observe(1, 2 * 64, &out);
    // Confidence reaches the threshold here: nominations begin.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 3u * 64);
    EXPECT_EQ(out[3], 6u * 64);
    pf.observe(1, 3 * 64, &out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 4u * 64);
    EXPECT_EQ(out[3], 7u * 64);
}

TEST(StridePrefetcher, NonUnitStride)
{
    PrefetcherConfig cfg{true, 2, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr a = 0; a < 5 * 256; a += 256)
        pf.observe(3, a, &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 4u * 256 + 256);
}

TEST(StridePrefetcher, RandomAddressesNeverTrain)
{
    PrefetcherConfig cfg{true, 4, 8, 2};
    StridePrefetcher pf(cfg);
    Rng r(3);
    std::vector<Addr> out;
    std::size_t nominated = 0;
    for (int i = 0; i < 1000; ++i) {
        pf.observe(5, r.below(1 << 20) * 64, &out);
        nominated += out.size();
    }
    EXPECT_LT(nominated, 50u);
}

TEST(StridePrefetcher, DisabledNominatesNothing)
{
    PrefetcherConfig cfg{false, 4, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr a = 0; a < 64 * 64; a += 64)
        pf.observe(1, a, &out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, NominatesAheadWithinBudget)
{
    PrefetcherConfig cfg{true, 8, 16, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(0 * 64, 100, &out);
    pf.observe(1 * 64, 100, &out);
    pf.observe(2 * 64, 100, &out);
    ASSERT_FALSE(out.empty());
    // Frontier starts right after the demand line.
    EXPECT_EQ(out.front(), 3u * 64);
    // Next observation continues from the frontier, no re-issue.
    const Addr prevEnd = out.back();
    pf.observe(3 * 64, 100, &out);
    if (!out.empty()) {
        EXPECT_GT(out.front(), prevEnd);
    }
}

TEST(StreamPrefetcher, BudgetBoundsNominations)
{
    PrefetcherConfig cfg{true, 16, 32, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(0, 100, &out);
    pf.observe(64, 100, &out);
    pf.observe(128, 2, &out);  // only 2 in-flight slots left
    EXPECT_LE(out.size(), 2u);
    pf.observe(192, 0, &out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, StaysWithinPage)
{
    PrefetcherConfig cfg{true, 32, 64, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    const Addr lastLines = 4096 - 3 * 64;
    pf.observe(lastLines, 100, &out);
    pf.observe(lastLines + 64, 100, &out);
    pf.observe(lastLines + 128, 100, &out);
    for (Addr a : out)
        EXPECT_LT(a, 4096u);
}

namespace {

CounterSet
runCounters(const workloads::WorkloadProfile &w, const char *memory,
            bool pf_on = true, Tick *wall = nullptr)
{
    melody::Platform plat("EMR2S", memory);
    auto backend = plat.makeBackend(71 ^ w.seed);
    MultiCore mc(plat.cpu(), w.exec, backend.get(),
                 workloads::makeKernels(w), pf_on);
    auto r = mc.run();
    if (wall)
        *wall = r.wallTicks;
    return r.counters;
}

workloads::WorkloadProfile
smallWorkload(const std::string &name)
{
    workloads::WorkloadProfile w = workloads::byName(name);
    w.blocksPerCore = std::min<std::uint64_t>(w.blocksPerCore, 30000);
    return w;
}

}  // namespace

/** Property: Intel counter nesting P1 >= P3 >= P4 >= P5 and
 *  P6 >= P1 + P2 across a spread of workloads and backends. */
class CounterInvariants
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CounterInvariants, NestingHolds)
{
    for (const char *mem : {"Local", "CXL-B"}) {
        const CounterSet c =
            runCounters(smallWorkload(GetParam()), mem);
        EXPECT_GE(c.p1 + 1e-6, c.p3) << mem;
        EXPECT_GE(c.p3 + 1e-6, c.p4) << mem;
        EXPECT_GE(c.p4 + 1e-6, c.p5) << mem;
        EXPECT_GE(c.p6 + 1e-6, c.p1 + c.p2) << mem;
        EXPECT_GT(c.cycles, 0.0);
        EXPECT_GT(c.instructions, 0.0);
        // Stall components are non-negative by construction.
        EXPECT_GE(c.sL1() + 1e-6, 0.0);
        EXPECT_GE(c.sL2() + 1e-6, 0.0);
        EXPECT_GE(c.sL3() + 1e-6, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CounterInvariants,
    ::testing::Values("605.mcf_s", "603.bwaves_s", "redis/ycsb-c",
                      "519.lbm_r", "pts-openssl", "bfs-web",
                      "ubench-chase-256m-i7"));

TEST(Core, InstructionsInvariantAcrossBackends)
{
    const auto w = smallWorkload("605.mcf_s");
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-B");
    // Same instruction stream retires on both (§5.6 relies on it).
    EXPECT_DOUBLE_EQ(local.instructions, cxl.instructions);
    EXPECT_GT(cxl.cycles, local.cycles);
}

TEST(Core, ChaseSlowerThanStream)
{
    auto chase = smallWorkload("ubench-chase-4096m-i17");
    auto stream = smallWorkload("ubench-seq-4096m-i35");
    Tick wallChase, wallStream;
    const CounterSet c1 = runCounters(chase, "CXL-A", true,
                                      &wallChase);
    const CounterSet c2 = runCounters(stream, "CXL-A", true,
                                      &wallStream);
    const double ipcChase = c1.instructions / c1.cycles;
    const double ipcStream = c2.instructions / c2.cycles;
    EXPECT_LT(ipcChase, ipcStream);
}

TEST(Core, DramBoundChaseChargesP5)
{
    auto w = smallWorkload("ubench-chase-4096m-i17");
    const CounterSet c = runCounters(w, "CXL-A");
    // Almost all memory stalls should be LLC-miss (DRAM) stalls.
    EXPECT_GT(c.sDram(), 0.5 * (c.p1 + 1e-9));
}

TEST(Core, StoreBufferPressureChargesP2)
{
    workloads::WorkloadProfile w = workloads::byName("519.lbm_r");
    w.blocksPerCore = 20000;
    w.threads = 2;
    w.storesPerBlock = 2.0;  // exaggerate store pressure
    w.storeHotFrac = 0.0;
    const CounterSet c = runCounters(w, "CXL-C");
    EXPECT_GT(c.p2, 0.0);
}

TEST(Core, PrefetchersOffRemovesCacheStalls)
{
    // Finding #4's control experiment: with HW prefetchers off,
    // there are no pending prefetch lines, so (differential) cache
    // stall components vanish and everything lands in DRAM stalls.
    auto w = smallWorkload("ubench-seq-4096m-i35");
    Tick wallL, wallC;
    melody::Platform lp("EMR2S", "Local"), cp("EMR2S", "CXL-A");

    auto lb = lp.makeBackend(73);
    MultiCore ml(lp.cpu(), w.exec, lb.get(),
                 workloads::makeKernels(w), /*pf=*/false);
    auto rl = ml.run();
    wallL = rl.wallTicks;

    auto cb = cp.makeBackend(73);
    MultiCore mcxl(cp.cpu(), w.exec, cb.get(),
                   workloads::makeKernels(w), /*pf=*/false);
    auto rc = mcxl.run();
    wallC = rc.wallTicks;
    EXPECT_GT(wallC, wallL);

    const CounterSet d = rc.counters - rl.counters;
    const double cacheStalls = d.sL1() + d.sL2() + d.sL3();
    // With PF off, cache-stall deltas are ~0 vs the DRAM delta.
    EXPECT_LT(std::abs(cacheStalls), 0.05 * d.sDram() + 1e3);
    EXPECT_EQ(rc.counters.l1pfIssued, 0u);
    EXPECT_EQ(rc.counters.l2pfIssued, 0u);
}

TEST(Core, PrefetchersImproveStreamPerformance)
{
    auto w = smallWorkload("ubench-seq-4096m-i35");
    Tick wallOn = 0, wallOff = 0;
    runCounters(w, "Local", true, &wallOn);
    runCounters(w, "Local", false, &wallOff);
    EXPECT_LT(wallOn, wallOff);
}

TEST(Hierarchy, DemandMissFillsAllLevels)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(79);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const auto out = h.demandLoad(0, 4096, 0, 0);
    EXPECT_FALSE(out.immediate);
    EXPECT_EQ(out.tag, StallTag::kDram);
    // After the fill arrives the line hits in L1.
    const auto again = h.demandLoad(0, 4096, 0, out.readyAt + 1);
    EXPECT_TRUE(again.immediate);
}

TEST(Hierarchy, PendingMergeAttributesToDram)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(83);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const auto first = h.demandLoad(0, 8192, 0, 0);
    const auto merged = h.demandLoad(0, 8192, 0, 10);
    EXPECT_EQ(merged.tag, StallTag::kDram);
    EXPECT_LE(merged.readyAt, first.readyAt + nsToTicks(20));
}

TEST(Hierarchy, PreloadMakesLinesResident)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(89);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    h.preload(0, 1 << 20);
    const auto out = h.demandLoad(0, 1 << 20, 0, 0);
    EXPECT_FALSE(out.immediate);  // L2 hit, small latency
    EXPECT_EQ(out.tag, StallTag::kL2);
    EXPECT_LT(ticksToNs(out.readyAt), 30.0);
}

TEST(Hierarchy, RfoMissGoesToBackend)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(97);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const Tick done = h.storeRfo(0, 1 << 21, 0);
    EXPECT_GT(ticksToNs(done), 80.0);  // full memory round trip
    EXPECT_EQ(be->stats().reads, 1u);  // RFO counts as a read
    // A second store to the same line is cheap once owned.
    const Tick again = h.storeRfo(0, 1 << 21, done + 100);
    EXPECT_LT(ticksToNs(again - done - 100), 5.0);
}

TEST(Hierarchy, DirtyEvictionsReachBackendAsWritebacks)
{
    melody::Platform lp("EMR2S", "Local");
    // Tiny-cache profile to force eviction cascades quickly.
    CpuProfile prof = lp.cpu();
    prof.l1 = {4 * 1024, 4, 4.0};
    prof.l2 = {16 * 1024, 4, 14.0};
    prof.l3 = {64 * 1024, 4, 40.0};
    auto be = lp.makeBackend(101);
    MemoryHierarchy h(prof, 1, be.get(), false);
    Tick now = 0;
    for (Addr a = 0; a < (1 << 20); a += kCacheLineBytes)
        now = h.storeRfo(0, a, now) + 10;
    EXPECT_GT(be->stats().writes, 100u);
}

TEST(Hierarchy, SharedL3ServesAnotherCoresFill)
{
    // L1/L2 are private, the LLC is shared: a line core 0 fetched
    // reaches core 1 from L3 without a second backend read.
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(109);
    MemoryHierarchy h(lp.cpu(), 2, be.get(), false);
    const auto first = h.demandLoad(0, 1 << 22, 0, 0);
    ASSERT_EQ(first.tag, StallTag::kDram);
    const std::uint64_t reads = be->stats().reads;
    const auto other = h.demandLoad(1, 1 << 22, 0, first.readyAt + 1);
    EXPECT_FALSE(other.immediate);
    EXPECT_EQ(other.tag, StallTag::kL3);
    EXPECT_EQ(be->stats().reads, reads);
}

TEST(Hierarchy, PreloadWarmsOwnL2AndSharedL3)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(113);
    MemoryHierarchy h(lp.cpu(), 2, be.get(), false);
    h.preload(0, 1 << 20);
    EXPECT_EQ(h.demandLoad(0, 1 << 20, 0, 0).tag, StallTag::kL2);
    EXPECT_EQ(h.demandLoad(1, 1 << 20, 0, 0).tag, StallTag::kL3);
    EXPECT_EQ(be->stats().reads, 0u);
}

TEST(MultiCore, SymmetricCoresFinishTogether)
{
    auto w = smallWorkload("bfs-web");
    w.threads = 4;
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(103);
    MultiCore mc(lp.cpu(), w.exec, be.get(),
                 workloads::makeKernels(w));
    auto r = mc.run();
    EXPECT_GT(r.wallTicks, 0u);
    EXPECT_GT(r.backendStats.requests(), 100u);
    EXPECT_GT(r.backendGBps(), 0.0);
}

TEST(MultiCore, SamplingProducesMonotonicSamples)
{
    auto w = smallWorkload("602.gcc_s");
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(107);
    MultiCore mc(lp.cpu(), w.exec, be.get(),
                 workloads::makeKernels(w));
    mc.enableSampling(usToTicks(5));
    auto r = mc.run();
    ASSERT_GT(r.samples.size(), 3u);
    for (std::size_t i = 1; i < r.samples.size(); ++i) {
        EXPECT_GT(r.samples[i].when, r.samples[i - 1].when);
        EXPECT_GE(r.samples[i].counters.instructions,
                  r.samples[i - 1].counters.instructions);
        EXPECT_GE(r.samples[i].counters.cycles,
                  r.samples[i - 1].counters.cycles);
    }
}

TEST(Profiles, SkxVsSprPrefetchHoming)
{
    EXPECT_FALSE(skx().l2pfFillsL3);
    EXPECT_TRUE(spr().l2pfFillsL3);
    EXPECT_TRUE(emr().l2pfFillsL3);
    EXPECT_GT(emr().l3.sizeBytes, spr().l3.sizeBytes);
    EXPECT_GT(emrPrime().l3.sizeBytes, emr().l3.sizeBytes);
    EXPECT_LT(skx().robSize, spr().robSize);
}

TEST(Core, PiecewiseStallAttribution)
{
    // A 16-cycle L2 hit coexisting with a 300ns DRAM wait must not
    // taint the whole window as sL2: the DRAM portion dominates.
    workloads::WorkloadProfile w =
        workloads::byName("ubench-rnd-4096m-i56");
    w.blocksPerCore = 20000;
    w.hotFrac = 0.5;  // plenty of L2/L3 traffic alongside misses
    w.dependentFrac = 0.3;
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-A");
    const CounterSet d = cxl - local;
    // The latency delta lands overwhelmingly at DRAM (P5), not in
    // the cache bands.
    EXPECT_GT(d.sDram(), 5.0 * std::max(1.0, d.sL2()));
}

TEST(Core, FrontendStallsBackendInvariant)
{
    // Frontend stalls (P6 minus backend stalls) are a workload
    // property: their delta across backends is ~0 (§5.3).
    auto w = smallWorkload("redis/ycsb-c");
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-B");
    const double feLocal = local.p6 - local.p1 - local.p2;
    const double feCxl = cxl.p6 - cxl.p1 - cxl.p2;
    EXPECT_NEAR(feCxl, feLocal,
                0.05 * std::max(feLocal, 1.0) + 100.0);
}

TEST(Hierarchy, L2pfHomesDifferBySku)
{
    // SKX streamer fills L2 (pending tag kL2); SPR/EMR fill the
    // LLC (pending tag kL3) — the §5.4 mechanism.
    for (bool fillsL3 : {false, true}) {
        CpuProfile prof = fillsL3 ? emr() : skx();
        melody::Platform lp("EMR2S", "CXL-A");
        auto be = lp.makeBackend(301);
        MemoryHierarchy h(prof, 1, be.get(), true);
        // Train the streamer with a clean sequential stream.
        Tick now = 0;
        LoadOutcome out{};
        for (Addr a = 1 << 24; a < (1 << 24) + 64 * 200;
             a += kCacheLineBytes) {
            out = h.demandLoad(0, a, 1, now);
            // Fast consumption: the stream outruns in-flight fills.
            now += nsToTicks(4);
        }
        // A near-future stream line should be pending with the
        // SKU-appropriate home.
        bool sawExpected = false;
        for (int k = 0; k < 40 && !sawExpected; ++k) {
            const Addr next =
                (1 << 24) + 64 * (200 + k);
            const auto o = h.demandLoad(0, next, 1, now);
            if (!o.immediate &&
                o.tag == (fillsL3 ? StallTag::kL3 : StallTag::kL2))
                sawExpected = true;
            now += nsToTicks(2);
        }
        EXPECT_TRUE(sawExpected)
            << (fillsL3 ? "EMR" : "SKX");
    }
}
