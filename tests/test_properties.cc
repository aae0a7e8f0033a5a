/**
 * @file
 * Cross-module property tests against reference models: the cache
 * vs an exact LRU list, the DRAM channel's physical bounds, the
 * link's byte accounting, counter nesting under random workloads,
 * end-to-end determinism, and the trace kernel.
 */

#include <gtest/gtest.h>

#include <list>
#include <sstream>
#include <unordered_map>

#include "core/platform.hh"
#include "core/slowdown.hh"
#include "cpu/cache.hh"
#include "cpu/multicore.hh"
#include "dram/channel.hh"
#include "link/link.hh"
#include "sim/rng.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"
#include "workloads/trace_kernel.hh"

using namespace cxlsim;

/**
 * Reference LRU model: per-set ordered list; compare hit/miss
 * decisions and victim choice with the Cache under random traffic.
 */
class CacheVsReference : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheVsReference, MatchesExactLru)
{
    constexpr std::uint64_t kSets = 16;
    constexpr unsigned kWays = 4;
    cpu::Cache cache(kSets * kWays * kCacheLineBytes, kWays);
    ASSERT_EQ(cache.sets(), kSets);

    // Reference: per-set MRU-ordered list of tags.
    std::vector<std::list<Addr>> ref(kSets);
    Rng rng(1000 + GetParam());

    for (int i = 0; i < 20000; ++i) {
        const Addr line =
            rng.below(kSets * kWays * 4) * kCacheLineBytes;
        const std::uint64_t set =
            (line / kCacheLineBytes) % kSets;
        auto &lst = ref[set];
        const auto it =
            std::find(lst.begin(), lst.end(), line);
        const bool refHit = it != lst.end();

        Tick ready;
        cpu::StallTag home;
        const auto got = cache.lookup(line, 1'000'000, &ready, &home);
        ASSERT_EQ(got == cpu::LookupResult::kHit, refHit)
            << "iteration " << i;

        if (refHit) {
            lst.erase(it);
            lst.push_front(line);
        } else {
            cache.insert(line, 0, cpu::StallTag::kDram, false);
            lst.push_front(line);
            if (lst.size() > kWays)
                lst.pop_back();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference,
                         ::testing::Values(0, 1, 2, 3, 4));

/** DRAM channel physics: completion after arrival + CAS, and
 *  aggregate bandwidth never above the bus peak. */
class ChannelPhysics : public ::testing::TestWithParam<int>
{
};

TEST_P(ChannelPhysics, BoundsHold)
{
    dram::ChannelConfig cfg;
    cfg.timing = GetParam() % 2 ? dram::ddr4_2933()
                                : dram::ddr5_4800();
    cfg.seed = GetParam();
    dram::Channel chan(cfg);
    Rng rng(2000 + GetParam());

    Tick now = 0;
    Tick last = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const Addr a = rng.below(1 << 20) * kCacheLineBytes;
        const bool wr = rng.chance(0.3);
        const Tick done = chan.access(a, wr, now);
        ASSERT_GE(done, now + nsToTicks(cfg.timing.tCL) -
                            nsToTicks(0.01));
        last = std::max(last, done);
        // Mixed pacing: sometimes back-to-back, sometimes spaced.
        if (rng.chance(0.5))
            now = done;
    }
    const double gbps = n * 64.0 / ticksToNs(last);
    EXPECT_LE(gbps, cfg.timing.peakGBps() * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelPhysics,
                         ::testing::Values(0, 1, 2, 3));

TEST(LinkProperties, ByteAccountingExact)
{
    link::LinkConfig cfg{.gbpsPerDir = 32, .propagationNs = 10};
    link::DuplexLink l(cfg);
    std::uint64_t to = 0, from = 0;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const unsigned bytes = 8 + rng.below(120);
        const Tick at = static_cast<Tick>(i) * 100;
        if (rng.chance(0.5)) {
            EXPECT_GT(l.send(bytes, link::Dir::kToDevice, at), at);
            to += bytes;
        } else {
            EXPECT_GT(l.send(bytes, link::Dir::kFromDevice, at), at);
            from += bytes;
        }
    }
    EXPECT_EQ(l.stats().bytes[0], to);
    EXPECT_EQ(l.stats().bytes[1], from);
}

TEST(Determinism, IdenticalSeedsIdenticalRuns)
{
    const auto w = [] {
        auto p = workloads::byName("redis/ycsb-a");
        p.blocksPerCore = 15000;
        return p;
    }();
    melody::Platform plat("EMR2S", "CXL-B");
    const auto r1 = melody::runWorkload(w, plat, 42);
    const auto r2 = melody::runWorkload(w, plat, 42);
    EXPECT_EQ(r1.wallTicks, r2.wallTicks);
    EXPECT_DOUBLE_EQ(r1.counters.p1, r2.counters.p1);
    EXPECT_DOUBLE_EQ(r1.counters.p5, r2.counters.p5);
    EXPECT_EQ(r1.backendStats.reads, r2.backendStats.reads);

    const auto r3 = melody::runWorkload(w, plat, 43);
    EXPECT_NE(r1.wallTicks, r3.wallTicks);
}

TEST(TraceKernel, ParsesAndReplays)
{
    std::istringstream in(
        "# tiny trace\n"
        "C 10\n"
        "L 1000\n"
        "L 2000 d\n"
        "S 3000\n"
        "C 4\n"
        "L 4000\n");
    auto ops = workloads::parseTrace(in);
    ASSERT_EQ(ops.size(), 6u);
    EXPECT_EQ(ops[0].kind, workloads::TraceOp::Kind::kCompute);
    EXPECT_EQ(ops[0].uops, 10u);
    EXPECT_EQ(ops[1].addr, 0x1000u);
    EXPECT_TRUE(ops[2].dependent);
    EXPECT_EQ(ops[3].kind, workloads::TraceOp::Kind::kStore);

    workloads::TraceKernel k(ops, 3);
    cpu::Block b;
    std::uint64_t loads = 0, stores = 0;
    while (k.next(&b))
        for (unsigned i = 0; i < b.nOps; ++i)
            (b.ops[i].isStore ? stores : loads) += 1;
    EXPECT_EQ(loads, 3u * 3);
    EXPECT_EQ(stores, 1u * 3);
}

TEST(TraceKernel, RunsThroughTheCore)
{
    // A small strided trace replayed on local vs CXL shows a
    // measurable slowdown end to end.
    std::ostringstream trace;
    for (int i = 0; i < 3000; ++i) {
        trace << "C 8\n";
        trace << "L " << std::hex << (0x100000 + i * 0x40)
              << std::dec << "\n";
        if (i % 7 == 0)
            trace << "L " << std::hex
                  << (0x40000000 + (i * 977 % 65536) * 0x40)
                  << std::dec << " d\n";
    }
    auto makeKernels = [&] {
        std::istringstream in(trace.str());
        std::vector<std::unique_ptr<cpu::Kernel>> ks;
        ks.push_back(std::make_unique<workloads::TraceKernel>(
            workloads::parseTrace(in)));
        return ks;
    };
    cpu::CoreExecParams exec;
    melody::Platform lp("EMR2S", "Local");
    auto lb = lp.makeBackend(1);
    cpu::MultiCore ml(lp.cpu(), exec, lb.get(), makeKernels());
    const auto base = ml.run();

    melody::Platform tp("EMR2S", "CXL-B");
    auto tb = tp.makeBackend(1);
    cpu::MultiCore mt(tp.cpu(), exec, tb.get(), makeKernels());
    const auto test = mt.run();

    EXPECT_GT(test.wallTicks, base.wallTicks);
    EXPECT_DOUBLE_EQ(base.counters.instructions,
                     test.counters.instructions);
}

/** Counter identity sweep across random suite picks. */
class SuiteInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteInvariants, StallIdentitiesHold)
{
    Rng rng(3000 + GetParam());
    const auto &all = workloads::suite();
    auto w = all[rng.below(all.size())];
    w.blocksPerCore = std::min<std::uint64_t>(w.blocksPerCore, 8000);
    melody::Platform plat("EMR2S", "CXL-A");
    const auto r = melody::runWorkload(w, plat, 11 + GetParam());
    const auto &c = r.counters;
    ASSERT_GT(c.cycles, 0.0) << w.name;
    EXPECT_GE(c.p1 + 1e-6, c.p3) << w.name;
    EXPECT_GE(c.p3 + 1e-6, c.p4) << w.name;
    EXPECT_GE(c.p4 + 1e-6, c.p5) << w.name;
    EXPECT_GE(c.p6 + 1e-6, c.p1 + c.p2) << w.name;
    EXPECT_LE(c.p6, c.cycles + 1e-6) << w.name;
    // Stall decomposition (Eq. 6) is internally consistent.
    const double s = c.sStore() + c.sL1() + c.sL2() + c.sL3() +
                     c.sDram();
    EXPECT_NEAR(s, c.p1 + c.p2, 1e-6) << w.name;
}

INSTANTIATE_TEST_SUITE_P(RandomPicks, SuiteInvariants,
                         ::testing::Range(0, 12));
