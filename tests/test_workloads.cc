/**
 * @file
 * Tests for the 265-workload suite and the synthetic kernels.
 */

#include <gtest/gtest.h>

#include <set>

#include "cpu/multicore.hh"
#include "cpu/profile.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;
using namespace cxlsim::workloads;

TEST(Suite, Has265UniqueWorkloads)
{
    const auto &all = suite();
    EXPECT_EQ(all.size(), 265u);
    std::set<std::string> names;
    for (const auto &w : all)
        names.insert(w.name);
    EXPECT_EQ(names.size(), all.size());
}

TEST(Suite, CoversPaperFamilies)
{
    const auto fams = familyNames();
    for (const char *f : {"SPEC", "GAPBS", "PBBS", "PARSEC", "Cloud",
                          "Phoronix", "YCSB", "Spark", "ML", "ubench"})
        EXPECT_NE(std::find(fams.begin(), fams.end(), f), fams.end())
            << f;
}

TEST(Suite, HeadlinersPresent)
{
    for (const char *n :
         {"603.bwaves_s", "619.lbm_s", "649.fotonik3d_s",
          "654.roms_s", "605.mcf_s", "520.omnetpp_r", "602.gcc_s",
          "631.deepsjeng_s", "508.namd_r", "redis/ycsb-c",
          "voltdb/ycsb-a", "bfs-twitter", "tc-kron", "pr-web",
          "gpt2-small", "llama-7b-decode", "dlrm-inference"})
        EXPECT_TRUE(hasWorkload(n)) << n;
    EXPECT_FALSE(hasWorkload("not-a-workload"));
}

TEST(Suite, ProfilesAreSane)
{
    for (const auto &w : suite()) {
        EXPECT_GE(w.threads, 1u) << w.name;
        EXPECT_GT(w.blocksPerCore, 0u) << w.name;
        EXPECT_GT(w.uopsPerBlock, 0.0) << w.name;
        EXPECT_GE(w.loadsPerBlock, 0.0) << w.name;
        EXPECT_GE(w.workingSetBytes, 1u << 16) << w.name;
        EXPECT_LE(w.seqFrac + w.strideFrac + w.hotFrac, 1.03)
            << w.name;
        EXPECT_GE(w.dependentFrac, 0.0) << w.name;
        EXPECT_LE(w.dependentFrac, 1.0) << w.name;
        EXPECT_GE(w.coldBurst, 1u) << w.name;
        EXPECT_GT(w.instructionsPerCore(), 0u) << w.name;
    }
}

TEST(Suite, PhaseWeightsPositive)
{
    for (const auto &w : suite())
        for (const auto &ph : w.phases) {
            EXPECT_GT(ph.weight, 0.0) << w.name;
            EXPECT_GE(ph.intensity, 0.0) << w.name;
        }
}

TEST(Suite, HeadlinersHavePhases)
{
    EXPECT_GE(byName("602.gcc_s").phases.size(), 2u);
    EXPECT_GE(byName("605.mcf_s").phases.size(), 3u);
    EXPECT_GE(byName("631.deepsjeng_s").phases.size(), 3u);
    EXPECT_GE(byName("508.namd_r").phases.size(), 3u);
}

TEST(Suite, CxlCSubsetIs60Smallest)
{
    const auto sub = cxlCSubset();
    EXPECT_EQ(sub.size(), 60u);
    std::uint64_t maxWs = 0;
    for (const auto &w : sub)
        maxWs = std::max(maxWs, w.workingSetBytes);
    // Everything in the subset fits CXL-C's 16GB.
    EXPECT_LE(maxWs, 16ULL << 30);
    // And nothing excluded is smaller than the subset's largest.
    for (const auto &w : suite()) {
        bool inSub = false;
        for (const auto &s : sub)
            if (s.name == w.name)
                inSub = true;
        if (!inSub) {
            EXPECT_GE(w.workingSetBytes, maxWs == 0 ? 0 : 1u);
        }
    }
}

TEST(Suite, FamilyLookup)
{
    const auto spec = familyWorkloads("SPEC");
    EXPECT_GE(spec.size(), 30u);
    for (const auto &w : spec)
        EXPECT_EQ(w.family, "SPEC");
    EXPECT_TRUE(familyWorkloads("no-such-family").empty());
}

TEST(Kernel, DeterministicStream)
{
    const auto &w = byName("605.mcf_s");
    SyntheticKernel a(w, 0), b(w, 0);
    cpu::Block ba, bb;
    for (int i = 0; i < 2000; ++i) {
        const bool ra = a.next(&ba);
        const bool rb = b.next(&bb);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        ASSERT_EQ(ba.uops, bb.uops);
        ASSERT_EQ(ba.nOps, bb.nOps);
        for (unsigned k = 0; k < ba.nOps; ++k) {
            ASSERT_EQ(ba.ops[k].addr, bb.ops[k].addr);
            ASSERT_EQ(ba.ops[k].isStore, bb.ops[k].isStore);
            ASSERT_EQ(ba.ops[k].dependent, bb.ops[k].dependent);
        }
    }
}

TEST(Kernel, CoresGetDisjointPartitions)
{
    auto w = byName("bfs-web");
    w.blocksPerCore = 5000;
    SyntheticKernel k0(w, 0), k1(w, 1);
    cpu::Block b;
    // Sequential stream addresses of different cores never collide.
    std::set<Addr> seq0;
    while (k0.next(&b))
        for (unsigned i = 0; i < b.nOps; ++i)
            if (b.ops[i].streamId == 1)
                seq0.insert(b.ops[i].addr);
    while (k1.next(&b))
        for (unsigned i = 0; i < b.nOps; ++i)
            if (b.ops[i].streamId == 1) {
                EXPECT_EQ(seq0.count(b.ops[i].addr), 0u);
            }
}

TEST(Kernel, EmitsConfiguredRates)
{
    auto w = byName("pts-openssl");
    w.blocksPerCore = 40000;
    SyntheticKernel k(w, 0);
    cpu::Block b;
    std::uint64_t blocks = 0, loads = 0, stores = 0, uops = 0;
    while (k.next(&b)) {
        ++blocks;
        uops += b.uops;
        for (unsigned i = 0; i < b.nOps; ++i)
            (b.ops[i].isStore ? stores : loads) += 1;
    }
    EXPECT_EQ(blocks, w.blocksPerCore);
    EXPECT_NEAR(static_cast<double>(loads) / blocks,
                w.loadsPerBlock, w.loadsPerBlock * 0.15);
    EXPECT_NEAR(static_cast<double>(stores) / blocks,
                w.storesPerBlock, w.storesPerBlock * 0.15);
    EXPECT_NEAR(static_cast<double>(uops) / blocks, w.uopsPerBlock,
                w.uopsPerBlock * 0.1);
}

TEST(Kernel, AddressesStayWithinWorkingSet)
{
    auto w = byName("redis/ycsb-a");
    w.blocksPerCore = 5000;
    for (unsigned core = 0; core < 2; ++core) {
        SyntheticKernel k(w, core);
        cpu::Block b;
        while (k.next(&b))
            for (unsigned i = 0; i < b.nOps; ++i)
                ASSERT_LT(b.ops[i].addr, w.workingSetBytes);
    }
}

TEST(Kernel, PhasesModulateIntensity)
{
    auto w = byName("602.gcc_s");  // heavy 2/3, light 1/3
    w.blocksPerCore = 60000;
    SyntheticKernel k(w, 0);
    cpu::Block b;
    std::uint64_t early = 0, late = 0, blocks = 0;
    while (k.next(&b)) {
        std::uint64_t loads = 0;
        for (unsigned i = 0; i < b.nOps; ++i)
            loads += !b.ops[i].isStore;
        if (blocks < w.blocksPerCore * 6 / 10)
            early += loads;
        else if (blocks >= w.blocksPerCore * 7 / 10)
            late += loads;
        ++blocks;
    }
    // First phase is ~4x more intense than the tail phase.
    EXPECT_GT(early, late * 2);
}

TEST(Kernel, PreloadRespectsBudget)
{
    auto w = byName("ubench-rnd-64m-i1");
    SyntheticKernel k(w, 0);
    const std::uint64_t big = k.preloadRange(128ULL << 20).lines;
    const std::uint64_t small = k.preloadRange(4ULL << 20).lines;
    // Generous budget: whole 64MB partition; tight budget: hot set.
    EXPECT_EQ(big, (64ULL << 20) / 64);
    EXPECT_LT(small, (4ULL << 20) / 64);
    EXPECT_GT(small, 0u);
}

TEST(Kernel, PreloadRangeStaysInOwnPartition)
{
    // Cache::fill needs the cores' ranges to be pairwise disjoint
    // in the shared LLC. Each range stays inside the lines its own
    // partition touches, and because a partition need not start on
    // a line boundary, consecutive ranges are also checked not to
    // share that boundary line.
    std::size_t checked = 0;
    for (const cpu::CpuProfile &cpu :
         {cpu::skx(), cpu::spr(), cpu::emr(), cpu::emrPrime()}) {
        for (const auto &w : suite()) {
            const auto kernels = makeKernels(w);
            const std::uint64_t budget =
                cpu::MultiCore::preloadBudget(cpu, kernels.size());
            const std::uint64_t partBytes =
                w.workingSetBytes / kernels.size();
            Addr prevEnd = 0;
            for (std::size_t c = 0; c < kernels.size(); ++c) {
                const cpu::LineRange r =
                    kernels[c]->preloadRange(budget);
                const Addr partBase = c * partBytes;
                const Addr end = r.base + r.lines * kCacheLineBytes;
                const std::string where = cpu.name + " " + w.name +
                                          " core " +
                                          std::to_string(c);
                EXPECT_GT(r.lines, 0u) << where;
                EXPECT_GE(r.base, lineAlign(partBase)) << where;
                EXPECT_LE(end, partBase + partBytes) << where;
                EXPECT_GE(r.base, prevEnd) << where;
                prevEnd = end;
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, 4 * suite().size());
}

TEST(Kernel, DependentOnlyOnColdLoads)
{
    auto w = byName("520.omnetpp_r");
    w.blocksPerCore = 30000;
    SyntheticKernel k(w, 0);
    cpu::Block b;
    std::uint64_t dep = 0, total = 0;
    while (k.next(&b))
        for (unsigned i = 0; i < b.nOps; ++i) {
            if (b.ops[i].isStore)
                continue;
            ++total;
            dep += b.ops[i].dependent;
        }
    EXPECT_GT(dep, 0u);
    EXPECT_LT(dep, total / 2);  // hot/stream loads never dependent
}
