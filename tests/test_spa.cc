/**
 * @file
 * Tests for Spa: breakdown identities, estimator accuracy
 * (Figure 11's property), period-based analysis, prefetcher
 * coverage transfer (Figure 12) and the placement advisor (§5.7).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <tuple>

#include "core/platform.hh"
#include "core/slowdown.hh"
#include "spa/advisor.hh"
#include "spa/breakdown.hh"
#include "spa/period.hh"
#include "spa/prefetch_analysis.hh"
#include "workloads/suite.hh"

using namespace cxlsim;
using namespace cxlsim::spa;

namespace {

struct RunPair
{
    cpu::RunResult base;
    cpu::RunResult test;
};

RunPair
runPair(const std::string &name, const std::string &memory,
        std::uint64_t blocks = 40000, Tick sampling = 0)
{
    workloads::WorkloadProfile w = workloads::byName(name);
    w.blocksPerCore = blocks;
    melody::Platform lp("EMR2S", "Local");
    melody::Platform tp("EMR2S", memory);
    RunPair rp;
    rp.base = melody::runWorkload(w, lp, 91, true, sampling);
    rp.test = melody::runWorkload(w, tp, 91, true, sampling);
    return rp;
}

}  // namespace

TEST(Breakdown, ZeroForIdenticalRuns)
{
    const auto rp = runPair("pts-openssl", "Local", 20000);
    const Breakdown b = computeBreakdown(rp.base, rp.base);
    EXPECT_DOUBLE_EQ(b.actual, 0.0);
    EXPECT_DOUBLE_EQ(b.dram, 0.0);
    EXPECT_DOUBLE_EQ(b.estMemory, 0.0);
}

TEST(Breakdown, ComponentsPlusOtherEqualActual)
{
    const auto rp = runPair("605.mcf_s", "CXL-A");
    const Breakdown b = computeBreakdown(rp.base, rp.test);
    EXPECT_NEAR(b.componentsSum() + b.core + b.other, b.actual,
                1e-6);
    EXPECT_GT(b.actual, 0.0);
}

/** The Figure 11 property: differential-stall estimators track the
 *  actual slowdown within a few percent, across workloads and
 *  setups. */
class SpaAccuracy : public ::testing::TestWithParam<
                        std::tuple<std::string, std::string>>
{
};

namespace {

/** "605.mcf_s" on "CXL-A" -> "605_mcf_s_CXL_A": a stable test name. */
std::string
spaCaseName(const ::testing::TestParamInfo<SpaAccuracy::ParamType> &info)
{
    std::string s =
        std::get<0>(info.param) + "_" + std::get<1>(info.param);
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

}  // namespace

TEST_P(SpaAccuracy, EstimatorsTrackActualSlowdown)
{
    const auto [name, memory] = GetParam();
    const auto rp = runPair(name, memory);
    const Breakdown b = computeBreakdown(rp.base, rp.test);
    // Δs/c (total stalls) is the tightest estimator (Fig 11a).
    EXPECT_NEAR(b.estTotalStalls, b.actual,
                std::max(5.0, 0.12 * std::abs(b.actual)))
        << name << " on " << memory;
    // Δs_Memory (Fig 11c) tracks within 5% of cycles for >95% of
    // workloads in the paper; allow a little more here.
    EXPECT_NEAR(b.estMemory, b.actual,
                std::max(6.0, 0.15 * std::abs(b.actual)))
        << name << " on " << memory;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndSetups, SpaAccuracy,
    ::testing::Combine(
        ::testing::Values(std::string("605.mcf_s"),
                          std::string("redis/ycsb-c"),
                          std::string("ubench-chase-4096m-i17"),
                          std::string("bfs-web"),
                          std::string("519.lbm_r")),
        ::testing::Values(std::string("NUMA"), std::string("CXL-A"),
                          std::string("CXL-B"))),
    spaCaseName);

TEST(Breakdown, DramDominatedForChase)
{
    const auto rp = runPair("ubench-chase-4096m-i17", "CXL-A");
    const Breakdown b = computeBreakdown(rp.base, rp.test);
    EXPECT_GT(b.dram, 0.7 * b.actual);
    EXPECT_LT(std::abs(b.store), 0.1 * b.actual + 1.0);
}

TEST(Breakdown, CacheComponentsForStreamingWorkload)
{
    // Finding #4: prefetch-timeliness loss shows up as cache
    // slowdown for stream-heavy workloads (on EMR: mostly LLC).
    const auto rp = runPair("603.bwaves_s", "CXL-B", 15000);
    const Breakdown b = computeBreakdown(rp.base, rp.test);
    EXPECT_GT(b.l1 + b.l2 + b.l3, 0.5);
}

TEST(Period, CounterInterpolation)
{
    std::vector<cpu::CounterSample> samples;
    for (int k = 1; k <= 5; ++k) {
        cpu::CounterSample s;
        s.when = k * kTicksPerMs;
        s.counters.instructions = k * 1000.0;
        s.counters.cycles = k * 2000.0;
        s.counters.p1 = k * 100.0;
        samples.push_back(s);
    }
    const auto mid = counterAtInstructions(samples, 2500.0);
    EXPECT_NEAR(mid.cycles, 5000.0, 1e-9);
    EXPECT_NEAR(mid.p1, 250.0, 1e-9);
    // Beyond the last sample clamps.
    const auto end = counterAtInstructions(samples, 99999.0);
    EXPECT_NEAR(end.instructions, 5000.0, 1e-9);
}

TEST(Period, AnalysisRevealsPhases)
{
    // 602.gcc: heavy first two thirds, light tail (Fig 16a).
    const auto rp =
        runPair("602.gcc_s", "CXL-B", 120000, usToTicks(15));
    ASSERT_GT(rp.base.samples.size(), 10u);
    ASSERT_GT(rp.test.samples.size(), 10u);
    const double totalInstr = rp.base.counters.instructions;
    const auto periods = periodAnalysis(rp.base.samples,
                                        rp.test.samples,
                                        totalInstr / 24.0);
    ASSERT_GE(periods.size(), 16u);

    double early = 0, late = 0;
    const std::size_t third = periods.size() / 3;
    for (std::size_t i = 0; i < third; ++i)
        early += periods[i].breakdown.actual;
    for (std::size_t i = periods.size() - third;
         i < periods.size(); ++i)
        late += periods[i].breakdown.actual;
    // The early phase carries clearly more slowdown.
    EXPECT_GT(early / third, late / third + 3.0);
}

TEST(Period, PeriodsConserveTotals)
{
    const auto rp =
        runPair("605.mcf_s", "CXL-A", 60000, usToTicks(15));
    const double totalInstr = rp.base.counters.instructions;
    const auto periods = periodAnalysis(rp.base.samples,
                                        rp.test.samples,
                                        totalInstr / 16.0);
    ASSERT_GE(periods.size(), 8u);
    for (const auto &p : periods) {
        EXPECT_TRUE(std::isfinite(p.breakdown.actual));
        EXPECT_GT(p.instructions, 0.0);
    }
    // Period boundaries are increasing.
    for (std::size_t i = 1; i < periods.size(); ++i)
        EXPECT_GT(periods[i].instructions,
                  periods[i - 1].instructions);
}

TEST(Prefetch, CoverageTransfersFromL2pfToL1pf)
{
    // Figure 12a: the decrease in L2PF-L3-miss under CXL is
    // compensated by an increase in L1PF-L3-miss (y = x).
    const auto rp = runPair("603.bwaves_s", "NUMA", 40000);
    const PrefetchDelta d = prefetchDelta(rp.base, rp.test);
    EXPECT_GT(d.l2pfL3MissDecrease, 0.0);
    EXPECT_GT(d.l1pfL3MissIncrease, 0.0);
    // Same order of magnitude (the paper reports nearly y = x).
    const double ratio =
        d.l1pfL3MissIncrease / d.l2pfL3MissDecrease;
    EXPECT_GT(ratio, 0.2);
    EXPECT_LT(ratio, 3.0);
    // Coverage drops under CXL (2-38% in the paper).
    EXPECT_GT(d.coverageDropPct(), 0.15);
}

TEST(Advisor, SuggestsPinningForBurstyPeriods)
{
    std::vector<PeriodBreakdown> periods(10);
    for (std::size_t i = 0; i < periods.size(); ++i)
        periods[i].breakdown.actual = (i < 3) ? 40.0 : 2.0;
    const double frac = suggestPinnedFraction(periods, 10.0);
    EXPECT_GT(frac, 0.04);
    EXPECT_LE(frac, 0.5);

    for (auto &p : periods)
        p.breakdown.actual = 1.0;
    EXPECT_EQ(suggestPinnedFraction(periods, 10.0), 0.0);
}

TEST(Advisor, PinningHotObjectsCutsSlowdown)
{
    // §5.7: relocating the hot (Zipf-head) objects to local DRAM
    // recovers most of the CXL slowdown (13% -> 2% in the paper).
    workloads::WorkloadProfile w = workloads::byName("605.mcf_s");
    w.blocksPerCore = 50000;
    const TuningResult r =
        tunePlacement(w, "EMR2S", "CXL-A", 0.3, 93);
    EXPECT_GT(r.slowdownAllCxl, 10.0);
    EXPECT_LT(r.slowdownPinned, r.slowdownAllCxl * 0.6);
    EXPECT_GT(r.fastRequestFraction, 0.1);
}

TEST(Breakdown, FromRawCountersConsistent)
{
    cpu::CounterSet base;
    base.cycles = 1000;
    base.p1 = 300;
    base.p3 = 250;
    base.p4 = 200;
    base.p5 = 150;
    base.p2 = 50;
    base.p6 = 400;
    cpu::CounterSet test = base;
    test.cycles = 1400;
    test.p1 = 650;
    test.p3 = 600;
    test.p4 = 550;
    test.p5 = 500;
    test.p2 = 60;
    test.p6 = 810;

    const Breakdown b =
        computeBreakdown(base, 1000, test, 1400);
    EXPECT_NEAR(b.actual, 40.0, 1e-9);
    EXPECT_NEAR(b.dram, 35.0, 1e-9);     // dP5/c
    EXPECT_NEAR(b.l3, 0.0, 1e-9);        // d(P4-P5)/c
    EXPECT_NEAR(b.l2, 0.0, 1e-9);
    EXPECT_NEAR(b.l1, 0.0, 1e-9);        // d(P1-P3)/c
    EXPECT_NEAR(b.store, 1.0, 1e-9);     // dP2/c
    EXPECT_NEAR(b.estTotalStalls, 41.0, 1e-9);
    EXPECT_NEAR(b.estMemory, 36.0, 1e-9);
}

TEST(Breakdown, CounterSetArithmetic)
{
    cpu::CounterSet a;
    a.p1 = 10;
    a.l2pfL3Miss = 100;
    cpu::CounterSet b;
    b.p1 = 3;
    b.l2pfL3Miss = 40;
    const cpu::CounterSet d = a - b;
    EXPECT_DOUBLE_EQ(d.p1, 7.0);
    EXPECT_EQ(d.l2pfL3Miss, 60u);
    cpu::CounterSet acc;
    acc += a;
    acc += b;
    EXPECT_DOUBLE_EQ(acc.p1, 13.0);
    EXPECT_EQ(acc.l2pfL3Miss, 140u);
}

TEST(Period, EmptyInputsAreSafe)
{
    EXPECT_TRUE(periodAnalysis({}, {}, 1000.0).empty());
    std::vector<cpu::CounterSample> one(1);
    one[0].when = kTicksPerMs;
    one[0].counters.instructions = 500;
    EXPECT_TRUE(periodAnalysis(one, one, 0.0).empty());
    // Period longer than the whole run -> no complete periods.
    EXPECT_TRUE(periodAnalysis(one, one, 1e12).empty());
}

TEST(Advisor, ZeroFractionWhenNoPeriods)
{
    EXPECT_EQ(suggestPinnedFraction({}, 10.0), 0.0);
}
