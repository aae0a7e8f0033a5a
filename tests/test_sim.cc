/**
 * @file
 * Unit tests for the simulation kernel: time base, RNG, the
 * tournament-tree scheduler and unsigned-option parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "sim/fixed_divisor.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/tournament_tree.hh"
#include "sim/types.hh"

using namespace cxlsim;

TEST(Types, NsTickConversionRoundTrips)
{
    EXPECT_EQ(nsToTicks(1.0), kTicksPerNs);
    EXPECT_EQ(nsToTicks(114.0), 114 * kTicksPerNs);
    EXPECT_DOUBLE_EQ(ticksToNs(nsToTicks(250.0)), 250.0);
    EXPECT_EQ(usToTicks(1.0), kTicksPerUs);
}

TEST(Types, LineAlign)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(130), 128u);
}

TEST(FixedDivisor, MatchesDivisionAndRemainder)
{
    using U = std::uint64_t;
    for (const U n : {U{1}, U{2}, U{6}, U{8}, U{16}, U{32}, U{8192}}) {
        const FixedDivisor d(n);
        for (const U x : {U{0}, n - 1, n, (U{1} << 58) - 1, ~U{0}}) {
            EXPECT_EQ(d.quot(x), x / n) << x << " / " << n;
            EXPECT_EQ(d.rem(x), x % n) << x << " % " << n;
        }
    }
}

TEST(TournamentTree, MatchesPriorityQueueReference)
{
    // Reference: a min-heap of (tick, index, version); an entry is
    // live while its index is live and its version is current.
    using Entry = std::tuple<Tick, std::size_t, std::uint64_t>;
    for (const std::size_t n : {1, 2, 3, 33, 745}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        TournamentTree tree(n);
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref;
        std::vector<std::uint64_t> version(n, 0);
        std::vector<bool> live(n, false);
        const auto set = [&](std::size_t i, Tick t) {
            tree.set(i, t);
            live[i] = true;
            ref.emplace(t, i, ++version[i]);
        };
        const auto retire = [&](std::size_t i) {
            tree.retire(i);
            live[i] = false;
            ++version[i];
        };
        const auto refTop = [&]() -> const Entry * {
            while (!ref.empty() &&
                   (!live[std::get<1>(ref.top())] ||
                    version[std::get<1>(ref.top())] !=
                        std::get<2>(ref.top())))
                ref.pop();
            return ref.empty() ? nullptr : &ref.top();
        };

        EXPECT_TRUE(tree.empty());
        EXPECT_TRUE(tree.before(0, n - 1));
        // Ticks on a coarse grid, so ties are common.
        constexpr Tick kGrid = 100;
        Rng rng(n);
        for (std::size_t i = 0; i < n; ++i)
            set(i, rng.below(4) * kGrid);
        std::size_t ties = 0;
        Tick lastTick = 0;
        for (int step = 0; step < 20000; ++step) {
            const Entry *top = refTop();
            ASSERT_EQ(tree.empty(), top == nullptr) << "step " << step;
            Tick t = lastTick;
            if (top) {
                t = std::get<0>(*top);
                const std::size_t i = std::get<1>(*top);
                ASSERT_EQ(tree.top(), i) << "step " << step;
                ties += t == lastTick;
                lastTick = t;
                EXPECT_FALSE(tree.before(t, i));
                EXPECT_FALSE(tree.before(t + 1, 0));
                if (i > 0) {
                    EXPECT_TRUE(tree.before(t, i - 1));
                }
                if (t > 0) {
                    EXPECT_TRUE(tree.before(t - 1, n - 1));
                }
            }
            const std::size_t any = rng.below(n);
            switch (rng.below(10)) {
            case 0: case 1: case 2: case 3: case 4: case 5:
                // The drivers' move: the earliest entry acts again.
                if (top)
                    set(std::get<1>(*top), t + rng.below(4) * kGrid);
                break;
            case 6:
                if (top)
                    retire(std::get<1>(*top));
                break;
            case 7:
                retire(any);
                break;
            default:
                // Any entry, live or not, to any tick near the front.
                set(any, t + rng.below(3) * kGrid);
                break;
            }
        }
        EXPECT_GT(ties, 1000u);
    }
}

TEST(TournamentTree, RefusesTicksThatDoNotFitTheKey)
{
    // 745 entries take 10 index bits, leaving 54 for the tick.
    const Tick limit = ~Tick{0} >> 10;
    TournamentTree tree(745);
    tree.set(744, limit - 1);
    tree.set(3, limit - 1);
    EXPECT_EQ(tree.top(), 3u);
    tree.retire(3);
    EXPECT_EQ(tree.top(), 744u);
    EXPECT_DEATH(tree.set(0, limit), "tick too large");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(n), n);
    }
    EXPECT_EQ(r.below(1), 0u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(11);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_FALSE(r.chance(-1.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_TRUE(r.chance(2.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += r.exponential(250.0);
    EXPECT_NEAR(sum / 20000.0, 250.0, 10.0);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng r(17);
    double lo = 1e9, hi = 0;
    for (int i = 0; i < 20000; ++i) {
        const double v = r.boundedPareto(100.0, 3000.0, 1.2);
        ASSERT_GE(v, 99.999);
        ASSERT_LE(v, 3000.001);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    // Heavy tail: both ends of the range get visited.
    EXPECT_LT(lo, 120.0);
    EXPECT_GT(hi, 1500.0);
}

TEST(Rng, BoundedParetoIsHeavyTailedTowardLow)
{
    Rng r(19);
    int below300 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        below300 += r.boundedPareto(100.0, 3000.0, 1.5) < 300.0;
    // Most mass near the lower bound.
    EXPECT_GT(below300, n / 2);
}

TEST(Rng, ZipfBoundsAndSkew)
{
    Rng r(23);
    const std::uint64_t n = 1000;
    std::uint64_t lowHalf = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = r.zipf(n, 0.9);
        ASSERT_LT(v, n);
        lowHalf += v < n / 2;
    }
    // Skew concentrates on low ranks.
    EXPECT_GT(lowHalf, 14000u);

    // Zero skew is roughly uniform.
    lowHalf = 0;
    for (int i = 0; i < 20000; ++i)
        lowHalf += r.zipf(n, 0.0) < n / 2;
    EXPECT_NEAR(static_cast<double>(lowHalf), 10000.0, 600.0);
}

TEST(Rng, NormalMoments)
{
    Rng r(29);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.fork(1);
    Rng c = a.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += b.next() == c.next();
    EXPECT_LT(same, 2);
}

TEST(ParseUnsigned, AcceptsDigitsRejectsSignsOverflowAndGarbage)
{
    EXPECT_EQ(parseUnsigned("0", "n"), 0u);
    EXPECT_EQ(parseUnsigned("007", "n"), 7u);
    EXPECT_EQ(parseUnsigned("4294967295", "n"), 4294967295u);
    EXPECT_EQ(parseUnsigned("9", "n", 9), 9u);
    EXPECT_THROW(parseUnsigned("10", "n", 9), ConfigError);
    for (const char *bad :
         {"", "-1", "-0", "+1", " 1", "1 ", "1x", "0x10",
          "4294967296", "18446744073709551615",
          "99999999999999999999999"})
        EXPECT_THROW(parseUnsigned(bad, "n"), ConfigError)
            << "'" << bad << "'";
    try {
        parseUnsigned("-1", "--jobs");
        FAIL() << "no ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("--jobs"),
                  std::string::npos);
    }
}
