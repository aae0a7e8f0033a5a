/**
 * @file
 * Unit tests for the simulation kernel: time base, RNG and
 * unsigned-option parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/logging.hh"
#include "sim/rng.hh"
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
