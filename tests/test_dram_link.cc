/**
 * @file
 * Tests for the DRAM channel/bank model and the link models.
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"
#include "dram/channel.hh"
#include "dram/timing.hh"
#include "link/link.hh"
#include "sim/rng.hh"

using namespace cxlsim;
using namespace cxlsim::dram;
using namespace cxlsim::link;

TEST(DramTiming, PresetPeaks)
{
    EXPECT_NEAR(ddr4_2933().peakGBps(), 23.5, 0.5);
    EXPECT_NEAR(ddr5_4800().peakGBps(), 38.4, 0.5);
    EXPECT_GT(ddr4_2933().tRFC, 100.0);
    EXPECT_GT(ddr5_4800().tREFI, 1000.0);
}

TEST(Bank, TickTableMatchesPerAccessConversion)
{
    // The table rounds each nanosecond sum once, as converting it on
    // every access did, so every outcome costs the same ticks.
    for (const DramTiming &t : {ddr4_2933(), ddr5_4800()}) {
        const RowTickTable table = rowTickTable(t);
        const auto &hit = table[static_cast<unsigned>(RowResult::kHit)];
        EXPECT_EQ(hit.latency, nsToTicks(t.tCL)) << t.name;
        EXPECT_EQ(hit.occupancy, nsToTicks(t.burst)) << t.name;
        const auto &miss = table[static_cast<unsigned>(RowResult::kMiss)];
        EXPECT_EQ(miss.latency, nsToTicks(t.tRP + t.tRCD + t.tCL))
            << t.name;
        EXPECT_EQ(miss.occupancy, nsToTicks(t.tRP + t.tRCD + t.burst))
            << t.name;
        const auto &cold = table[static_cast<unsigned>(RowResult::kCold)];
        EXPECT_EQ(cold.latency, nsToTicks(t.tRCD + t.tCL)) << t.name;
        EXPECT_EQ(cold.occupancy, nsToTicks(t.tRCD + t.burst)) << t.name;
    }
}

TEST(Bank, RowHitFasterThanMiss)
{
    const DramTiming t = ddr5_4800();
    const RowTickTable ticks = rowTickTable(t);
    Bank b;
    RowResult r;
    const Tick firstDone = b.access(5, 0, ticks, &r);
    EXPECT_EQ(r, RowResult::kCold);

    Bank hitBank = b;
    const Tick hitDone = hitBank.access(5, firstDone, ticks, &r);
    EXPECT_EQ(r, RowResult::kHit);

    Bank missBank = b;
    const Tick missDone = missBank.access(9, firstDone, ticks, &r);
    EXPECT_EQ(r, RowResult::kMiss);

    EXPECT_LT(hitDone, missDone);
    EXPECT_NEAR(ticksToNs(hitDone - firstDone), t.tCL, 0.01);
    EXPECT_NEAR(ticksToNs(missDone - firstDone),
                t.tRP + t.tRCD + t.tCL, 0.01);
}

TEST(Bank, RowHitsPipelineAtBurstRate)
{
    const DramTiming t = ddr5_4800();
    const RowTickTable ticks = rowTickTable(t);
    Bank b;
    RowResult r;
    b.access(1, 0, ticks, &r);
    const Tick free1 = b.freeAt();
    b.access(1, free1, ticks, &r);
    EXPECT_EQ(r, RowResult::kHit);
    // Occupancy per row hit is the burst time, far below tCL.
    EXPECT_NEAR(ticksToNs(b.freeAt() - free1), t.burst, 0.01);
}

TEST(Bank, BlockDelaysNextAccess)
{
    Bank b;
    b.block(nsToTicks(1000));
    RowResult r;
    const Tick done = b.access(0, 0, rowTickTable(ddr4_2933()), &r);
    EXPECT_GE(done, nsToTicks(1000));
}

TEST(Channel, SequentialStreamGetsRowHits)
{
    ChannelConfig cfg;
    cfg.timing = ddr5_4800();
    Channel c(cfg);
    Tick now = 0;
    for (Addr a = 0; a < 64 * 1024; a += kCacheLineBytes)
        now = c.access(a, false, now);
    EXPECT_GT(c.stats().rowHitRate(), 0.95);
}

TEST(Channel, RandomAccessesMissRows)
{
    ChannelConfig cfg;
    cfg.timing = ddr4_2933();
    Channel c(cfg);
    Rng r(3);
    Tick now = 0;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = r.below(1 << 22) * kCacheLineBytes;
        now = c.access(a, false, now) + nsToTicks(50);
    }
    EXPECT_LT(c.stats().rowHitRate(), 0.3);
}

TEST(Channel, StreamingBandwidthNearPeak)
{
    ChannelConfig cfg;
    cfg.timing = ddr5_4800();
    cfg.refreshHiding = 1.0;
    Channel c(cfg);
    const int n = 100000;
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        last = c.access(static_cast<Addr>(i) * kCacheLineBytes,
                        false, 0);
    const double gbps =
        n * 64.0 / ticksToNs(last);
    EXPECT_GT(gbps, cfg.timing.peakGBps() * 0.9);
    EXPECT_LE(gbps, cfg.timing.peakGBps() * 1.01);
}

TEST(Channel, VisibleRefreshOnlyWhenNotHidden)
{
    for (double hiding : {0.0, 1.0}) {
        ChannelConfig cfg;
        cfg.timing = ddr4_2933();
        cfg.refreshHiding = hiding;
        Channel c(cfg);
        Tick now = 0;
        // Walk long enough to pass many tREFI windows.
        for (int i = 0; i < 50000; ++i) {
            now = c.access(static_cast<Addr>(i % 4096) *
                               kCacheLineBytes,
                           false, now) +
                  nsToTicks(10);
        }
        if (hiding == 0.0)
            EXPECT_GT(c.stats().refreshStalls, 0u);
        else
            EXPECT_EQ(c.stats().refreshStalls, 0u);
    }
}

TEST(Channel, TurnaroundCharged)
{
    ChannelConfig cfg;
    cfg.timing = ddr5_4800();
    Channel c(cfg);
    Tick now = 0;
    for (int i = 0; i < 100; ++i)
        now = c.access(static_cast<Addr>(i) * kCacheLineBytes,
                       i % 2 == 0, now);
    EXPECT_GT(c.stats().turnarounds, 50u);
    EXPECT_EQ(c.stats().reads + c.stats().writes, 100u);
}

TEST(Channel, CompletionMonotonicUnderBackToBackLoad)
{
    ChannelConfig cfg;
    cfg.timing = ddr4_2933();
    Channel c(cfg);
    Tick prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tick done = c.access(
            static_cast<Addr>(i) * kCacheLineBytes, false, 0);
        EXPECT_GE(done, prev);  // shared bus serializes
        prev = done;
    }
}

TEST(DuplexLink, DirectionsIndependent)
{
    LinkConfig cfg{.gbpsPerDir = 32.0, .propagationNs = 10.0};
    DuplexLink l(cfg);
    const Tick r1 = l.send(64, Dir::kFromDevice, 0);
    const Tick w1 = l.send(64, Dir::kToDevice, 0);
    // Neither waited for the other: both = ser + prop.
    const Tick expect = serializationTicks(64, 32.0) + nsToTicks(10);
    EXPECT_EQ(r1, expect);
    EXPECT_EQ(w1, expect);
}

TEST(DuplexLink, SerializationQueues)
{
    LinkConfig cfg{.gbpsPerDir = 32.0, .propagationNs = 0.0};
    DuplexLink l(cfg);
    const Tick first = l.send(64, Dir::kFromDevice, 0);
    const Tick second = l.send(64, Dir::kFromDevice, 0);
    EXPECT_EQ(second, 2 * first);
    EXPECT_EQ(l.stats().transfers[1], 2u);
    EXPECT_EQ(l.stats().bytes[1], 128u);
}

TEST(DuplexLink, BandwidthCapProperty)
{
    LinkConfig cfg{.gbpsPerDir = 24.0, .propagationNs = 15.0};
    DuplexLink l(cfg);
    const int n = 50000;
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        last = l.send(64, Dir::kFromDevice, 0);
    const double gbps = n * 64.0 / ticksToNs(last);
    EXPECT_NEAR(gbps, 24.0, 0.5);
}

TEST(HalfDuplexLink, TurnaroundOnDirectionFlip)
{
    LinkConfig cfg{.gbpsPerDir = 21.0,
                   .propagationNs = 0.0,
                   .turnaroundNs = 8.0};
    HalfDuplexLink l(cfg);
    const Tick a = l.send(64, Dir::kToDevice, 0);
    const Tick b = l.send(64, Dir::kToDevice, a);
    const Tick sameDirDelta = b - a;
    const Tick c = l.send(64, Dir::kFromDevice, b);
    const Tick flipDelta = c - b;
    EXPECT_NEAR(ticksToNs(flipDelta - sameDirDelta), 8.0, 0.01);
}

TEST(HalfDuplexLink, SharedMediumSerializesBothDirections)
{
    LinkConfig cfg{.gbpsPerDir = 21.0,
                   .propagationNs = 0.0,
                   .turnaroundNs = 0.0};
    HalfDuplexLink l(cfg);
    const int n = 20000;
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        last = l.send(64, i % 2 ? Dir::kToDevice : Dir::kFromDevice, 0);
    const double gbps = n * 64.0 / ticksToNs(last);
    // Both directions share 21 GB/s (unlike a duplex link's 42).
    EXPECT_NEAR(gbps, 21.0, 0.5);
}
