/**
 * @file
 * Golden digests of the memory path.
 *
 * Each case drives one seeded stream of mixed reads and writes (half
 * sequential lines, half random ones, three writes in ten) through a
 * backend built by melody::Platform, and hashes every completion tick,
 * the backend's request counters and, behind a CXL device, the
 * controller's counters and its hiccup time. The pinned values were
 * captured from the implementation that converted every latency from
 * nanoseconds on each request and split addresses with `/` and `%`,
 * so a change to how the path computes its constants must leave each
 * digest as it is. The CXL-B and CXL-C streams run past their
 * hiccup onset, so the utilization-coupled hiccup probability is
 * exercised, and CXL-C's past its thermal threshold.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/platform.hh"
#include "cxl/device.hh"
#include "mem/cxl_backend.hh"
#include "mem/numa_backend.hh"
#include "sim/rng.hh"

using namespace cxlsim;

namespace {

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The CXL device at the bottom of @p be's chain, if any. */
const cxl::CxlDevice *
findDevice(mem::MemoryBackend &be)
{
    if (auto *cxl = dynamic_cast<mem::CxlBackend *>(&be))
        return &cxl->device();
    if (auto *numa = dynamic_cast<mem::NumaBackend *>(&be))
        return findDevice(numa->target());
    return nullptr;
}

void
addStats(Digest &d, const mem::BackendStats &s)
{
    d.add(s.reads);
    d.add(s.writes);
}

struct GoldenRun
{
    std::uint64_t digest;
    /** Controller state after the stream; zero without a device. */
    cxl::ControllerStats ctrl;
    double utilization = 0.0;
};

/**
 * Issue @p n requests to a fresh @p memory backend on @p server,
 * one every @p mean_gap_ns on average.
 */
GoldenRun
runStream(const std::string &server, const std::string &memory,
          double mean_gap_ns, unsigned n)
{
    const melody::Platform platform(server, memory);
    mem::BackendPtr be = platform.makeBackend(11);
    Rng rng(29);
    const Tick gapSpan = 2 * nsToTicks(mean_gap_ns);
    Digest d;
    Tick now = 0;
    Addr seq = 0;
    for (unsigned i = 0; i < n; ++i) {
        now += rng.below(gapSpan + 1);
        Addr addr;
        if (rng.chance(0.5)) {
            addr = seq;
            seq += kCacheLineBytes;
        } else {
            addr = rng.below(1ULL << 28) * kCacheLineBytes;
        }
        const mem::ReqType type = rng.chance(0.3)
                                      ? mem::ReqType::kWriteback
                                      : mem::ReqType::kDemandLoad;
        d.add(be->access(addr, type, now));
    }
    addStats(d, be->stats());
    if (auto *numa = dynamic_cast<mem::NumaBackend *>(be.get()))
        addStats(d, numa->target().stats());

    GoldenRun run{};
    if (const cxl::CxlDevice *dev = findDevice(*be)) {
        run.ctrl = dev->controllerStats();
        run.utilization = dev->utilization();
        d.add(run.ctrl.requests);
        d.add(run.ctrl.hiccups);
        d.add(run.ctrl.thermalPauses);
        d.add(run.ctrl.hiccupNs);
        d.add(dev->linkBytes());
    }
    run.digest = d.value();
    return run;
}

constexpr unsigned kRequests = 200000;

}  // namespace

TEST(MemPathGolden, EmrLocalEightChannels)
{
    const GoldenRun r = runStream("EMR2S", "Local", 0.6, kRequests);
    EXPECT_EQ(r.digest, 0xc12ff7e40d397712ULL);
}

TEST(MemPathGolden, SkxLocalSixChannels)
{
    // Six channels: the channel split takes its `/` and `%` path.
    const GoldenRun r = runStream("SKX2S", "Local", 0.8, kRequests);
    EXPECT_EQ(r.digest, 0x43107d744cd54c26ULL);
}

TEST(MemPathGolden, EmrNuma)
{
    const GoldenRun r = runStream("EMR2S", "NUMA", 0.8, kRequests);
    EXPECT_EQ(r.digest, 0xec5740e02d2c7e61ULL);
}

TEST(MemPathGolden, CxlBPastHiccupOnset)
{
    const GoldenRun r = runStream("EMR2S", "CXL-B", 3.2, kRequests);
    EXPECT_GT(r.utilization, cxl::cxlB().hiccups.onsetUtil);
    EXPECT_GT(r.ctrl.hiccups, 0u);
    EXPECT_EQ(r.digest, 0x6f91e0ccc9d8c68bULL);
}

TEST(MemPathGolden, CxlCPastHiccupOnsetAndThermalThreshold)
{
    const GoldenRun r = runStream("EMR2S", "CXL-C", 3.5, kRequests);
    EXPECT_GT(r.utilization, cxl::cxlC().hiccups.onsetUtil);
    EXPECT_GT(r.ctrl.hiccups, 0u);
    EXPECT_GT(r.ctrl.thermalPauses, 0u);
    EXPECT_EQ(r.digest, 0x9dab001a65997e29ULL);
}

TEST(MemPathGolden, CxlCBehindSwitch)
{
    // A switch hop lengthens a posted write's command path.
    const GoldenRun r =
        runStream("SKX2S", "CXL-C+Switch", 3.5, kRequests);
    EXPECT_EQ(r.digest, 0xef33c881be8eb414ULL);
}

TEST(MemPathGolden, CxlANuma)
{
    const GoldenRun r = runStream("EMR2S", "CXL-A+NUMA", 3.0, kRequests);
    EXPECT_EQ(r.digest, 0xb81636566c9a8f0cULL);
}

TEST(MemPathGolden, CxlDx2Interleaved)
{
    const GoldenRun r = runStream("EMR2S", "CXL-Dx2", 0.8, kRequests);
    EXPECT_EQ(r.digest, 0x429865778e778ca3ULL);
}
