/**
 * @file
 * Figure 7: CXL tail latencies in real workloads.
 *  (a/b) 508.namd-like execution: sampled memory latency spikes on
 *        CXL-C even though read bandwidth stays mostly low;
 *  (c)   Redis YCSB-C: memory-latency percentiles across setups —
 *        device-level tails propagate to the application.
 */

#include <algorithm>

#include "bench/common.hh"
#include "bench/figures.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"
#include "cpu/multicore.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;

namespace {

/** Backend wrapper sampling per-request latency and bandwidth. */
class SamplingBackend : public mem::MemoryBackend
{
  public:
    explicit SamplingBackend(mem::BackendPtr inner)
        : inner_(std::move(inner))
    {
    }

    mem::AccessResult
    accessEx(Addr a, mem::ReqType t, Tick now) override
    {
        note(t);
        const mem::AccessResult r = inner_->accessEx(a, t, now);
        const Tick done = r.done;
        if (t == mem::ReqType::kDemandLoad) {
            latency_.add(now, ticksToNs(done - now));
            hist_.record(ticksToNs(done - now));
        }
        bytes_ += 64;
        const Tick win = 100 * kTicksPerUs;
        if (now - winStart_ >= win) {
            bw_.add(now, static_cast<double>(bytes_) /
                             ticksToNs(now - winStart_));
            winStart_ = now;
            bytes_ = 0;
        }
        return r;
    }

    const std::string &name() const override { return inner_->name(); }

    stats::TimeSeries latency_;
    stats::TimeSeries bw_;
    stats::Histogram hist_{1.0, 1e7, 64};

  private:
    mem::BackendPtr inner_;
    Tick winStart_ = 0;
    std::uint64_t bytes_ = 0;
};

}  // namespace

namespace figs {

void
buildFig07(sweep::Sweep &S)
{
    S.text(bench::headerText("Figure 7",
                             "CXL tail latencies in real workloads"));

    S.text(bench::sectionText(
        "(a/b) 508.namd: sampled latency and bandwidth over time"));
    for (const char *mem : {"Local", "NUMA", "CXL-C"}) {
        S.point(std::string("namd|") + mem + "|seed=41",
                [mem](sweep::Emit &out) {
                    melody::Platform plat("EMR2S", mem);
                    SamplingBackend be(plat.makeBackend(41));
                    auto w = workloads::byName("508.namd_r");
                    cpu::MultiCore mc(plat.cpu(), w.exec, &be,
                                      workloads::makeKernels(w));
                    mc.run();
                    const auto latSeries =
                        be.latency_.downsampleMax(12);
                    out.printf(
                        "%-6s peakLat=%6.0fns p99.9=%6.0fns  "
                        "meanBW=%.2fGB/s peakBW=%.2fGB/s\n",
                        mem, be.latency_.maxValue(),
                        be.hist_.percentile(0.999),
                        be.bw_.meanValue(), be.bw_.maxValue());
                    out.printf("  lat series (max per window, ns):");
                    for (const auto &p : latSeries.points())
                        out.printf(" %5.0f", p.value);
                    out.printf("\n");
                });
    }
    S.text("Paper shape: bandwidth mostly <0.5GB/s with rare "
           "spikes; CXL-C latency still spikes toward 1us "
           "while local/NUMA stay flat.\n");

    S.text(bench::sectionText(
        "(c) Redis YCSB-C memory latency percentiles"));
    S.textf("%-7s %8s %8s %8s %8s %9s %9s\n", "Setup", "p50", "p75",
            "p90", "p95", "p99", "p99.9(ns)");
    for (const char *mem : {"Local", "NUMA", "CXL-B", "CXL-C"}) {
        S.point(std::string("ycsb|") + mem + "|seed=43",
                [mem](sweep::Emit &out) {
                    melody::Platform plat("EMR2S", mem);
                    SamplingBackend be(plat.makeBackend(43));
                    auto w = workloads::byName("redis/ycsb-c");
                    cpu::MultiCore mc(plat.cpu(), w.exec, &be,
                                      workloads::makeKernels(w));
                    mc.run();
                    out.printf(
                        "%-7s %8.0f %8.0f %8.0f %8.0f %9.0f "
                        "%9.0f\n",
                        mem, be.hist_.percentile(0.5),
                        be.hist_.percentile(0.75),
                        be.hist_.percentile(0.9),
                        be.hist_.percentile(0.95),
                        be.hist_.percentile(0.99),
                        be.hist_.percentile(0.999));
                });
    }
    S.text("Paper shape: read-only YCSB-C suffers elevated "
           "tails on CXL-C (device tails propagate to the "
           "application), local/NUMA/CXL-B far lower.\n");
}

}  // namespace figs
