/**
 * @file
 * google-benchmark microbenchmarks for the simulator itself:
 * event-queue throughput, cache lookups, DRAM channel accesses,
 * CXL device round trips, and end-to-end workload simulation rate.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "cpu/cache.hh"
#include "cpu/multicore.hh"
#include "core/platform.hh"
#include "cxl/device.hh"
#include "cxl/device_profile.hh"
#include "dram/channel.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;

static void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Tick>((i * 7919) % 100000),
                       [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

static void
BM_CacheLookup(benchmark::State &state)
{
    cpu::Cache cache(2 * 1024 * 1024, 16);
    Rng rng(1);
    for (int i = 0; i < 32768; ++i)
        cache.insert(static_cast<Addr>(i) * 64, 0,
                     cpu::StallTag::kL2, false);
    Tick ready;
    cpu::StallTag home;
    for (auto _ : state) {
        const Addr a = rng.below(65536) * 64;
        benchmark::DoNotOptimize(
            cache.lookup(a, 1000, &ready, &home));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

static void
BM_DramChannelAccess(benchmark::State &state)
{
    dram::ChannelConfig cfg;
    cfg.timing = dram::ddr5_4800();
    dram::Channel chan(cfg);
    Rng rng(2);
    Tick now = 0;
    for (auto _ : state) {
        const Addr a = rng.below(1 << 22) * 64;
        now = chan.access(a, false, now);
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannelAccess);

static void
BM_CxlDeviceRead(benchmark::State &state)
{
    cxl::CxlDevice dev(cxl::cxlA(), 3);
    Rng rng(4);
    Tick now = 0;
    for (auto _ : state) {
        const Tick done = dev.read(rng.below(1 << 22) * 64, now);
        now = done + nsToTicks(5);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CxlDeviceRead);

static void
BM_WorkloadSimulation(benchmark::State &state)
{
    auto w = workloads::byName("605.mcf_s");
    w.blocksPerCore = 10000;
    for (auto _ : state) {
        melody::Platform plat("EMR2S", "CXL-A");
        auto be = plat.makeBackend(5);
        cpu::MultiCore mc(plat.cpu(), w.exec, be.get(),
                          workloads::makeKernels(w));
        const auto r = mc.run();
        benchmark::DoNotOptimize(r.wallTicks);
    }
    state.SetItemsProcessed(state.iterations() *
                            w.instructionsPerCore());
    // Headline throughput metric for the regression harness
    // (scripts/run_bench.py): simulated instructions per wall
    // second of host time.
    state.counters["sim_instructions_per_second"] =
        benchmark::Counter(static_cast<double>(state.iterations()) *
                               static_cast<double>(
                                   w.instructionsPerCore()),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkloadSimulation);

static void
BM_SweepEngine(benchmark::State &state)
{
    // Engine overhead in isolation: many near-trivial points plus a
    // gather, cache off, rendered to a string. Measures declaration,
    // fan-out over the worker pool, slot buffering, and ordered
    // render — not simulation work.
    constexpr std::size_t kPoints = 256;
    for (auto _ : state) {
        sweep::Options opts;
        opts.cache = false;
        sweep::Sweep s("bm-sweep-engine", opts);
        s.scope("bm");
        std::vector<sweep::Sweep::SlotRef> refs;
        for (std::size_t i = 0; i < kPoints; ++i) {
            const std::size_t id = s.point(
                "p|" + std::to_string(i), 1,
                [i](sweep::Emit *slots) {
                    slots[0].hexDoubles({static_cast<double>(i),
                                         static_cast<double>(i) * 0.5});
                });
            refs.push_back({id, 0});
        }
        s.gather(refs, [](const std::vector<std::string> &in,
                          sweep::Emit &out) {
            double sum = 0;
            for (const auto &slot : in)
                sum += sweep::parseHexDoubles(slot).at(1);
            out.printf("sum %.3f\n", sum);
        });
        const std::string rendered = s.renderToString();
        benchmark::DoNotOptimize(rendered.data());
    }
    state.SetItemsProcessed(state.iterations() * kPoints);
    state.counters["sweep_points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kPoints,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepEngine);

int
main(int argc, char **argv)
{
    // Recorded into the JSON context so scripts/run_bench.py can
    // refuse to baseline numbers from a non-Release build.
    benchmark::AddCustomContext("cxlsim_build_type",
                                MELODY_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
