/**
 * @file
 * google-benchmark microbenchmarks for the simulator itself:
 * cache lookups (one cache, and the hit and miss paths of eight
 * L2s), cache warm-up, demand loads with prefetchers, single-core
 * block steps, DRAM channel accesses, CXL device round trips, the
 * MLC and Mio closed-loop drivers, and end-to-end workload
 * simulation rate.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "cpu/hierarchy.hh"
#include "cpu/multicore.hh"
#include "core/mio.hh"
#include "core/mlc.hh"
#include "core/platform.hh"
#include "cxl/device.hh"
#include "cxl/device_profile.hh"
#include "dram/channel.hh"
#include "sim/rng.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;

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
BM_L2HitPath(benchmark::State &state)
{
    // The L2 lookup after an L1 miss, over the eight per-core L2s of
    // an 8-thread EMR2S run: each is preloaded with a range it holds
    // whole, and seeded random probes of those lines all hit. Unlike
    // BM_CacheLookup's single 2 MB cache, the eight together outgrow
    // the host's L2, as a multi-core simulation's do.
    constexpr unsigned kCores = 8;
    const cpu::CacheGeometry l2 =
        melody::Platform("EMR2S", "Local").cpu().l2;
    std::vector<cpu::Cache> caches;
    caches.reserve(kCores);
    const std::uint64_t lines = l2.sizeBytes / kCacheLineBytes;
    for (unsigned c = 0; c < kCores; ++c) {
        caches.emplace_back(l2.sizeBytes, l2.ways);
        const cpu::LineRange range{(Addr{c} + 1) << 32, lines};
        caches.back().fill({&range, 1}, cpu::StallTag::kL2);
    }
    struct Probe
    {
        unsigned core;
        Addr addr;
    };
    std::vector<Probe> probes(1 << 16);
    Rng rng(5);
    for (Probe &p : probes) {
        p.core = static_cast<unsigned>(rng.below(kCores));
        p.addr = ((Addr{p.core} + 1) << 32) +
                 rng.below(lines) * kCacheLineBytes;
    }
    Tick ready;
    cpu::StallTag home;
    std::size_t i = 0;
    for (auto _ : state) {
        const Probe &p = probes[i++ & (probes.size() - 1)];
        benchmark::DoNotOptimize(
            caches[p.core].lookup(p.addr, 1000, &ready, &home));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2HitPath);

static void
BM_L2MissPath(benchmark::State &state)
{
    // The L2 miss path: over the eight full per-core L2s of an
    // 8-thread EMR2S run, each seeded probe misses and then installs
    // its line, evicting the set's LRU way, as a demand miss does.
    // Line k of the run goes to a seeded core at offset k times an
    // odd constant (mod 2^32) past that core's preloaded range, so no
    // line repeats and every probe misses.
    constexpr unsigned kCores = 8;
    const cpu::CacheGeometry l2 =
        melody::Platform("EMR2S", "Local").cpu().l2;
    std::vector<cpu::Cache> caches;
    caches.reserve(kCores);
    const std::uint64_t lines = l2.sizeBytes / kCacheLineBytes;
    for (unsigned c = 0; c < kCores; ++c) {
        caches.emplace_back(l2.sizeBytes, l2.ways);
        const cpu::LineRange range{(Addr{c} + 1) << 32, lines};
        caches.back().fill({&range, 1}, cpu::StallTag::kL2);
    }
    std::vector<unsigned> cores(1 << 16);
    Rng rng(6);
    for (unsigned &c : cores)
        c = static_cast<unsigned>(rng.below(kCores));
    Tick ready;
    cpu::StallTag home;
    std::uint32_t k = 0;
    for (auto _ : state) {
        const unsigned c = cores[k & (cores.size() - 1)];
        const std::uint64_t off = k++ * 0x9e3779b1u;
        const Addr a = ((Addr{c} + 1) << 32) +
                       (lines + off) * kCacheLineBytes;
        benchmark::DoNotOptimize(
            caches[c].lookup(a, 1000, &ready, &home));
        benchmark::DoNotOptimize(
            caches[c].insert(a, 2000, cpu::StallTag::kDram, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2MissPath);

static void
BM_Preload(benchmark::State &state)
{
    // Warm-up of a fit-sized 8-thread workload on EMR2S: every 8 MB
    // partition fits the per-core budget, so each core preloads its
    // whole partition into its L2 and the shared L3. Cache::fill
    // writes a set on its first probe, so each iteration also takes
    // a fixed set of demand loads over the preloaded lines.
    constexpr int kLoads = 20000;
    auto w = workloads::byName("605.mcf_s");
    w.threads = 8;
    w.workingSetBytes = 64ULL << 20;
    melody::Platform plat("EMR2S", "Local");
    auto be = plat.makeBackend(6);
    const auto kernels = workloads::makeKernels(w);
    const std::uint64_t budget =
        cpu::MultiCore::preloadBudget(plat.cpu(), kernels.size());
    std::vector<cpu::LineRange> ranges;
    std::uint64_t lines = 0;
    for (const auto &k : kernels) {
        ranges.push_back(k->preloadRange(budget));
        lines += ranges.back().lines;
    }
    struct Load
    {
        unsigned core;
        Addr addr;
    };
    std::vector<Load> loads;
    Rng rng(9);
    for (int i = 0; i < kLoads; ++i) {
        const auto c = static_cast<unsigned>(rng.below(ranges.size()));
        const cpu::LineRange &r = ranges[c];
        loads.push_back(
            {c, r.base + rng.below(r.lines) * kCacheLineBytes});
    }
    for (auto _ : state) {
        cpu::MemoryHierarchy h(plat.cpu(), 8, be.get());
        h.preload(ranges);
        Tick now = 0;
        for (const Load &l : loads) {
            now += nsToTicks(1);
            benchmark::DoNotOptimize(
                h.demandLoad(l.core, l.addr, 1, now).readyAt);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(lines));
}
BENCHMARK(BM_Preload);

static void
BM_DemandLoadPrefetch(benchmark::State &state)
{
    // Prefetchers on; even loads walk a sequential stream (which
    // trains both prefetchers), odd loads hit random lines of a
    // 1 GB region. Time advances to each load's data, as in a
    // dependent chain.
    melody::Platform plat("EMR2S", "Local");
    auto be = plat.makeBackend(7);
    cpu::MemoryHierarchy h(plat.cpu(), 1, be.get(), true);
    Rng rng(8);
    Addr cursor = 0;
    Tick now = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const bool seq = (n++ & 1) == 0;
        Addr a;
        if (seq) {
            a = cursor;
            cursor += kCacheLineBytes;
        } else {
            a = (1ULL << 30) + rng.below(1 << 24) * kCacheLineBytes;
        }
        const cpu::LoadOutcome out =
            h.demandLoad(0, a, seq ? 1 : 8, now);
        now = std::max(now + nsToTicks(1), out.readyAt);
        benchmark::DoNotOptimize(out.readyAt);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandLoadPrefetch);

static void
BM_CoreStep(benchmark::State &state)
{
    // One core of a warmed single-thread 605.mcf_s on EMR2S/Local:
    // each iteration is one Core::step, a basic block through the
    // caches, prefetchers and backend. The kernel never runs out.
    auto w = workloads::byName("605.mcf_s");
    w.threads = 1;
    w.blocksPerCore = 1ULL << 40;
    melody::Platform plat("EMR2S", "Local");
    auto be = plat.makeBackend(10);
    auto kernels = workloads::makeKernels(w);
    cpu::MemoryHierarchy h(plat.cpu(), 1, be.get());
    h.preload({kernels[0]->preloadRange(
        cpu::MultiCore::preloadBudget(plat.cpu(), 1))});
    cpu::Core core(plat.cpu(), w.exec, &h, 0, kernels[0].get());
    for (auto _ : state)
        benchmark::DoNotOptimize(core.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreStep);

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
BM_MlcPoint(benchmark::State &state)
{
    // One delay-0, read-only MLC point with the default 31 x 24
    // traffic slots and the chase (745 agents) on CXL-A: choosing
    // the next slot against the link, controller and DRAM.
    melody::Platform plat("EMR2S", "CXL-A");
    melody::MlcConfig cfg;
    cfg.windowUs = 20;
    cfg.warmupUs = 5;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto be = plat.makeBackend(11);
        state.ResumeTiming();
        const melody::MlcPoint p = melody::mlcMeasure(be.get(), cfg);
        benchmark::DoNotOptimize(p.gbps);
        requests += be->stats().requests();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_MlcPoint)->Unit(benchmark::kMillisecond);

static void
BM_MioChase(benchmark::State &state)
{
    // Eight device-level chasers under Fig. 4's read/write noise
    // (3 threads x 2 slots) on CXL-A.
    melody::Platform plat("EMR2S", "CXL-A");
    melody::MioNoise noise;
    noise.threads = 3;
    noise.readFrac = 0.5;
    noise.paceNs = 400.0;
    noise.slotsPerThread = 2;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto be = plat.makeBackend(13);
        state.ResumeTiming();
        const melody::MioResult r =
            melody::mioChaseDirect(be.get(), 8, 2000, noise);
        benchmark::DoNotOptimize(r.gbps);
        requests += be->stats().requests();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_MioChase)->Unit(benchmark::kMillisecond);

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
    // fan-out (one parallelFor call, thread starts included), slot
    // buffering, and ordered render — not simulation work.
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
