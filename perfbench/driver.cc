/**
 * @file
 * perfbench: driver of the repository benchmark.
 *
 * Runs one of four workloads from one process (perfbench/README.md
 * gives the reason for each):
 *
 *   fit_warmup     suite workloads whose working set fits the per-core
 *                  preload budget, on six memory setups, plus the Spa
 *                  breakdown of every remote run;
 *   spill_sim      workloads with >= 4 GB working sets and >= 8
 *                  threads at full length on four setups;
 *   device_ladder  MLC loaded-latency ladders and Mio pointer chases;
 *   fig11_cold     Figure 11 through the sweep engine into an empty
 *                  run cache, then re-rendered warm, then half of the
 *                  figure's own runs.
 *
 * Run lists execute as a closed loop: each of at most nproc worker
 * threads takes the next run as soon as its last one finishes. The
 * seed only permutes the dispatch order, so every seed simulates the
 * same runs and each run's digest can be pinned.
 *
 * Usage:
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--pinned FILE] [--record FILE]
 *             [--spans FILE]
 *   perfbench --setup-only --workload W --seed N --work-dir DIR
 *
 * The last stdout line is one JSON object: metrics (end-to-end ones,
 * or per-layer ones with --trace 1), counts of attempted and failed
 * runs, digest checks and host context. perfbench/run.py builds this
 * binary and turns that object into the benchmark's result line.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "bench/figures.hh"
#include "core/mio.hh"
#include "core/mlc.hh"
#include "core/platform.hh"
#include "cpu/multicore.hh"
#include "sim/invariants.hh"
#include "sim/run_cache.hh"
#include "sim/sweep.hh"
#include "spa/breakdown.hh"
#include "stats/rows.hh"
#include "timing_backend.hh"
#include "trace.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;

namespace perfbench {
namespace {

/** Simulation seed of every run-list run: Fig. 11's study seed. */
constexpr std::uint64_t kRunSeed = 777;
/** Server every CPU-model run uses. */
constexpr const char *kServer = "EMR2S";
/** Figure rendered by fig11_cold. */
constexpr const char *kFigure = "fig11";
/** Run length of fit_warmup runs: the figures' 40 000 blocks. */
constexpr std::uint64_t kFitBlocks = 40000;
/** Run times per measurement, so that p95 has ten samples beyond. */
constexpr std::size_t kMinSamples = 200;
/** Warm re-renders of Fig. 11 per cold render. */
constexpr unsigned kWarmRenders = 5;

/** fit_warmup's and device_ladder's setups. */
const char *const kSetups[] = {"Local", "NUMA",  "CXL-A",
                               "CXL-B", "CXL-C", "CXL-D"};
const char *const kSpillSetups[] = {"Local", "CXL-A", "CXL-B",
                                    "CXL-A+NUMA"};
/** Setups with a per-setup mem.<setup>.ns_per_access metric. */
const char *const kMemSetups[] = {"Local", "NUMA",  "CXL-A", "CXL-B",
                                  "CXL-C", "CXL-D", "CXL-A+NUMA"};
const char *const kWorkloads[] = {"fit_warmup", "spill_sim",
                                  "device_ladder", "fig11_cold"};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string workDir;
    std::string pinnedPath;
    std::string recordPath;
    std::string spansPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--pinned F] "
                 "[--record F] [--spans F] [--setup-only]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--pinned")
            a.pinnedPath = v;
        else if (k == "--record")
            a.recordPath = v;
        else if (k == "--spans")
            a.spansPath = v;
        else
            usage("unknown option " + k);
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  a.workload) == std::end(kWorkloads))
        usage("unknown workload '" + a.workload + "'");
    if (a.workDir.empty())
        usage("--work-dir is required");
    return a;
}

/** CPUs this process may run on (nproc). */
unsigned
cpusAllowed()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
secondsSince(std::int64_t t0)
{
    return 1e-9 * static_cast<double>(nowNs() - t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** Text form of simulated results, hashed with fnv1a64. Doubles are
 *  written as hexfloats, so equal text means bit-identical values. */
class Digest
{
  public:
    void
    add(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a ", v);
        text_ += buf;
    }
    void
    add(std::uint64_t v)
    {
        text_ += std::to_string(v);
        text_ += ' ';
    }
    void
    add(const cpu::RunResult &r)
    {
        add(r.wallTicks);
        const cpu::CounterSet &c = r.counters;
        for (const double v : {c.cycles, c.instructions, c.p1, c.p2,
                               c.p3, c.p4, c.p5, c.p6, c.p7, c.p8,
                               c.p9})
            add(v);
        for (const std::uint64_t v :
             {c.l1pfL3Miss, c.l1pfL3Hit, c.l2pfL3Miss, c.l2pfL3Hit,
              c.demandL3Miss, c.l2pfIssued, c.l1pfIssued,
              c.machineChecks, c.demandTimeouts, c.prefetchDrops})
            add(v);
        add(r.backendStats);
        add(static_cast<std::uint64_t>(r.ras.size()));
    }
    void
    add(const mem::BackendStats &s)
    {
        add(s.reads);
        add(s.writes);
    }
    void
    add(const stats::Histogram &h)
    {
        add(h.count());
        for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999})
            add(h.percentile(q));
        add(h.mean());
        add(h.max());
    }
    void
    add(const spa::Breakdown &b)
    {
        for (const double v :
             {b.actual, b.store, b.l1, b.l2, b.l3, b.dram, b.core,
              b.other, b.estTotalStalls, b.estBackend, b.estMemory})
            add(v);
    }

    std::uint64_t value() const { return stats::fnv1a64(text_); }

  private:
    std::string text_;
};

// ---------------------------------------------------------------- runs

enum class Kind { kSim, kMlc, kMio };

/** One unit of a run list. */
struct RunSpec
{
    Kind kind = Kind::kSim;
    /** Pinned-digest key, unique within the workload. */
    std::string key;
    std::string server = kServer;
    std::string setup;
    std::uint64_t backendSeed = 0;
    /** kSim: the workload. */
    workloads::WorkloadProfile profile;
    /** kMlc: one ladder point. */
    melody::MlcConfig mlc;
    /** kMio: chase threads, samples per thread and noise. */
    unsigned mioThreads = 1;
    std::uint64_t mioSamples = 0;
    melody::MioNoise noise;
};

/** What one execution of a RunSpec produced. */
struct RunRecord
{
    std::uint64_t digest = 0;
    /** Empty when the run threw nothing and broke no invariant. */
    std::string error;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    unsigned worker = 0;
    /** kSim result, kept for the Spa step. */
    cpu::RunResult result;
    // Traced runs only.
    std::int64_t memNs = 0;
    std::uint64_t memCalls = 0;
    double instructions = 0.0;
    std::uint64_t l3Lookups = 0;
};

/** The machine the figures use for a device setup (fig03/fig04). */
std::string
deviceServer(const std::string &setup)
{
    return setup == "CXL-D" ? "EMR2S'" : "EMR2S";
}

RunSpec
simRun(const workloads::WorkloadProfile &w, const std::string &setup,
       const std::string &prefix)
{
    RunSpec s;
    s.kind = Kind::kSim;
    s.key = prefix + "|" + w.name + "|" + setup;
    s.setup = setup;
    s.profile = w;
    // melody::runWorkload's backend seed for the same study seed.
    s.backendSeed = kRunSeed ^ w.seed;
    return s;
}

std::vector<RunSpec>
fitWarmupRuns(const std::vector<workloads::WorkloadProfile> &suite)
{
    const melody::Platform local(kServer, "Local");
    const double llc = static_cast<double>(local.cpu().l3.sizeBytes);
    std::vector<RunSpec> runs;
    for (const auto &w : suite) {
        // MultiCore's per-core preload budget.
        const double budget = 0.7 * llc / std::max(1u, w.threads);
        if (static_cast<double>(w.workingSetBytes) > budget)
            continue;
        const auto scaled = bench::scaled(w, kFitBlocks);
        for (const char *setup : kSetups)
            runs.push_back(simRun(scaled, setup, "fit"));
    }
    return runs;
}

std::vector<RunSpec>
spillSimRuns(const std::vector<workloads::WorkloadProfile> &suite)
{
    std::vector<RunSpec> runs;
    for (const auto &w : suite) {
        if (w.workingSetBytes < (4ULL << 30) || w.threads < 8)
            continue;
        for (const char *setup : kSpillSetups)
            runs.push_back(simRun(w, setup, "spill"));
    }
    return runs;
}

std::vector<RunSpec>
deviceLadderRuns()
{
    std::vector<RunSpec> runs;
    for (const char *setup : kSetups) {
        // MLC loaded-latency ladders as in Fig. 3a (read-only) and
        // Fig. 5 (1:1 read/write), one run per delay point.
        for (const double readFrac : {1.0, 0.5}) {
            for (const double delay : melody::mlcStandardDelays()) {
                RunSpec s;
                s.kind = Kind::kMlc;
                s.setup = setup;
                s.server = deviceServer(setup);
                s.backendSeed = 11;
                s.mlc.readFrac = readFrac;
                s.mlc.delayCycles = delay;
                s.mlc.windowUs = 100;
                s.mlc.warmupUs = 25;
                s.key = std::string("mlc|") + setup + "|read=" +
                        stats::Table::num(readFrac, 1) +
                        "|delay=" + stats::Table::num(delay, 0);
                runs.push_back(s);
            }
        }
        // Mio device-level chases at 1-32 threads, quiet and under
        // Fig. 4's read/write noise.
        for (const unsigned thr : {1u, 2u, 4u, 8u, 16u, 32u}) {
            for (const bool noisy : {false, true}) {
                RunSpec s;
                s.kind = Kind::kMio;
                s.setup = setup;
                s.server = deviceServer(setup);
                s.backendSeed = 13;
                s.mioThreads = thr;
                s.mioSamples = 20000 / thr + 2000;
                if (noisy) {
                    s.noise.threads = 3;
                    s.noise.readFrac = 0.5;
                    s.noise.paceNs = 400.0;
                    s.noise.slotsPerThread = 2;
                }
                s.key = std::string("mio|") + setup +
                        "|thr=" + std::to_string(thr) +
                        (noisy ? "|noise=rw" : "|noise=none");
                runs.push_back(s);
            }
        }
    }
    return runs;
}

/**
 * Half of Fig. 11's own runs (every second workload of its list, all
 * four setups), executed by the closed loop after the render: the
 * sweep engine's runs are not visible from here, so this is where
 * fig11_cold's per-run times and layer split come from.
 */
std::vector<RunSpec>
fig11Runs(const std::vector<workloads::WorkloadProfile> &suite)
{
    std::vector<RunSpec> runs;
    for (std::size_t i = 0; i < suite.size(); i += 4) {
        const auto w = bench::scaled(suite[i], 30000);
        for (const char *setup : {"Local", "NUMA", "CXL-A", "CXL-B"})
            runs.push_back(simRun(w, setup, "fig11"));
    }
    return runs;
}

/** Execute @p s once; @p log is null in untraced runs. */
void
executeRun(const RunSpec &s, std::int32_t id, SpanLog *log,
           RunRecord *rec)
{
    sim::Invariants inv;
    sim::InvariantScope invScope(&inv);
    ScopedSpan span(log, "driver.run", id);

    std::optional<melody::Platform> plat;
    mem::BackendPtr backend;
    {
        ScopedSpan sp(log, "core.platform", id);
        plat.emplace(s.server, s.setup);
        backend = plat->makeBackend(s.backendSeed);
    }
    std::optional<TimingBackend> timing;
    mem::MemoryBackend *be = backend.get();
    if (log) {
        timing.emplace(be);
        be = &*timing;
    }

    Digest d;
    switch (s.kind) {
    case Kind::kSim: {
        std::vector<std::unique_ptr<cpu::Kernel>> kernels;
        {
            ScopedSpan sp(log, "workloads.makeKernels", id);
            kernels = workloads::makeKernels(s.profile);
        }
        const double cores = static_cast<double>(kernels.size());
        std::unique_ptr<cpu::MultiCore> mc;
        {
            // Warm-up: MemoryHierarchy::preload of every core.
            ScopedSpan sp(log, "cpu.warmup", id);
            mc = std::make_unique<cpu::MultiCore>(
                plat->cpu(), s.profile.exec, be, std::move(kernels),
                true);
        }
        {
            ScopedSpan sp(log, "cpu.run", id);
            rec->result = mc->run();
        }
        d.add(rec->result);
        rec->instructions = rec->result.counters.instructions * cores;
        rec->l3Lookups = mc->hierarchy().l3().hits() +
                         mc->hierarchy().l3().misses();
        break;
    }
    case Kind::kMlc: {
        melody::MlcPoint p;
        {
            ScopedSpan sp(log, "core.mlcMeasure", id);
            p = melody::mlcMeasure(be, s.mlc);
        }
        for (const double v : {p.delayCycles, p.gbps, p.avgNs, p.p50Ns,
                               p.p999Ns, p.p9999Ns})
            d.add(v);
        d.add(p.samples);
        d.add(backend->stats());
        break;
    }
    case Kind::kMio: {
        std::optional<melody::MioResult> r;
        {
            ScopedSpan sp(log, "core.mioChaseDirect", id);
            r.emplace(melody::mioChaseDirect(be, s.mioThreads,
                                             s.mioSamples, s.noise));
        }
        d.add(r->latencyNs);
        d.add(r->gbps);
        d.add(backend->stats());
        break;
    }
    }
    rec->digest = d.value();

    if (timing) {
        rec->memNs = timing->hostNs();
        rec->memCalls = timing->forwarded().requests();
        const mem::BackendStats &inner = backend->stats();
        if (timing->forwarded().reads != inner.reads ||
            timing->forwarded().writes != inner.writes)
            rec->error = "timing backend forwarded " +
                         std::to_string(timing->forwarded().reads) +
                         "r/" +
                         std::to_string(timing->forwarded().writes) +
                         "w but the backend counted " +
                         std::to_string(inner.reads) + "r/" +
                         std::to_string(inner.writes) + "w";
    }
    if (inv.failed() && rec->error.empty()) {
        rec->error = "invariant violation";
        if (!inv.violations().empty())
            rec->error += ": " + inv.violations()[0].invariant + " at " +
                          inv.violations()[0].where;
    }
}

// ------------------------------------------------------------- batches

/** Outcome of one pass over a run list. */
struct Batch
{
    /** In run-list order. */
    std::vector<RunRecord> recs;
    /** Spa breakdown digests (fit_warmup), keyed "<run key>|spa". */
    std::map<std::string, std::uint64_t> spa;
    double wallS = 0.0;
    /** Worker-seconds idle once the last run had started. */
    double tailIdleS = 0.0;
    std::vector<std::unique_ptr<SpanLog>> logs;
};

/** Spa breakdown of each remote fit_warmup run vs its Local run. */
void
spaStep(const std::vector<RunSpec> &runs, SpanLog *log, Batch *b)
{
    std::map<std::string, const RunRecord *> local;
    for (std::size_t i = 0; i < runs.size(); ++i)
        if (runs[i].setup == "Local")
            local[runs[i].profile.name] = &b->recs[i];
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].setup == "Local")
            continue;
        const RunRecord *base = local.at(runs[i].profile.name);
        if (!base->error.empty() || !b->recs[i].error.empty())
            continue;
        Digest d;
        {
            ScopedSpan sp(log, "spa.computeBreakdown",
                          static_cast<std::int32_t>(i));
            d.add(spa::computeBreakdown(base->result,
                                        b->recs[i].result));
        }
        b->spa[runs[i].key + "|spa"] = d.value();
    }
}

/**
 * One closed-loop pass over @p runs in dispatch @p order on
 * @p workers threads; worker 0 is the calling thread.
 */
Batch
runBatch(const std::vector<RunSpec> &runs,
         const std::vector<std::size_t> &order, unsigned workers,
         bool traced, bool withSpa)
{
    Batch b;
    b.recs.resize(runs.size());
    if (traced)
        for (unsigned w = 0; w < workers; ++w)
            b.logs.push_back(std::make_unique<SpanLog>(w));
    std::atomic<std::size_t> next{0};
    const std::int64_t t0 = nowNs();
    auto work = [&](unsigned w) {
        SpanLog *log = traced ? b.logs[w].get() : nullptr;
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= order.size())
                break;
            const std::size_t i = order[k];
            RunRecord &r = b.recs[i];
            r.worker = w;
            r.startNs = nowNs();
            try {
                executeRun(runs[i], static_cast<std::int32_t>(i), log,
                           &r);
            } catch (const std::exception &e) {
                r.error = std::string("exception: ") + e.what();
            } catch (...) {
                r.error = "exception";
            }
            r.endNs = nowNs();
            // Keep only what the Spa step reads.
            if (!withSpa)
                r.result = cpu::RunResult{};
        }
    };
    {
        std::vector<std::jthread> pool;
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(work, w);
        work(0);
    }
    const std::int64_t runsEnd = nowNs();
    if (withSpa)
        spaStep(runs, traced ? b.logs[0].get() : nullptr, &b);
    b.wallS = secondsSince(t0);

    std::int64_t lastStart = t0;
    std::vector<std::int64_t> lastEnd(workers, t0);
    for (const RunRecord &r : b.recs) {
        lastStart = std::max(lastStart, r.startNs);
        lastEnd[r.worker] = std::max(lastEnd[r.worker], r.endNs);
    }
    for (const std::int64_t e : lastEnd)
        b.tailIdleS +=
            1e-9 * static_cast<double>(runsEnd - std::max(lastStart, e));
    for (RunRecord &r : b.recs)
        r.result = cpu::RunResult{};
    return b;
}

// --------------------------------------------------------------- output

/** Digests and failure counts across every execution of a workload. */
struct Checks
{
    struct Key
    {
        /** Digest of the key's first execution. */
        std::uint64_t digest = 0;
        std::uint64_t executions = 0;
        std::uint64_t failed = 0;
    };
    std::map<std::string, Key> keys;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(Key *k, std::uint64_t executions, const std::string &why)
    {
        k->failed += executions;
        failed += executions;
        if (errors.size() < 16)
            errors.push_back(why);
    }

    /** Record one execution of @p key; a digest that differs from an
     *  earlier execution's fails it (the run is not deterministic). */
    void
    note(const std::string &key, std::uint64_t digest,
         const std::string &error)
    {
        ++attempted;
        const bool fresh = !keys.count(key);
        Key &k = keys[key];
        if (fresh)
            k.digest = digest;
        ++k.executions;
        if (!error.empty())
            fail(&k, 1, key + ": " + error);
        else if (k.digest != digest)
            fail(&k, 1, key + ": digest differs between executions");
    }

    void
    note(const std::vector<RunSpec> &runs, const Batch &b)
    {
        for (std::size_t i = 0; i < runs.size(); ++i)
            note(runs[i].key, b.recs[i].digest, b.recs[i].error);
        for (const auto &[key, digest] : b.spa)
            note(key, digest, "");
    }
};

/** Pinned digests read from perfbench/pinned.txt. */
struct Pinned
{
    std::optional<std::uint64_t> workload;
    std::map<std::string, std::uint64_t> runs;
};

Pinned
readPinned(const std::string &path, const std::string &workload)
{
    Pinned p;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pinned digests " + path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag, name, hex, key;
        ls >> tag >> name >> hex >> key;
        if (name != workload)
            continue;
        const std::uint64_t v = std::strtoull(hex.c_str(), nullptr, 16);
        if (tag == "workload")
            p.workload = v;
        else if (tag == "run")
            p.runs[key] = v;
    }
    return p;
}

/** One digest over every key and its digest, in key order. */
std::uint64_t
workloadDigest(const Checks &c)
{
    std::string text;
    for (const auto &[key, k] : c.keys)
        text += key + " " + stats::hex64(k.digest) + "\n";
    return stats::fnv1a64(text);
}

/** Compare with the pinned digests; every execution of a key that
 *  misses its pinned digest fails. */
bool
checkPinned(const Args &a, Checks *c)
{
    if (a.pinnedPath.empty())
        return true;
    const Pinned p = readPinned(a.pinnedPath, a.workload);
    bool ok = true;
    for (auto &[key, k] : c->keys) {
        const auto it = p.runs.find(key);
        if (it == p.runs.end() || it->second != k.digest) {
            ok = false;
            c->fail(&k, k.executions - k.failed,
                    key + ": digest " + stats::hex64(k.digest) +
                        " is not the pinned one");
        }
    }
    const std::uint64_t digest = workloadDigest(*c);
    if (!p.workload || *p.workload != digest) {
        ok = false;
        c->errors.push_back("workload digest " + stats::hex64(digest) +
                            " is not the pinned one");
    }
    return ok;
}

void
recordPinned(const Args &a, const Checks &c)
{
    std::FILE *f = std::fopen(a.recordPath.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + a.recordPath);
    std::fprintf(f, "workload %s %s\n", a.workload.c_str(),
                 stats::hex64(workloadDigest(c)).c_str());
    for (const auto &[key, k] : c.keys)
        std::fprintf(f, "run %s %s %s\n", a.workload.c_str(),
                     stats::hex64(k.digest).c_str(), key.c_str());
    std::fclose(f);
}

/** Insertion-ordered metric list. */
using Metrics = std::vector<std::pair<std::string, double>>;

void
printResult(const Args &a, unsigned workers, double setupS,
            const Checks &c, bool pinnedOk, std::size_t samples,
            const Metrics &m)
{
    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"trace\":%d,\"context\":{\"nproc\":%u,\"workers\":%u,"
                "\"build_type\":\"%s\",\"compiler\":\"%s\"},"
                "\"setup_s\":%.9g,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"pinned_ok\":%s,"
                "\"samples\":%zu,\"workload_digest\":\"%s\",\"errors\":[",
                a.workload.c_str(), a.seed, a.trace ? 1 : 0, cpusAllowed(),
                workers, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, setupS,
                c.attempted, c.failed, pinnedOk ? "true" : "false", samples,
                stats::hex64(workloadDigest(c)).c_str());
    for (std::size_t i = 0; i < c.errors.size(); ++i)
        std::printf("%s\"%s\"", i ? "," : "",
                    jsonEscape(c.errors[i]).c_str());
    std::printf("],\"metrics\":{");
    for (std::size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\":%.9g", i ? "," : "", m[i].first.c_str(),
                    m[i].second);
    std::printf("}}\n");
    std::fflush(stdout);
}

// ------------------------------------------------------------ workloads

/** Everything prepared before the first timed run. */
struct Plan
{
    std::vector<RunSpec> runs;
    /** Dispatch order: a seeded permutation of runs. */
    std::vector<std::size_t> order;
    const figs::Figure *fig = nullptr;
    std::unique_ptr<sweep::Sweep> sweep;
    /** fit_warmup: Spa breakdowns of each remote run. */
    bool withSpa = false;
    double setupS = 0.0;
};

/** splitmix64: a portable seeded stream for the permutation. */
std::uint64_t
splitmix(std::uint64_t *state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[splitmix(&state) % i]);
    return order;
}

std::string
cacheDir(const Args &a)
{
    return a.workDir + "/fig11-cache";
}

/** A Fig. 11 sweep on @p jobs workers over the benchmark's cache. */
std::unique_ptr<sweep::Sweep>
declareFig11(const Args &a, const figs::Figure *fig, unsigned jobs,
             SpanLog *log)
{
    sweep::Options opts;
    opts.jobs = jobs;
    opts.cache = true;
    opts.cacheDir = cacheDir(a);
    ScopedSpan sp(log, "sweep.declare", -1);
    auto s = std::make_unique<sweep::Sweep>(fig->binary, opts);
    s->scope(fig->binary);
    fig->build(*s);
    return s;
}

/** Everything before the first timed run; timed as setup_s. */
Plan
setUp(const Args &a, unsigned workers)
{
    Plan p;
    const std::int64_t t0 = nowNs();
    const auto &suite = workloads::suite();
    if (a.workload == "fit_warmup") {
        p.runs = fitWarmupRuns(suite);
        p.withSpa = true;
    } else if (a.workload == "spill_sim") {
        p.runs = spillSimRuns(suite);
    } else if (a.workload == "device_ladder") {
        p.runs = deviceLadderRuns();
    } else {
        p.fig = figs::find(kFigure);
        if (!p.fig)
            throw std::runtime_error("figure fig11 is not registered");
        std::filesystem::remove_all(cacheDir(a));
        p.sweep = declareFig11(a, p.fig, workers, nullptr);
        p.runs = fig11Runs(suite);
    }
    p.order = permutation(p.runs.size(), a.seed);
    p.setupS = secondsSince(t0);
    return p;
}

/** Per-layer metrics of one traced pass over a run list. */
void
layerMetrics(const std::vector<RunSpec> &runs, const Batch &b,
             Metrics *m)
{
    std::vector<const SpanLog *> logs;
    for (const auto &l : b.logs)
        logs.push_back(l.get());
    auto totals = totalsByName(logs);
    double simMemS = 0, mlcMemS = 0, mioMemS = 0, memS = 0, insts = 0;
    double memCalls = 0, l3 = 0;
    std::map<std::string, std::pair<double, double>> perSetup;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunRecord &r = b.recs[i];
        const double s = 1e-9 * static_cast<double>(r.memNs);
        memS += s;
        memCalls += static_cast<double>(r.memCalls);
        (runs[i].kind == Kind::kSim   ? simMemS
         : runs[i].kind == Kind::kMlc ? mlcMemS
                                      : mioMemS) += s;
        insts += r.instructions;
        l3 += static_cast<double>(r.l3Lookups);
        perSetup[runs[i].setup].first += 1e9 * s;
        perSetup[runs[i].setup].second += static_cast<double>(r.memCalls);
    }
    const double runS = totals["driver.run"].totalS;
    const double warmS = totals["cpu.warmup"].totalS;
    const double simS = totals["cpu.run"].totalS;
    m->emplace_back("workloads.kernels_ms",
                    1e3 * totals["workloads.makeKernels"].totalS);
    m->emplace_back("cpu.warmup_s", warmS);
    m->emplace_back("cpu.warmup_share", runS > 0 ? warmS / runS : 0.0);
    m->emplace_back("cpu.sim_self_s", simS - simMemS);
    m->emplace_back("cpu.sim_minst_per_s",
                    simS > 0 ? insts / simS / 1e6 : 0.0);
    m->emplace_back("cpu.l3_lookups", l3);
    m->emplace_back("mem.access_s", memS);
    m->emplace_back("mem.accesses", memCalls);
    m->emplace_back("mem.ns_per_access",
                    memCalls > 0 ? 1e9 * memS / memCalls : 0.0);
    for (const char *setup : kMemSetups) {
        std::string name = setup;
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char ch) {
                           return ch == '+' ? '_' : std::tolower(ch);
                       });
        const auto &ps = perSetup[setup];
        m->emplace_back("mem." + name + ".ns_per_access",
                        ps.second > 0 ? ps.first / ps.second : 0.0);
    }
    m->emplace_back("core.mlc_self_s",
                    totals["core.mlcMeasure"].totalS - mlcMemS);
    m->emplace_back("core.mio_self_s",
                    totals["core.mioChaseDirect"].totalS - mioMemS);
    m->emplace_back("spa.breakdown_ms",
                    1e3 * totals["spa.computeBreakdown"].totalS);
    m->emplace_back("core.platform_ms",
                    1e3 * totals["core.platform"].totalS);
}

void
writeSpanFile(const Args &a, const std::vector<const SpanLog *> &logs)
{
    if (!a.spansPath.empty() && !writeSpans(a.spansPath, logs))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.spansPath.c_str());
}

/** One cold render of Fig. 11 and its warm re-renders. */
struct Render
{
    double coldS = 0.0;
    double cpuS = 0.0;
    /** Declaration time when not declared during set-up. */
    double declareS = 0.0;
    std::vector<double> warmS;
    sweep::Sweep::Report cold;
    std::uint64_t cacheBytes = 0;
};

/**
 * Render Fig. 11 into an empty run cache, then warm from it. @p declared
 * is the sweep declared during set-up, or null to declare one here.
 */
Render
renderFig11(const Args &a, unsigned workers, const Plan &p,
            std::unique_ptr<sweep::Sweep> declared, SpanLog *log,
            Checks *c)
{
    Render out;
    std::filesystem::remove_all(cacheDir(a));
    if (!declared) {
        const std::int64_t t = nowNs();
        declared = declareFig11(a, p.fig, workers, log);
        out.declareS = secondsSince(t);
    }
    std::string cold;
    {
        ScopedSpan sp(log, "sweep.render", -1);
        const double cpu0 = processCpuS();
        const std::int64_t t = nowNs();
        cold = declared->renderToString(&out.cold);
        out.coldS = secondsSince(t);
        out.cpuS = processCpuS() - cpu0;
    }
    c->note("fig11|cold", stats::fnv1a64(cold),
            out.cold.clean() ? "" : "sweep report is not clean");
    out.cacheBytes = sweep::RunCache::scanDir(cacheDir(a)).bytes;
    for (unsigned i = 0; i < kWarmRenders; ++i) {
        auto s = declareFig11(a, p.fig, workers, nullptr);
        sweep::Sweep::Report rep;
        std::string warm;
        const std::int64_t t = nowNs();
        {
            ScopedSpan sp(log, "run_cache.warm_render", -1);
            warm = s->renderToString(&rep);
        }
        out.warmS.push_back(secondsSince(t));
        std::string why;
        if (warm != cold)
            why = "warm bytes differ from cold bytes";
        else if (rep.cacheHits != rep.points)
            why = "warm render missed the run cache";
        c->note("fig11|warm", stats::fnv1a64(warm), why);
    }
    return out;
}

/** One measured pass: Fig. 11's render (fig11_cold only), then one
 *  closed-loop pass over the run list. */
struct Pass
{
    /** This pass's wall_s sample. */
    double wallS = 0.0;
    /** Render plus run list. */
    double totalS = 0.0;
    Batch batch;
    Render render;
    std::unique_ptr<SpanLog> renderLog;
};

Pass
runPass(const Args &a, unsigned workers, Plan &p, bool traced,
        Checks *c)
{
    Pass out;
    const std::int64_t t0 = nowNs();
    if (p.fig) {
        // Numbered after the run-list workers, so span parents stay
        // unambiguous per worker in the span file.
        if (traced)
            out.renderLog = std::make_unique<SpanLog>(workers);
        out.render = renderFig11(a, workers, p, std::move(p.sweep),
                                 out.renderLog.get(), c);
    }
    out.batch = runBatch(p.runs, p.order, workers, traced, p.withSpa);
    c->note(p.runs, out.batch);
    out.totalS = secondsSince(t0);
    out.wallS = p.fig ? out.render.coldS : out.batch.wallS;
    std::fprintf(stderr, "perfbench: %s%s pass: wall_s %.3f, %zu runs in %.3f s\n",
                 a.workload.c_str(), traced ? " traced" : "", out.wallS,
                 p.runs.size(), out.batch.wallS);
    return out;
}

void
appendRunMs(const Batch &b, std::vector<double> *runMs)
{
    for (const RunRecord &r : b.recs)
        runMs->push_back(1e-6 * static_cast<double>(r.endNs - r.startNs));
}

int
measure(const Args &a, unsigned workers, Plan &p)
{
    Checks c;
    std::vector<double> walls, passS, runMs;
    Metrics m;
    if (!a.trace) {
        // Passes until p95 has enough samples, and while another pass
        // is expected to end within --seconds.
        const std::int64_t t0 = nowNs();
        do {
            const Pass pass = runPass(a, workers, p, false, &c);
            walls.push_back(pass.wallS);
            passS.push_back(pass.totalS);
            appendRunMs(pass.batch, &runMs);
        } while (runMs.size() < kMinSamples ||
                 secondsSince(t0) + median(passS) <= a.seconds);
        m.emplace_back("wall_s", median(walls));
        m.emplace_back("run_p50_ms", percentile(runMs, 0.50));
        m.emplace_back("run_p95_ms", percentile(runMs, 0.95));
        m.emplace_back("setup_s", p.setupS);
        m.emplace_back("peak_rss_mb", peakRssMb());
    } else {
        // The first pass also pays the process's cold start, so the
        // overhead compares the traced pass with a later untraced one.
        runPass(a, workers, p, false, &c);
        const Pass tp = runPass(a, workers, p, true, &c);
        const Pass up = runPass(a, workers, p, false, &c);
        appendRunMs(up.batch, &runMs);
        layerMetrics(p.runs, tp.batch, &m);
        m.emplace_back("driver.tail_idle_s", up.batch.tailIdleS);
        m.emplace_back("driver.trace_overhead",
                       tp.totalS / up.totalS - 1.0);
        const Render &r = up.render;
        const bool fig = p.fig != nullptr;
        m.emplace_back("sweep.declare_ms", 1e3 * r.declareS);
        m.emplace_back("sweep.render_s", r.coldS);
        m.emplace_back("sweep.points", static_cast<double>(r.cold.points));
        m.emplace_back("sweep.cache_stores",
                       static_cast<double>(r.cold.cacheStores));
        m.emplace_back("sweep.cache_hits",
                       static_cast<double>(r.cold.cacheHits));
        m.emplace_back("sweep.core_util",
                       fig ? r.cpuS / (workers * r.coldS) : 0.0);
        m.emplace_back("run_cache.warm_render_ms", 1e3 * median(r.warmS));
        m.emplace_back("run_cache.bytes", static_cast<double>(r.cacheBytes));
        std::vector<const SpanLog *> logs;
        if (tp.renderLog)
            logs.push_back(tp.renderLog.get());
        for (const auto &l : tp.batch.logs)
            logs.push_back(l.get());
        writeSpanFile(a, logs);
    }
    std::filesystem::remove_all(cacheDir(a));
    if (!a.recordPath.empty())
        recordPinned(a, c);
    const bool pinnedOk = checkPinned(a, &c);
    printResult(a, workers, p.setupS, c, pinnedOk, runMs.size(), m);
    return pinnedOk && c.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args a = parseArgs(argc, argv);
    const unsigned workers = cpusAllowed();
    try {
        std::filesystem::create_directories(a.workDir);
        Plan p = setUp(a, workers);
        if (a.setupOnly) {
            std::printf("{\"setup_s\":%.9g}\n", p.setupS);
            return 0;
        }
        return measure(a, workers, p);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
