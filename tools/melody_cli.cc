/**
 * @file
 * melody — command-line front end for the Melody/Spa framework.
 *
 *   melody list [family]                workloads in the suite
 *   melody families                     family names
 *   melody characterize <srv> <mem>     idle/tail latency + peak BW
 *   melody slowdown <wl> <srv> <mem>    slowdown + Spa breakdown
 *   melody sweep <wl>                   one workload across setups
 *   melody sweep [opts] <fig...>|all    figure suite via the sweep
 *                                       engine (parallel + cached);
 *                                       --isolate forks crash-
 *                                       isolated workers; rerun to
 *                                       continue a killed run
 *   melody cache stats|clear            inspect/purge the run cache
 *   melody period <wl> <mem> [N]        period-based breakdown
 *   melody advise <wl> <mem>            §5.7 tiering advice
 *   melody batch <srv> <mem> [stride]   whole-suite slowdowns, CSV
 *   melody ras <wl> <srv> <mem> [plan]  fault-injection run, JSON
 */

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench/figures.hh"
#include "core/mio.hh"
#include "sim/interrupt.hh"
#include "sim/io_fault.hh"
#include "core/mlc.hh"
#include "core/platform.hh"
#include "core/slowdown.hh"
#include "ras/fault_plan.hh"
#include "sim/logging.hh"
#include "sim/run_cache.hh"
#include "sim/sweep.hh"
#include "spa/advisor.hh"
#include "spa/breakdown.hh"
#include "spa/period.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "workloads/suite.hh"

using namespace cxlsim;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  melody list [family]\n"
        "  melody families\n"
        "  melody characterize <server> <memory>\n"
        "  melody slowdown <workload> <server> <memory>\n"
        "  melody sweep <workload>\n"
        "  melody sweep [--jobs N] [--no-cache] [--cache-dir D]\n"
        "               [--isolate] [--retries N] [--timeout-ms N]\n"
        "               [--check-invariants] [--progress]\n"
        "               <figure...>|all\n"
        "  melody sweep --list\n"
        "  melody cache stats|clear [--cache-dir D]\n"
        "  melody period <workload> <memory> [periods]\n"
        "  melody advise <workload> <memory>\n"
        "  melody batch <server> <memory> [stride]\n"
        "  melody ras <workload> <server> <memory> [faultplan]\n"
        "servers: SPR2S EMR2S EMR2S' SKX2S SKX8S\n"
        "memory:  Local NUMA NUMA-140ns NUMA-190ns NUMA-410ns "
        "CXL-A..D CXL-X+NUMA CXL-X+Switch[2] CXL-Dx2\n"
        "faultplan: crc=<p>,ce=<p>,ue=<p>,scrub=<dur>,"
        "offline@<t>[:devN],failover,... (see src/ras/fault_plan.hh)\n"
        "global: --io-faults SPEC  deterministic host-I/O fault\n"
        "        injection (e.g. \"seed=7 write:enospc@0.01\";\n"
        "        MELODY_IO_FAULTS equivalent; DESIGN.md §15)\n"
        "sweep --progress draws a done/ETA status line on\n"
        "        stderr; stdout bytes are unchanged.\n");
    return 2;
}

int
cmdList(const std::string &family)
{
    for (const auto &w : workloads::suite()) {
        if (!family.empty() && w.family != family)
            continue;
        std::printf("%-24s %-9s threads=%-2u ws=%lluMB\n",
                    w.name.c_str(), w.family.c_str(), w.threads,
                    static_cast<unsigned long long>(
                        w.workingSetBytes >> 20));
    }
    return 0;
}

int
cmdFamilies()
{
    for (const auto &f : workloads::familyNames()) {
        std::size_t n = workloads::familyWorkloads(f).size();
        std::printf("%-10s %zu workloads\n", f.c_str(), n);
    }
    return 0;
}

int
cmdCharacterize(const std::string &srv, const std::string &mem)
{
    melody::Platform plat(srv, mem);
    auto idleBe = plat.makeBackend(1);
    const auto mio = melody::mioChaseDirect(idleBe.get(), 2, 20000);

    melody::MlcConfig cfg;
    cfg.delayCycles = 0;
    cfg.windowUs = 250;
    cfg.warmupUs = 60;
    cfg.readFrac = 1.0;
    auto rdBe = plat.makeBackend(2);
    const double readBw = melody::mlcMeasure(rdBe.get(), cfg).gbps;
    cfg.readFrac = 0.67;
    auto mxBe = plat.makeBackend(2);
    const double mixBw = melody::mlcMeasure(mxBe.get(), cfg).gbps;

    std::printf("%s on %s\n", mem.c_str(), srv.c_str());
    std::printf("  idle latency   %7.0f ns\n", mio.latencyNs.mean());
    std::printf("  p50 / p99 / p99.9 / p99.99:"
                " %0.0f / %0.0f / %0.0f / %0.0f ns\n",
                mio.latencyNs.percentile(0.5),
                mio.latencyNs.percentile(0.99),
                mio.latencyNs.percentile(0.999),
                mio.latencyNs.percentile(0.9999));
    std::printf("  read-only BW   %7.1f GB/s\n", readBw);
    std::printf("  mixed (2:1) BW %7.1f GB/s\n", mixBw);
    return 0;
}

int
cmdSlowdown(const std::string &wl, const std::string &srv,
            const std::string &mem)
{
    const auto &w = workloads::byName(wl);
    melody::Platform lp(srv, "Local");
    melody::Platform tp(srv, mem);
    const auto base = melody::runWorkload(w, lp, 1);
    const auto test = melody::runWorkload(w, tp, 1);
    const auto b = spa::computeBreakdown(base, test);

    std::printf("%s on %s:%s\n", wl.c_str(), srv.c_str(),
                mem.c_str());
    std::printf("  slowdown        %7.1f %%\n", b.actual);
    std::printf("  IPC             %7.2f -> %.2f\n",
                base.counters.instructions / base.counters.cycles,
                test.counters.instructions / test.counters.cycles);
    std::printf("  backend BW      %7.1f -> %.1f GB/s\n",
                base.backendGBps(), test.backendGBps());
    std::printf("  Spa breakdown: DRAM %.1f  L3 %.1f  L2 %.1f  "
                "L1 %.1f  Store %.1f  Core %.1f  Other %.1f\n",
                b.dram, b.l3, b.l2, b.l1, b.store, b.core, b.other);
    std::printf("  estimators: ds %.1f  dsBackend %.1f  "
                "dsMemory %.1f (actual %.1f)\n",
                b.estTotalStalls, b.estBackend, b.estMemory,
                b.actual);
    return 0;
}

int
cmdSweep(const std::string &wl)
{
    const auto &w = workloads::byName(wl);
    melody::SlowdownStudy study(1);
    stats::Table t({"Setup", "Slowdown(%)"});
    struct
    {
        const char *srv;
        const char *mem;
    } setups[] = {{"SKX2S", "NUMA-140ns"}, {"SKX2S", "NUMA-190ns"},
                  {"EMR2S", "NUMA"},        {"EMR2S'", "CXL-D"},
                  {"EMR2S", "CXL-A"},       {"EMR2S", "CXL-B"},
                  {"EMR2S", "CXL-C"},       {"EMR2S", "CXL-A+NUMA"},
                  {"SKX8S", "NUMA-410ns"}};
    for (const auto &s : setups)
        t.addRow({std::string(s.srv) + ":" + s.mem,
                  stats::Table::num(
                      study.slowdown(w, s.srv, s.mem), 1)});
    t.print();
    return 0;
}

int
cmdSweepFigures(const std::vector<std::string> &args)
{
    sweep::Options opts = sweep::optionsFromEnv();
    std::vector<const figs::Figure *> picked;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--list") {
            for (const auto &f : figs::all())
                std::printf("%-12s %-26s %s\n", f.name, f.binary,
                            f.title);
            return 0;
        } else if (a == "--jobs") {
            if (i + 1 == args.size())
                throw ConfigError("--jobs needs a value");
            opts.jobs = parseUnsigned(args[++i].c_str(), "--jobs");
        } else if (a == "--no-cache") {
            opts.cache = false;
        } else if (a == "--cache-dir") {
            if (i + 1 == args.size())
                throw ConfigError("--cache-dir needs a value");
            opts.cacheDir = args[++i];
        } else if (a == "--isolate") {
            opts.isolate = true;
        } else if (a == "--retries") {
            if (i + 1 == args.size())
                throw ConfigError("--retries needs a value");
            opts.maxAttempts = parseUnsigned(args[++i].c_str(),
                                             "--retries",
                                             UINT_MAX - 1) +
                               1;
        } else if (a == "--timeout-ms") {
            if (i + 1 == args.size())
                throw ConfigError("--timeout-ms needs a value");
            opts.timeoutMs = parseUnsigned(args[++i].c_str(),
                                           "--timeout-ms");
        } else if (a == "--check-invariants") {
            opts.checkInvariants = true;
        } else if (a == "--progress") {
            opts.progress = true;
        } else if (a == "all") {
            for (const auto &f : figs::all())
                picked.push_back(&f);
        } else {
            const auto *f = figs::find(a);
            if (!f && a.rfind("--", 0) == 0)
                throw ConfigError("unknown sweep option '" + a + "'");
            if (!f)
                throw ConfigError("unknown figure '" + a +
                                  "' (melody sweep --list)");
            picked.push_back(f);
        }
    }
    if (picked.empty())
        throw ConfigError("no figures selected "
                          "(melody sweep --list)");
    // Graceful ^C/SIGTERM for crash-isolated runs: the supervisor
    // stops dispatching, reaps in-flight workers (their results
    // reach the run cache), fails every unstarted point as
    // "interrupted" and still prints the failure table
    // (src/sim/interrupt.hh).
    if (opts.isolate)
        sim::installInterruptHandlers();

    // One engine run for the whole selection; each figure keeps its
    // own cache scope so entries are shared with the standalone
    // bench binaries.
    sweep::Sweep s("melody-sweep", opts);
    for (const auto *f : picked) {
        s.scope(f->binary);
        f->build(s);
    }
    const sweep::Sweep::Report rep = s.run(stdout);
    std::fprintf(stderr,
                 "melody sweep: %zu figure(s), %zu point(s), "
                 "%zu cache hit(s), %zu store(s), %zu corrupt\n",
                 picked.size(), rep.points, rep.cacheHits,
                 rep.cacheStores, rep.corruptEntries);
    if (rep.retries)
        std::fprintf(stderr, "melody sweep: %llu retry(ies)\n",
                     static_cast<unsigned long long>(rep.retries));
    // Degradation diagnostic: outputs above are complete and
    // correct (hence exit code untouched), but the operator should
    // know persistence went read-only.
    if (rep.cacheDegraded)
        std::fprintf(stderr,
                     "melody sweep: run cache DEGRADED to "
                     "read-only (persistent store failure); "
                     "results recompute next run\n");
    // Degraded-run reporting: surviving figures already rendered
    // above; summarize what was lost and exit nonzero so scripts
    // notice.
    if (!rep.failures.empty()) {
        std::fprintf(stderr,
                     "melody sweep: %zu point(s) FAILED:\n",
                     rep.failures.size());
        std::fprintf(stderr, "  %-6s %-10s %s\n", "point",
                     "attempts", "key (cause)");
        for (const auto &f : rep.failures)
            std::fprintf(stderr, "  %-6zu %-10u %s (%s)\n",
                         f.point, f.attempts, f.key.c_str(),
                         f.cause.c_str());
    }
    if (!rep.invariantDiags.empty()) {
        std::fprintf(stderr,
                     "melody sweep: %zu invariant violation(s):\n",
                     rep.invariantDiags.size());
        for (const auto &d : rep.invariantDiags)
            std::fprintf(stderr, "  %s at %s: %s [point %s]\n",
                         d.invariant.c_str(), d.where.c_str(),
                         d.values.c_str(), d.pointKey.c_str());
    }
    // With --io-faults / MELODY_IO_FAULTS armed, emit the injected-
    // failure log: same seed + --jobs 1 reproduces it byte for
    // byte, which is what CI's replay leg compares.
    if (sim::iofault::enabled()) {
        const auto lines = sim::iofault::logLines();
        std::fprintf(
            stderr,
            "melody sweep: io-fault injection active (%s): %llu "
            "fault(s) injected\n",
            sim::iofault::activeSpec().c_str(),
            static_cast<unsigned long long>(
                sim::iofault::injectedCount()));
        for (const auto &l : lines)
            std::fprintf(stderr, "%s\n", l.c_str());
        if (sim::iofault::droppedLogLines())
            std::fprintf(stderr,
                         "io-fault: ... %llu more (log capped)\n",
                         static_cast<unsigned long long>(
                             sim::iofault::droppedLogLines()));
    }
    if (sim::interruptRequested()) {
        std::fprintf(stderr, "melody sweep: interrupted; %s\n",
                     opts.cache && !rep.cacheDegraded
                         ? "finished points are in the run cache — "
                           "rerun the same command to continue"
                         : "the run cache is off or read-only, so a "
                           "rerun recomputes what it could not store");
        sim::resetInterruptHandlers();
    }
    return rep.clean() ? 0 : 1;
}

int
cmdCache(const std::vector<std::string> &args)
{
    std::string dir = "results/.runcache";
    std::string action;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--cache-dir") {
            if (i + 1 == args.size())
                throw ConfigError("--cache-dir needs a value");
            dir = args[++i];
        } else if (a == "stats" || a == "clear") {
            if (!action.empty())
                throw ConfigError(
                    "cache takes one action, got '" + action +
                    "' and '" + a + "'");
            action = a;
        } else {
            throw ConfigError("unknown cache argument '" + a +
                              "' (stats|clear [--cache-dir D])");
        }
    }
    if (action.empty())
        throw ConfigError(
            "cache needs an action: stats|clear [--cache-dir D]");

    if (action == "clear") {
        const std::uint64_t removed = sweep::RunCache::clearDir(dir);
        std::printf("removed %llu file(s) from %s\n",
                    static_cast<unsigned long long>(removed),
                    dir.c_str());
        return 0;
    }
    const sweep::RunCache::DirStats ds =
        sweep::RunCache::scanDir(dir);
    std::printf("cache %s: %llu entr%s, %.1f MB",
                dir.c_str(),
                static_cast<unsigned long long>(ds.entries),
                ds.entries == 1 ? "y" : "ies",
                static_cast<double>(ds.bytes) / 1e6);
    if (ds.foreign)
        std::printf(", %llu foreign file(s)",
                    static_cast<unsigned long long>(ds.foreign));
    std::printf("\n");
    for (const auto &[salt, n] : ds.perSalt)
        std::printf("  salt %-24s %llu entr%s%s\n", salt.c_str(),
                    static_cast<unsigned long long>(n),
                    n == 1 ? "y" : "ies",
                    salt == sweep::kSweepSalt ? " (current)"
                                              : " (stale)");
    // Writability probe: a full disk / read-only mount means every
    // sweep against this directory will run cache-DEGRADED. Only
    // an *existing* directory is probed (a missing one is just a
    // cold cache), and the extra line only appears on failure —
    // healthy output bytes are unchanged.
    if (std::filesystem::exists(dir)) {
        namespace iof = sim::iofault;
        const std::string probe =
            dir + "/.melody-probe." + std::to_string(::getpid()) +
            ".tmp";
        bool writable = false;
        if (std::FILE *f = iof::xfopen(probe.c_str(), "wb")) {
            writable = iof::xfwrite("m", 1, 1, f) == 1;
            writable = (iof::xfclose(f) == 0) && writable;
        }
        std::error_code ec;
        std::filesystem::remove(probe, ec);
        if (!writable)
            std::printf("  DEGRADED: directory is not writable; "
                        "sweeps will run read-only (results "
                        "recomputed, never cached)\n");
    }
    return 0;
}

/** True when the `sweep` arguments select figure mode (flags,
 *  `all`, or a known figure alias/binary) rather than a workload. */
bool
sweepWantsFigures(int argc, char **argv)
{
    if (argc < 3)
        return false;
    if (argc > 3)
        return true;  // `sweep <workload>` is always exactly 1 arg
    const std::string a = argv[2];
    return a.rfind("--", 0) == 0 || a == "all" ||
           figs::find(a) != nullptr;
}

int
cmdPeriod(const std::string &wl, const std::string &mem,
          unsigned periods)
{
    if (periods == 0)
        throw ConfigError("periods must be at least 1");
    auto w = workloads::byName(wl);
    melody::Platform lp("EMR2S", "Local");
    melody::Platform tp("EMR2S", mem);
    const auto base =
        melody::runWorkload(w, lp, 1, true, usToTicks(15));
    const auto test =
        melody::runWorkload(w, tp, 1, true, usToTicks(15));
    const auto ps = spa::periodAnalysis(
        base.samples, test.samples,
        base.counters.instructions / periods);
    std::printf("%-4s %8s | %6s %5s %5s %5s %6s\n", "per", "S(%)",
                "DRAM", "L3", "L2", "L1", "Store");
    for (const auto &p : ps)
        std::printf("%-4llu %8.1f | %6.1f %5.1f %5.1f %5.1f %6.1f\n",
                    static_cast<unsigned long long>(p.periodIndex),
                    p.breakdown.actual, p.breakdown.dram,
                    p.breakdown.l3, p.breakdown.l2, p.breakdown.l1,
                    p.breakdown.store);
    return 0;
}

int
cmdBatch(const std::string &srv, const std::string &mem,
         unsigned stride)
{
    if (stride == 0)
        throw ConfigError("stride must be at least 1");
    melody::SlowdownStudy study(1);
    std::vector<workloads::WorkloadProfile> ws;
    const auto &all = workloads::suite();
    for (std::size_t i = 0; i < all.size(); i += stride) {
        ws.push_back(all[i]);
        ws.back().blocksPerCore =
            std::min<std::uint64_t>(ws.back().blocksPerCore, 40000);
    }
    const auto s = study.slowdownBatch(ws, srv, mem);
    std::printf("workload,family,threads,slowdown_pct\n");
    for (std::size_t i = 0; i < ws.size(); ++i)
        std::printf("%s,%s,%u,%.2f\n", ws[i].name.c_str(),
                    ws[i].family.c_str(), ws[i].threads, s[i]);
    return 0;
}

int
cmdAdvise(const std::string &wl, const std::string &mem)
{
    auto w = workloads::byName(wl);
    melody::Platform lp("EMR2S", "Local");
    melody::Platform tp("EMR2S", mem);
    const auto base =
        melody::runWorkload(w, lp, 1, true, usToTicks(15));
    const auto test =
        melody::runWorkload(w, tp, 1, true, usToTicks(15));
    const auto ps = spa::periodAnalysis(
        base.samples, test.samples,
        base.counters.instructions / 16.0);
    const double frac = spa::suggestPinnedFraction(ps, 10.0);
    if (frac == 0.0) {
        std::printf("no bursty periods: leave the workload on %s\n",
                    mem.c_str());
        return 0;
    }
    const auto r = spa::tunePlacement(w, "EMR2S", mem, frac, 1);
    std::printf("pin %.0f%% of the working set locally: slowdown "
                "%.1f%% -> %.1f%%\n",
                100 * frac, r.slowdownAllCxl, r.slowdownPinned);
    return 0;
}

int
cmdRas(const std::string &wl, const std::string &srv,
       const std::string &mem, const std::string &planSpec)
{
    const auto &w = workloads::byName(wl);
    melody::Platform plat(srv, mem);
    ras::FaultPlan plan;
    if (!planSpec.empty())
        plan = ras::parseFaultPlan(planSpec);
    plat.setFaultPlan(plan);

    const auto r = melody::runWorkload(w, plat, 1);
    const ras::RasStats total = r.rasTotal();

    stats::JsonWriter j;
    j.beginObject();
    j.field("workload", wl);
    j.field("server", srv);
    j.field("memory", mem);
    j.field("fault_plan", planSpec);
    j.field("wall_ms", r.seconds() * 1e3);
    j.field("backend_gbps", r.backendGBps());
    j.field("machine_checks", r.counters.machineChecks);
    j.field("demand_timeouts", r.counters.demandTimeouts);
    j.field("prefetch_drops", r.counters.prefetchDrops);
    j.key("ras_total");
    total.writeJson(&j);
    j.key("nodes");
    j.beginArray();
    for (const auto &e : r.ras) {
        j.beginObject();
        j.field("name", e.name);
        j.key("stats");
        e.stats.writeJson(&j);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}

int
dispatch(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList(argc > 2 ? argv[2] : "");
    if (cmd == "families")
        return cmdFamilies();
    if (cmd == "characterize" && argc == 4)
        return cmdCharacterize(argv[2], argv[3]);
    if (cmd == "slowdown" && argc == 5)
        return cmdSlowdown(argv[2], argv[3], argv[4]);
    if (cmd == "sweep" && sweepWantsFigures(argc, argv))
        return cmdSweepFigures(
            std::vector<std::string>(argv + 2, argv + argc));
    if (cmd == "cache")
        return cmdCache(
            std::vector<std::string>(argv + 2, argv + argc));
    if (cmd == "sweep" && argc == 3)
        return cmdSweep(argv[2]);
    if (cmd == "period" && argc >= 4)
        return cmdPeriod(argv[2], argv[3],
                         argc > 4 ? parseUnsigned(argv[4],
                                                  "periods")
                                  : 16);
    if (cmd == "advise" && argc == 4)
        return cmdAdvise(argv[2], argv[3]);
    if (cmd == "batch" && argc >= 4)
        return cmdBatch(argv[2], argv[3],
                        argc > 4 ? parseUnsigned(argv[4],
                                                 "stride")
                                 : 1);
    if (cmd == "ras" && (argc == 5 || argc == 6))
        return cmdRas(argv[2], argv[3], argv[4],
                      argc == 6 ? argv[5] : "");
    return usage();
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        // --io-faults is global (any subcommand honours it), so
        // strip it before dispatch.
        std::vector<char *> args;
        for (int i = 0; i < argc; ++i) {
            if (std::strcmp(argv[i], "--io-faults") == 0) {
                // Any subcommand's host I/O can be made to fail
                // deterministically (DESIGN.md §15). Equivalent to
                // MELODY_IO_FAULTS, which forked workers also
                // inherit.
                if (i + 1 == argc)
                    throw ConfigError("--io-faults needs a value");
                sim::iofault::install(argv[++i]);
                continue;
            }
            args.push_back(argv[i]);
        }
        return dispatch(static_cast<int>(args.size()), args.data());
    } catch (const ConfigError &e) {
        // User-input errors end with a message + usage, never an
        // abort: scripts can distinguish bad flags (exit 2) from
        // simulator bugs (SIM_PANIC aborts).
        std::fprintf(stderr, "melody: error: %s\n", e.what());
        return usage();
    }
}
