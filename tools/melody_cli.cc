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
 *                                       rerun to continue a killed
 *                                       or ^C'd run
 *   melody cache stats|clear            inspect/purge the run cache
 *   melody period <wl> <mem> [N]        period-based breakdown
 *   melody advise <wl> <mem>            §5.7 tiering advice
 *   melody batch <srv> <mem> [stride]   whole-suite slowdowns, CSV
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench/figures.hh"
#include "core/mio.hh"
#include "sim/interrupt.hh"
#include "core/mlc.hh"
#include "core/platform.hh"
#include "core/slowdown.hh"
#include "sim/logging.hh"
#include "sim/run_cache.hh"
#include "sim/sweep.hh"
#include "spa/advisor.hh"
#include "spa/breakdown.hh"
#include "spa/period.hh"
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
        "               [--check-invariants] [--progress]\n"
        "               <figure...>|all\n"
        "  melody sweep --list\n"
        "  melody cache stats|clear [--cache-dir D]\n"
        "  melody period <workload> <memory> [periods]\n"
        "  melody advise <workload> <memory>\n"
        "  melody batch <server> <memory> [stride]\n"
        "servers: SPR2S EMR2S EMR2S' SKX2S SKX8S\n"
        "memory:  Local NUMA NUMA-140ns NUMA-190ns NUMA-410ns "
        "CXL-A..D CXL-X+NUMA CXL-X+Switch[2] CXL-Dx2\n"
        "sweep --progress draws a done/ETA status line on\n"
        "        stderr; stdout bytes are unchanged.\n");
    return 2;
}

int
cmdList(const std::string &family)
{
    if (!family.empty()) {
        const auto names = workloads::familyNames();
        if (std::find(names.begin(), names.end(), family) == names.end())
            throw ConfigError("unknown family: " + family);
    }
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
    sweep::Options opts;
    std::vector<const figs::Figure *> picked;
    // A figure selected twice (`fig01 fig01_spectrum`, `all fig01`)
    // renders once, where it was first picked: a second build would
    // repeat every point key in its cache scope.
    const auto pick = [&picked](const figs::Figure *f) {
        if (std::find(picked.begin(), picked.end(), f) ==
            picked.end())
            picked.push_back(f);
    };
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
        } else if (a == "--check-invariants") {
            opts.checkInvariants = true;
        } else if (a == "--progress") {
            opts.progress = true;
        } else if (a == "all") {
            for (const auto &f : figs::all())
                pick(&f);
        } else {
            const auto *f = figs::find(a);
            if (!f && a.rfind("--", 0) == 0)
                throw ConfigError("unknown sweep option '" + a + "'");
            if (!f)
                throw ConfigError("unknown figure '" + a +
                                  "' (melody sweep --list)");
            pick(f);
        }
    }
    if (picked.empty())
        throw ConfigError("no figures selected "
                          "(melody sweep --list)");
    // ^C/SIGTERM stops claiming points; the ones already finished
    // are in the run cache (src/sim/interrupt.hh).
    sim::installInterruptHandlers();

    // One engine run for the whole selection; each figure keeps its
    // own cache scope, so its entries are shared by every selection
    // that includes it.
    sweep::Sweep s("melody-sweep", opts);
    for (const auto *f : picked) {
        s.scope(f->binary);
        f->build(s);
    }
    sweep::Sweep::Report rep;
    try {
        rep = s.run(stdout);
    } catch (const std::exception &e) {
        // A throwing point is a simulator bug, not a user error:
        // no usage text, exit 1. Points that finished before it
        // are already stored.
        std::fprintf(stderr, "melody sweep: error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "melody sweep: %zu figure(s), %zu point(s), "
                 "%zu cache hit(s), %zu store(s), %zu corrupt\n",
                 picked.size(), rep.points, rep.cacheHits,
                 rep.cacheStores, rep.corruptEntries);
    // Degradation diagnostic: outputs above are complete and
    // correct (hence exit code untouched), but the operator should
    // know persistence went read-only.
    if (rep.cacheDegraded)
        std::fprintf(stderr,
                     "melody sweep: run cache DEGRADED to "
                     "read-only (persistent store failure); "
                     "results recompute next run\n");
    if (!rep.invariantDiags.empty()) {
        std::fprintf(stderr,
                     "melody sweep: %zu invariant violation(s):\n",
                     rep.invariantDiags.size());
        for (const auto &d : rep.invariantDiags)
            std::fprintf(stderr, "  %s at %s: %s [point %s]\n",
                         d.invariant.c_str(), d.where.c_str(),
                         d.values.c_str(), d.pointKey.c_str());
    }
    if (rep.interrupted) {
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
    std::string dir = sweep::Options{}.cacheDir;
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
    // Writability probe: a full disk, a read-only mount or a path
    // that cannot be created means every sweep against this
    // directory will run cache-DEGRADED. An existing directory is
    // probed with a temp file; a missing one (a cold cache) is
    // judged by its nearest existing ancestor, which must be a
    // directory, and nothing is created. The extra line only
    // appears on failure — healthy output bytes are unchanged.
    namespace fs = std::filesystem;
    std::error_code ec;
    bool writable = true;
    if (fs::exists(dir, ec)) {
        const std::string probe =
            dir + "/.melody-probe." + std::to_string(::getpid()) +
            ".tmp";
        writable = false;
        if (std::FILE *f = std::fopen(probe.c_str(), "wb")) {
            writable = std::fwrite("m", 1, 1, f) == 1;
            writable = (std::fclose(f) == 0) && writable;
        }
        fs::remove(probe, ec);
    } else {
        fs::path up = fs::absolute(dir, ec);
        while (!fs::exists(up, ec) && up != up.parent_path())
            up = up.parent_path();
        writable = fs::is_directory(up, ec);
    }
    if (!writable)
        std::printf("  DEGRADED: directory is not writable; "
                    "sweeps will run read-only (results "
                    "recomputed, never cached)\n");
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
    return usage();
}

}  // namespace

int
main(int argc, char **argv)
{
    int rc;
    try {
        rc = dispatch(argc, argv);
    } catch (const ConfigError &e) {
        // User-input errors end with a message + usage, never an
        // abort: scripts can distinguish bad flags (exit 2) from
        // simulator bugs (SIM_PANIC aborts).
        std::fprintf(stderr, "melody: error: %s\n", e.what());
        return usage();
    }
    // Output that never reached stdout (a full disk, a closed
    // pipe) is a lost figure, not a user error: exit 1, no usage.
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        std::fprintf(stderr, "melody: error: writing stdout: %s\n",
                     std::strerror(errno));
        return 1;
    }
    return rc;
}
