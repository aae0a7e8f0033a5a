/**
 * @file
 * Supervised (crash-isolated) sweep execution tests: byte-identical
 * output vs the in-process engine for any job count, structured
 * failure causes for every crash class (SIGSEGV, SIGABRT, thrown
 * exception, premature exit, watchdog hang), retry accounting,
 * journal round trips, resumable runs that skip journaled-complete
 * points, runtime invariant plumbing, and the cache
 * stats/clear maintenance entry points.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/figures.hh"
#include "sim/interrupt.hh"
#include "sim/invariants.hh"
#include "sim/journal.hh"
#include "sim/logging.hh"
#include "sim/run_cache.hh"
#include "sim/sweep.hh"

using namespace cxlsim;

namespace {

std::string
freshDir(const char *leaf)
{
    namespace fs = std::filesystem;
    const fs::path d = fs::path(testing::TempDir()) / leaf;
    fs::remove_all(d);
    return d.string();
}

std::string
freshJournal(const char *leaf)
{
    namespace fs = std::filesystem;
    const fs::path p =
        fs::path(testing::TempDir()) / (std::string(leaf) + ".jsonl");
    fs::remove(p);
    return p.string();
}

sweep::Options
isolated()
{
    sweep::Options o;
    o.cache = false;
    o.isolate = true;
    o.checkInvariants = false;
    return o;
}

/** What the victim point should do when it runs. */
enum class Victim { kOk, kSegv, kAbort, kThrow, kExit, kHang };

/**
 * Synthetic sweep with two healthy points on either side of one
 * configurable victim, plus a gather over the victim's slot. If
 * @p trapSurvivors, the healthy points segfault too — used by the
 * resume tests to prove journaled points are never re-executed.
 */
void
buildVictimSweep(sweep::Sweep &s, Victim mode,
                 bool trapSurvivors = false,
                 const std::string &marker = "")
{
    s.scope("victim-sweep");
    s.text("header\n");
    for (int k = 0; k < 2; ++k)
        s.point("pre k=" + std::to_string(k),
                [k, trapSurvivors](sweep::Emit &e) {
                    if (trapSurvivors) {
                        volatile int *p = nullptr;
                        *p = 1;  // must never run under --resume
                    }
                    e.printf("pre %d = %d\n", k, k * k);
                });
    const std::size_t victim =
        s.point("victim", 1, [mode, marker](sweep::Emit *slots) {
            switch (mode) {
              case Victim::kSegv: {
                  volatile int *p = nullptr;
                  *p = 42;
                  break;
              }
              case Victim::kAbort:
                std::abort();
              case Victim::kThrow:
                throw std::runtime_error("victim boom");
              case Victim::kExit:
                std::_Exit(7);
              case Victim::kHang:
                for (;;)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
              case Victim::kOk:
                break;
            }
            // Transient-failure mode: crash only until the marker
            // file exists (created below on the first attempt).
            if (!marker.empty() &&
                !std::filesystem::exists(marker)) {
                {
                    std::ofstream f(marker);
                    f << "attempted\n";
                }
                std::abort();
            }
            slots[0].text("victim ok\n");
        });
    s.place(victim);
    for (int k = 0; k < 2; ++k)
        s.point("post k=" + std::to_string(k),
                [k, trapSurvivors](sweep::Emit &e) {
                    if (trapSurvivors) {
                        volatile int *p = nullptr;
                        *p = 1;
                    }
                    e.printf("post %d = %d\n", k, k * k * k);
                });
    s.gather(s.slotsOf(victim),
             [](const std::vector<std::string> &in,
                sweep::Emit &out) {
                 out.printf("victim emitted %zu byte(s)\n",
                            in[0].size());
             });
}

std::string
renderVictim(const sweep::Options &opts, Victim mode,
             sweep::Sweep::Report *rep = nullptr,
             bool trapSurvivors = false,
             const std::string &marker = "")
{
    sweep::Sweep s("test-supervisor", opts);
    buildVictimSweep(s, mode, trapSurvivors, marker);
    return s.renderToString(rep);
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

}  // namespace

// ---------------------------------------------------------------
// Fault-free supervised runs: byte-identical to in-process mode.
// ---------------------------------------------------------------

TEST(Supervisor, FaultFreeOutputMatchesInProcessByteForByte)
{
    sweep::Options inproc;
    inproc.cache = false;
    inproc.checkInvariants = false;
    const std::string ref = renderVictim(inproc, Victim::kOk);
    ASSERT_FALSE(ref.empty());
    for (unsigned jobs : {1u, 8u}) {
        sweep::Options iso = isolated();
        iso.jobs = jobs;
        sweep::Sweep::Report rep;
        EXPECT_EQ(ref, renderVictim(iso, Victim::kOk, &rep))
            << "jobs=" << jobs;
        EXPECT_TRUE(rep.clean());
        EXPECT_EQ(rep.retries, 0u);
    }
}

/** ISSUE acceptance: real figures, isolated, N in {1, 8}. */
class FigureIsolateDeterminism
    : public testing::TestWithParam<const char *>
{
};

TEST_P(FigureIsolateDeterminism, MatchesInProcessBytes)
{
    const figs::Figure *fig = figs::find(GetParam());
    ASSERT_NE(fig, nullptr);

    auto render = [&](const sweep::Options &o) {
        sweep::Sweep s(fig->binary, o);
        s.scope(fig->binary);
        fig->build(s);
        sweep::Sweep::Report rep;
        const std::string out = s.renderToString(&rep);
        EXPECT_TRUE(rep.clean());
        return out;
    };

    sweep::Options inproc;
    inproc.cache = false;
    inproc.checkInvariants = false;
    const std::string ref = render(inproc);
    ASSERT_FALSE(ref.empty());
    for (unsigned jobs : {1u, 8u}) {
        sweep::Options iso = isolated();
        iso.jobs = jobs;
        EXPECT_EQ(ref, render(iso)) << "jobs=" << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureIsolateDeterminism,
                         testing::Values("fig01", "fig16",
                                         "usecase"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------
// Crash classification and graceful degradation.
// ---------------------------------------------------------------

namespace {

/** Run one victim mode to exhaustion and return the report. */
sweep::Sweep::Report
crashReport(Victim mode, std::string *out,
            unsigned maxAttempts = 2, unsigned timeoutMs = 0)
{
    sweep::Options o = isolated();
    o.jobs = 4;
    o.maxAttempts = maxAttempts;
    o.timeoutMs = timeoutMs;
    sweep::Sweep::Report rep;
    *out = renderVictim(o, mode, &rep);
    return rep;
}

}  // namespace

TEST(Supervisor, SegvDegradesGracefully)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kSegv, &out);

    EXPECT_FALSE(rep.clean());
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].key, "victim-sweep|victim");
    EXPECT_EQ(rep.failures[0].cause, "SIGSEGV");
    EXPECT_EQ(rep.failures[0].attempts, 2u);
    EXPECT_EQ(rep.retries, 1u);

    // Survivors render normally; the victim and its dependent
    // gather render deterministic placeholders.
    EXPECT_NE(out.find("pre 0 = 0\n"), std::string::npos);
    EXPECT_NE(out.find("post 1 = 1\n"), std::string::npos);
    EXPECT_NE(out.find("[melody] point failed: "
                       "victim-sweep|victim (SIGSEGV, "
                       "2 attempt(s))\n"),
              std::string::npos);
    EXPECT_NE(out.find("[melody] gather skipped: depends on "
                       "failed point: victim-sweep|victim\n"),
              std::string::npos);
    EXPECT_EQ(out.find("victim ok"), std::string::npos);
}

TEST(Supervisor, AbortReportsSigabrt)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kAbort, &out);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "SIGABRT");
}

TEST(Supervisor, ThrownExceptionReportsWhat)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kThrow, &out);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "exception: victim boom");
}

TEST(Supervisor, PrematureExitReportsExitCode)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kExit, &out);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "exit-code 7");
}

TEST(Supervisor, HangTripsWatchdog)
{
    std::string out;
    const sweep::Sweep::Report rep = crashReport(
        Victim::kHang, &out, /*maxAttempts=*/1,
        /*timeoutMs=*/250);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "watchdog-timeout");
    EXPECT_EQ(rep.failures[0].attempts, 1u);
    EXPECT_EQ(rep.retries, 0u);
}

TEST(Supervisor, RetryRecoversTransientFailure)
{
    namespace fs = std::filesystem;
    const fs::path marker =
        fs::path(testing::TempDir()) / "supervisor-transient";
    fs::remove(marker);

    sweep::Options o = isolated();
    o.jobs = 1;
    o.maxAttempts = 3;
    sweep::Sweep::Report rep;
    const std::string out = renderVictim(
        o, Victim::kOk, &rep, false, marker.string());

    // First attempt aborts after dropping the marker; the retry
    // sees it and succeeds, so the sweep finishes clean.
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_NE(out.find("victim ok\n"), std::string::npos);
    EXPECT_NE(out.find("victim emitted 10 byte(s)\n"),
              std::string::npos);
    fs::remove(marker);
}

TEST(Supervisor, InterruptFailsQueuedPointsWithDistinctCause)
{
    // With the CLI's graceful-interrupt handlers installed, a
    // SIGINT mid-run must stop dispatch and fail every queued
    // point with the distinct cause "interrupted" (not a crash
    // cause, not a silent drop) while in-flight work is reaped.
    sim::installInterruptHandlers();

    sweep::Options o = isolated();
    o.jobs = 1;
    o.maxAttempts = 3;  // interruption must also defeat retries
    sweep::Sweep s("test-interrupt", o);
    s.scope("interrupt-sweep");
    // Every point behaves identically (signal the supervising
    // parent from the forked worker, then finish normally), so the
    // expectations hold for any launch order: whichever point runs
    // first interrupts the parent and completes; the other three
    // never start.
    for (int k = 0; k < 4; ++k)
        s.point("p" + std::to_string(k), [k](sweep::Emit &e) {
            ::kill(::getppid(), SIGINT);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(300));
            e.printf("point %d done\n", k);
        });
    sweep::Sweep::Report rep;
    const std::string out = s.renderToString(&rep);

    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
    EXPECT_FALSE(sim::interruptRequested());

    // Exactly one point got to run; the three queued ones carry
    // the "interrupted" cause with no retry attempts burned.
    std::size_t doneLines = 0;
    for (std::size_t at = out.find(" done\n");
         at != std::string::npos;
         at = out.find(" done\n", at + 1))
        ++doneLines;
    EXPECT_EQ(doneLines, 1u);
    ASSERT_EQ(rep.failures.size(), 3u);
    for (const auto &f : rep.failures) {
        EXPECT_EQ(f.cause, "interrupted");
        EXPECT_EQ(f.attempts, 1u);
    }
}

TEST(Supervisor, SecondInterruptKillsInFlightWorkers)
{
    // The first signal lets in-flight work finish; a second one
    // must SIGKILL it (a hung point would otherwise pin the
    // wind-down forever) and report the same distinct
    // "interrupted" cause as the queued points it joined.
    sim::installInterruptHandlers();

    sweep::Options o = isolated();
    o.jobs = 1;
    o.maxAttempts = 3;
    sweep::Sweep s("test-interrupt-2", o);
    s.scope("interrupt-escalation");
    // Both points would run ~forever; the test only passes if the
    // escalation cuts them down.
    for (int k = 0; k < 2; ++k)
        s.point("hang" + std::to_string(k), [k](sweep::Emit &e) {
            std::this_thread::sleep_for(std::chrono::seconds(120));
            e.printf("hang %d finished\n", k);
        });

    // Deliver the two-signal sequence from a helper thread while
    // renderToString blocks in the supervisor loop.
    std::thread interrupter([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::kill(::getpid(), SIGINT);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::kill(::getpid(), SIGINT);
    });
    const auto t0 = std::chrono::steady_clock::now();
    sweep::Sweep::Report rep;
    const std::string out = s.renderToString(&rep);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    interrupter.join();

    EXPECT_GE(sim::interruptCount(), 2);
    sim::resetInterruptHandlers();
    EXPECT_EQ(sim::interruptCount(), 0);

    // Nothing finished, both points failed as interrupted (the
    // in-flight one on its first attempt — no retry after a cut),
    // and the run wound down promptly instead of sleeping 120s.
    EXPECT_EQ(out.find(" finished\n"), std::string::npos);
    ASSERT_EQ(rep.failures.size(), 2u);
    for (const auto &f : rep.failures) {
        EXPECT_EQ(f.cause, "interrupted");
        EXPECT_EQ(f.attempts, 1u);
    }
    EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// ---------------------------------------------------------------
// Journal: lifecycle records, load(), resume, salt guard.
// ---------------------------------------------------------------

TEST(Journal, RecordsLifecycleAndLoadsBack)
{
    const std::string path = freshJournal("journal-lifecycle");
    sweep::Options o = isolated();
    o.jobs = 2;
    o.journalPath = path;
    o.salt = "journal-test-salt";
    sweep::Sweep::Report rep;
    renderVictim(o, Victim::kSegv, &rep);
    ASSERT_EQ(rep.failures.size(), 1u);

    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"event\":\"sweep\""), std::string::npos);
    EXPECT_NE(text.find("\"salt\":\"journal-test-salt\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"queued\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"started\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"finished\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"failed\""),
              std::string::npos);
    EXPECT_NE(text.find("\"final\":true"), std::string::npos);

    // load() surfaces the four completions, not the failure.
    std::map<std::string, std::vector<std::string>> done;
    std::string err;
    ASSERT_TRUE(sweep::Journal::load(path, "journal-test-salt",
                                     &done, &err))
        << err;
    EXPECT_EQ(done.size(), 4u);

    // Older journals carry an "elapsed_us" field in each finished
    // record; they must still resume. Re-append one completion in
    // that shape under a new hash and expect it to load with the
    // same slots.
    const std::size_t at = text.find("{\"event\":\"finished\"");
    ASSERT_NE(at, std::string::npos);
    std::string legacy = text.substr(at, text.find('\n', at) - at);
    const std::size_t hashAt = legacy.find("\"hash\":\"") + 8;
    const std::string hash =
        legacy.substr(hashAt, legacy.find('"', hashAt) - hashAt);
    legacy.replace(hashAt, hash.size(), "legacy-elapsed");
    legacy.insert(legacy.find("\"slots_hex\""),
                  "\"elapsed_us\":48213,");
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f << legacy << "\n";
    }
    done.clear();
    ASSERT_TRUE(sweep::Journal::load(path, "journal-test-salt",
                                     &done, &err))
        << err;
    EXPECT_EQ(done.size(), 5u);
    ASSERT_EQ(done.count("legacy-elapsed"), 1u);
    EXPECT_EQ(done["legacy-elapsed"], done[hash]);

    // A different salt refuses the whole journal.
    done.clear();
    EXPECT_FALSE(
        sweep::Journal::load(path, "other-salt", &done, &err));
    EXPECT_NE(err.find("salt"), std::string::npos);
}

TEST(Journal, LoadIgnoresTornTrailingLine)
{
    const std::string path = freshJournal("journal-torn");
    sweep::Options o = isolated();
    o.jobs = 1;
    o.journalPath = path;
    o.salt = "torn-salt";
    renderVictim(o, Victim::kOk);

    // Simulate a crash mid-append: a partial JSON line with no
    // trailing newline must be skipped, not fail the load.
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f << "{\"event\":\"finished\",\"hash\":\"dead";
    }
    std::map<std::string, std::vector<std::string>> done;
    std::string err;
    ASSERT_TRUE(
        sweep::Journal::load(path, "torn-salt", &done, &err))
        << err;
    EXPECT_EQ(done.size(), 5u);
}

TEST(Supervisor, ResumeSkipsJournaledPoints)
{
    const std::string path = freshJournal("journal-resume");

    // Run 1: the victim segfaults; everything else completes and
    // is journaled.
    sweep::Options first = isolated();
    first.jobs = 4;
    first.journalPath = path;
    sweep::Sweep::Report rep1;
    renderVictim(first, Victim::kSegv, &rep1);
    ASSERT_EQ(rep1.failures.size(), 1u);

    // Run 2: --resume with every survivor booby-trapped to
    // segfault if re-executed. A clean report proves the journal
    // (not recomputation) supplied their bytes.
    sweep::Options second = isolated();
    second.jobs = 4;
    second.resume = true;
    second.journalPath = path;
    sweep::Sweep::Report rep2;
    const std::string out = renderVictim(
        second, Victim::kOk, &rep2, /*trapSurvivors=*/true);
    EXPECT_TRUE(rep2.clean());
    EXPECT_EQ(rep2.resumedPoints, 4u);

    // The resumed output is byte-identical to a fully clean run.
    sweep::Options clean = isolated();
    EXPECT_EQ(out, renderVictim(clean, Victim::kOk));
}

TEST(Supervisor, ResumeWithoutJournalPathIsAConfigError)
{
    sweep::Options o = isolated();
    o.resume = true;
    o.journalPath.clear();
    EXPECT_THROW(renderVictim(o, Victim::kOk), ConfigError);
}

TEST(Supervisor, ResumeRefusesSaltMismatch)
{
    const std::string path = freshJournal("journal-salt");
    sweep::Options first = isolated();
    first.journalPath = path;
    first.salt = "salt-one";
    renderVictim(first, Victim::kOk);

    sweep::Options second = isolated();
    second.resume = true;
    second.journalPath = path;
    second.salt = "salt-two";
    EXPECT_THROW(renderVictim(second, Victim::kOk), ConfigError);
}

// ---------------------------------------------------------------
// Invariant checker: collector plumbing and diagnostics.
// ---------------------------------------------------------------

TEST(Invariants, RecordCapAndScopeRestore)
{
    EXPECT_EQ(sim::currentInvariants(), nullptr);
    sim::Invariants outer;
    {
        sim::InvariantScope a(&outer);
        EXPECT_EQ(sim::currentInvariants(), &outer);
        {
            sim::InvariantScope b(nullptr);
            EXPECT_EQ(sim::currentInvariants(), nullptr);
        }
        EXPECT_EQ(sim::currentInvariants(), &outer);

        for (int i = 0; i < 100; ++i)
            outer.record("test/cap", "loop",
                         "i=" + std::to_string(i));
    }
    EXPECT_EQ(sim::currentInvariants(), nullptr);
    EXPECT_TRUE(outer.failed());
    EXPECT_EQ(outer.violations().size(),
              sim::Invariants::kMaxRecorded);
    EXPECT_EQ(outer.dropped(),
              100u - sim::Invariants::kMaxRecorded);
}

TEST(Invariants, ApproxGeToleratesRoundoff)
{
    EXPECT_TRUE(sim::approxGe(1.0, 1.0));
    EXPECT_TRUE(sim::approxGe(2.0, 1.0));
    EXPECT_TRUE(sim::approxGe(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(sim::approxGe(1.0, 1.1));
}

namespace {

/** One-point sweep whose body records a synthetic violation. */
std::string
renderViolating(const sweep::Options &opts,
                sweep::Sweep::Report *rep)
{
    sweep::Sweep s("test-invariants", opts);
    s.scope("iv");
    s.point("bad", [](sweep::Emit &e) {
        if (sim::Invariants *inv = sim::currentInvariants())
            inv->record("test/synthetic", "renderViolating",
                        "x=1");
        e.text("bad ran\n");
    });
    return s.renderToString(rep);
}

}  // namespace

TEST(Invariants, ViolationsSurfaceInProcess)
{
    sweep::Options o;
    o.cache = false;
    o.checkInvariants = true;
    sweep::Sweep::Report rep;
    const std::string out = renderViolating(o, &rep);
    EXPECT_NE(out.find("bad ran\n"), std::string::npos);
    EXPECT_FALSE(rep.clean());
    ASSERT_EQ(rep.invariantDiags.size(), 1u);
    EXPECT_EQ(rep.invariantDiags[0].invariant, "test/synthetic");
    EXPECT_EQ(rep.invariantDiags[0].pointKey, "iv|bad");
    EXPECT_EQ(rep.invariantDiags[0].values, "x=1");
}

TEST(Invariants, ViolationsCrossTheIsolationPipe)
{
    sweep::Options o = isolated();
    o.checkInvariants = true;
    sweep::Sweep::Report rep;
    const std::string out = renderViolating(o, &rep);
    EXPECT_NE(out.find("bad ran\n"), std::string::npos);
    ASSERT_EQ(rep.invariantDiags.size(), 1u);
    EXPECT_EQ(rep.invariantDiags[0].invariant, "test/synthetic");
    EXPECT_EQ(rep.invariantDiags[0].where, "renderViolating");
}

TEST(Invariants, DisabledCheckerRecordsNothing)
{
    sweep::Options o;
    o.cache = false;
    o.checkInvariants = false;
    sweep::Sweep::Report rep;
    renderViolating(o, &rep);
    EXPECT_TRUE(rep.clean());
}

TEST(Invariants, RealFiguresRunCleanWithCheckerOn)
{
    const figs::Figure *fig = figs::find("fig01");
    ASSERT_NE(fig, nullptr);
    sweep::Options o;
    o.cache = false;
    o.checkInvariants = true;
    sweep::Sweep s(fig->binary, o);
    s.scope(fig->binary);
    fig->build(s);
    sweep::Sweep::Report rep;
    s.renderToString(&rep);
    EXPECT_TRUE(rep.clean());
    for (const auto &d : rep.invariantDiags)
        ADD_FAILURE() << d.invariant << " at " << d.where << ": "
                      << d.values;
}

// ---------------------------------------------------------------
// Crashtest figure registration (used by the CI smoke job).
// ---------------------------------------------------------------

TEST(CrashTestFigure, FindableButHiddenFromSuite)
{
    EXPECT_NE(figs::find("crashtest"), nullptr);
    EXPECT_NE(figs::find("crashtest_selftest"), nullptr);
    for (const figs::Figure &f : figs::all())
        EXPECT_STRNE(f.name, "crashtest");
}

// ---------------------------------------------------------------
// Run-cache maintenance: scanDir / clearDir (melody cache).
// ---------------------------------------------------------------

TEST(RunCacheMaintenance, ScanAndClear)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("cache-maint");

    sweep::Options o;
    o.cache = true;
    o.cacheDir = dir;
    o.salt = "maint-salt";
    o.checkInvariants = false;
    sweep::Sweep::Report rep;
    renderVictim(o, Victim::kOk, &rep);
    ASSERT_GT(rep.cacheStores, 0u);

    // Drop a foreign file in the directory: counted, never
    // deleted.
    const fs::path foreign = fs::path(dir) / "README.txt";
    {
        std::ofstream f(foreign);
        f << "not a cache entry\n";
    }

    sweep::RunCache::DirStats st = sweep::RunCache::scanDir(dir);
    EXPECT_EQ(st.entries, rep.cacheStores);
    EXPECT_GT(st.bytes, 0u);
    EXPECT_EQ(st.foreign, 1u);
    ASSERT_EQ(st.perSalt.size(), 1u);
    EXPECT_EQ(st.perSalt.begin()->first, "maint-salt");
    EXPECT_EQ(st.perSalt.begin()->second, rep.cacheStores);

    const std::uint64_t removed = sweep::RunCache::clearDir(dir);
    EXPECT_EQ(removed, rep.cacheStores);
    EXPECT_TRUE(fs::exists(foreign));

    st = sweep::RunCache::scanDir(dir);
    EXPECT_EQ(st.entries, 0u);
    EXPECT_EQ(st.foreign, 1u);

    // A missing directory scans as empty rather than erroring.
    st = sweep::RunCache::scanDir(dir + "-missing");
    EXPECT_EQ(st.entries, 0u);
    EXPECT_EQ(st.bytes, 0u);
}

TEST(RunCacheMaintenance, ClearRacesLiveWriterSafely)
{
    // `melody cache clear` against a directory a sweep is actively
    // writing into: the advisory flock serialises deletion against
    // in-flight tmp-write+rename stores, so renders always come
    // back byte-identical (a cleared entry is only ever a miss,
    // never a torn read) and no store is lost mid-rename.
    const std::string dir = freshDir("cache-race");

    sweep::Options ref;
    ref.cache = false;
    ref.checkInvariants = false;
    const std::string want = renderVictim(ref, Victim::kOk);
    ASSERT_FALSE(want.empty());

    std::atomic<bool> stop{false};
    std::thread clearer([&] {
        while (!stop.load()) {
            sweep::RunCache::clearDir(dir);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    });

    sweep::Options o;
    o.cache = true;
    o.cacheDir = dir;
    o.salt = "race-salt";
    o.checkInvariants = false;
    for (int i = 0; i < 25; ++i) {
        sweep::Sweep::Report rep;
        EXPECT_EQ(renderVictim(o, Victim::kOk, &rep), want)
            << "iteration " << i;
        EXPECT_TRUE(rep.clean()) << "iteration " << i;
    }

    stop.store(true);
    clearer.join();
    sweep::RunCache::clearDir(dir);
}

// ---------------------------------------------------------------
// Environment plumbing for the standalone figure binaries.
// ---------------------------------------------------------------

TEST(SweepEnv, IsolateAndInvariantSwitchesParse)
{
    setenv("MELODY_SWEEP_ISOLATE", "1", 1);
    setenv("MELODY_SWEEP_CHECK_INVARIANTS", "1", 1);
    sweep::Options on = sweep::optionsFromEnv();
    EXPECT_TRUE(on.isolate);
    EXPECT_TRUE(on.checkInvariants);

    setenv("MELODY_SWEEP_ISOLATE", "0", 1);
    setenv("MELODY_SWEEP_CHECK_INVARIANTS", "off", 1);
    sweep::Options off = sweep::optionsFromEnv();
    EXPECT_FALSE(off.isolate);
    EXPECT_FALSE(off.checkInvariants);

    unsetenv("MELODY_SWEEP_ISOLATE");
    unsetenv("MELODY_SWEEP_CHECK_INVARIANTS");

    setenv("MELODY_SWEEP_JOBS", "4294967295", 1);
    EXPECT_EQ(sweep::optionsFromEnv().jobs, 4294967295u);
    // A sign, a value past UINT_MAX and an empty string are
    // configuration errors, never a wrapped or truncated count.
    for (const char *bad : {"-1", "4294967296", ""}) {
        setenv("MELODY_SWEEP_JOBS", bad, 1);
        EXPECT_THROW(sweep::optionsFromEnv(), ConfigError)
            << "MELODY_SWEEP_JOBS='" << bad << "'";
    }
    unsetenv("MELODY_SWEEP_JOBS");
}
