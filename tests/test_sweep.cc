/**
 * @file
 * Sweep-engine contract tests: byte-identical output for any job
 * count, cache round trips that reproduce cache-miss bytes exactly
 * (including corrupted-entry fallback), salt invalidation,
 * figure-level determinism for a few real benches, reruns that take
 * every point a crashed, failed or interrupted run finished from the
 * run cache, store timing at every job count, the ^C handler,
 * runtime invariant plumbing, the cache stats/clear maintenance
 * entry points, and every run-cache failure branch reached through
 * a filesystem state that really fails.
 */

#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/figures.hh"
#include "sim/interrupt.hh"
#include "sim/invariants.hh"
#include "sim/logging.hh"
#include "sim/run_cache.hh"
#include "sim/sweep.hh"
#include "stats/rows.hh"

using namespace cxlsim;

namespace {

/** Die by SIGSEGV as a crashing point would, without the null
 *  store that UBSan reports first (and exits 1 on). */
void
segfault()
{
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
}

/** A synthetic sweep exercising every item kind: text, 1-slot
 *  points, a multi-slot point, and a gather over hidden slots. */
void
buildSynthetic(sweep::Sweep &s)
{
    s.scope("synthetic");
    s.text("header\n");
    std::vector<sweep::Sweep::SlotRef> hidden;
    for (int i = 0; i < 20; ++i) {
        const std::size_t id = s.point(
            "row|" + std::to_string(i), 2,
            [i](sweep::Emit *slots) {
                slots[0].printf("row %d value %d\n", i, i * i);
                slots[1].hexDoubles({i * 0.125, i * 1.5});
            });
        s.place(id, 0);
        hidden.push_back({id, 1});
    }
    s.textf("mid %s\n", "section");
    s.gather(hidden, [](const std::vector<std::string> &in,
                        sweep::Emit &out) {
        double sum = 0;
        for (const auto &slot : in)
            sum += sweep::parseHexDoubles(slot).at(1);
        out.printf("sum %.6f over %zu rows\n", sum, in.size());
    });
}

std::string
renderSynthetic(const sweep::Options &opts,
                sweep::Sweep::Report *rep = nullptr)
{
    sweep::Sweep s("test-sweep", opts);
    buildSynthetic(s);
    return s.renderToString(rep);
}

sweep::Options
noCache()
{
    sweep::Options o;
    o.cache = false;
    return o;
}

sweep::Options
cacheAt(const std::string &dir)
{
    sweep::Options o;
    o.cache = true;
    o.cacheDir = dir;
    return o;
}

std::string
freshDir(const char *leaf)
{
    namespace fs = std::filesystem;
    const fs::path d = fs::path(testing::TempDir()) / leaf;
    fs::remove_all(d);
    return d.string();
}

}  // namespace

TEST(Sweep, ParallelOutputMatchesSerialByteForByte)
{
    sweep::Options serial = noCache();
    serial.jobs = 1;
    sweep::Options par = noCache();
    par.jobs = 8;
    const std::string a = renderSynthetic(serial);
    const std::string b = renderSynthetic(par);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Sweep, WarmCacheReproducesColdBytesExactly)
{
    const std::string dir = freshDir("sweep-warm");
    sweep::Sweep::Report cold, warm;
    const std::string a = renderSynthetic(cacheAt(dir), &cold);
    const std::string b = renderSynthetic(cacheAt(dir), &warm);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheStores, cold.points);
    EXPECT_EQ(warm.cacheHits, warm.points);
    EXPECT_EQ(warm.cacheStores, 0u);
    EXPECT_EQ(warm.corruptEntries, 0u);
}

TEST(Sweep, CorruptedEntriesFallBackToRecompute)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("sweep-corrupt");
    const std::string a = renderSynthetic(cacheAt(dir));

    // Truncate one entry inside its header, scribble over another
    // and cut the last payload byte off a third (a short read): all
    // must be detected, recomputed, and re-stored with identical
    // output. Only .rcache files are entries — the dir also holds
    // the cross-process lock file.
    std::vector<fs::path> entries;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".rcache")
            entries.push_back(e.path());
    ASSERT_GE(entries.size(), 3u);
    std::sort(entries.begin(), entries.end());
    fs::resize_file(entries[0], 4);
    {
        std::ofstream f(entries[1], std::ios::binary);
        f << "melody-runcache 1\nnot a real entry\n";
    }
    fs::resize_file(entries[2], fs::file_size(entries[2]) - 1);

    sweep::Sweep::Report rep;
    const std::string b = renderSynthetic(cacheAt(dir), &rep);
    EXPECT_EQ(a, b);
    EXPECT_EQ(rep.corruptEntries, 3u);
    EXPECT_EQ(rep.cacheHits, rep.points - 3);
    EXPECT_EQ(rep.cacheStores, 3u);

    // The re-stored entries are valid again.
    sweep::Sweep::Report again;
    renderSynthetic(cacheAt(dir), &again);
    EXPECT_EQ(again.cacheHits, again.points);
    EXPECT_EQ(again.corruptEntries, 0u);
}

TEST(Sweep, SaltChangeInvalidatesEveryEntry)
{
    const std::string dir = freshDir("sweep-salt");
    renderSynthetic(cacheAt(dir));

    sweep::Options bumped = cacheAt(dir);
    bumped.salt = "melody-sweep-v999";
    sweep::Sweep::Report rep;
    const std::string b = renderSynthetic(bumped, &rep);
    EXPECT_EQ(rep.cacheHits, 0u);
    EXPECT_EQ(rep.cacheStores, rep.points);
    EXPECT_EQ(b, renderSynthetic(noCache()));
}

TEST(Sweep, ExceptionInPointPropagates)
{
    sweep::Options o = noCache();
    o.jobs = 4;
    sweep::Sweep s("test-throw", o);
    s.point("ok", [](sweep::Emit &out) { out.printf("fine\n"); });
    s.point("boom", [](sweep::Emit &) {
        throw ConfigError("injected failure");
    });
    EXPECT_THROW(s.renderToString(), ConfigError);
}

/** Real figures must render identical bytes at any job count —
 *  the property the whole bench migration rests on. Spot-check
 *  the three cheapest figures end to end. */
class FigureDeterminism
    : public testing::TestWithParam<const char *>
{};

TEST_P(FigureDeterminism, SerialAndParallelBytesMatch)
{
    const figs::Figure *fig = figs::find(GetParam());
    ASSERT_NE(fig, nullptr);

    auto render = [&](unsigned jobs) {
        sweep::Options o = noCache();
        o.jobs = jobs;
        sweep::Sweep s(fig->binary, o);
        s.scope(fig->binary);
        fig->build(s);
        return s.renderToString();
    };
    const std::string serial = render(1);
    const std::string par = render(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, par);
}

INSTANTIATE_TEST_SUITE_P(CheapFigures, FigureDeterminism,
                         testing::Values("fig01", "fig16",
                                         "usecase"));

/** A cold cached render stores every point of a real figure as it
 *  finishes, and the warm rerun serves all of them; both match the
 *  uncached bytes. */
class FigureCacheDeterminism
    : public testing::TestWithParam<const char *>
{};

TEST_P(FigureCacheDeterminism, ColdStoreAndWarmHitMatchUncached)
{
    const figs::Figure *fig = figs::find(GetParam());
    ASSERT_NE(fig, nullptr);

    auto render = [&](const sweep::Options &o,
                      sweep::Sweep::Report *rep) {
        sweep::Sweep s(fig->binary, o);
        s.scope(fig->binary);
        fig->build(s);
        return s.renderToString(rep);
    };
    const std::string dir =
        freshDir((std::string("fig-cache-") + GetParam()).c_str());
    sweep::Options cached = cacheAt(dir);
    cached.jobs = 4;
    sweep::Sweep::Report cold, warm, none;
    const std::string a = render(cached, &cold);
    const std::string b = render(cached, &warm);
    const std::string ref = render(noCache(), &none);
    EXPECT_FALSE(ref.empty());
    EXPECT_EQ(a, ref);
    EXPECT_EQ(b, ref);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheStores, cold.points);
    EXPECT_EQ(sweep::RunCache::scanDir(dir).entries, cold.points);
    EXPECT_EQ(warm.cacheHits, warm.points);
    EXPECT_EQ(warm.cacheStores, 0u);
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureCacheDeterminism,
                         testing::Values("fig01", "fig16",
                                         "usecase"));

/** Every job count renders the synthetic sweep's serial bytes.
 *  0 means one job per core. */
class SweepJobs : public testing::TestWithParam<unsigned>
{};

TEST_P(SweepJobs, BytesMatchSerial)
{
    sweep::Options serial = noCache();
    serial.jobs = 1;
    const std::string ref = renderSynthetic(serial);
    ASSERT_FALSE(ref.empty());

    sweep::Options par = noCache();
    par.jobs = GetParam();
    sweep::Sweep::Report rep;
    EXPECT_EQ(ref, renderSynthetic(par, &rep));
    EXPECT_TRUE(rep.clean());
}

INSTANTIATE_TEST_SUITE_P(JobCounts, SweepJobs,
                         testing::Values(0u, 2u, 3u, 16u));

// ---------------------------------------------------------------
// --progress: a stderr-only status line. The sweep's bytes and
// stdout must be the same with it on.
// ---------------------------------------------------------------

TEST(SweepProgress, CountsEveryPointOnStderrOnly)
{
    sweep::Options quiet = noCache();
    quiet.jobs = 4;
    const std::string ref = renderSynthetic(quiet);

    sweep::Options loud = quiet;
    loud.progress = true;
    sweep::Sweep::Report rep;
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const std::string out = renderSynthetic(loud, &rep);
    const std::string err = testing::internal::GetCapturedStderr();
    const std::string stdoutText =
        testing::internal::GetCapturedStdout();

    EXPECT_EQ(out, ref);
    EXPECT_EQ(stdoutText, "");
    const std::string total = std::to_string(rep.points);
    EXPECT_EQ(err.rfind("\r[melody] sweep: 0/" + total +
                            " points, ETA --",
                        0),
              0u)
        << err;
    EXPECT_NE(err.find(total + "/" + total + " points, ETA --"),
              std::string::npos)
        << err;
    ASSERT_FALSE(err.empty());
    EXPECT_EQ(err.back(), '\n');
}

TEST(SweepProgress, CachedPointsStartDone)
{
    const std::string dir = freshDir("sweep-progress-warm");
    renderSynthetic(cacheAt(dir));

    sweep::Options warm = cacheAt(dir);
    warm.progress = true;
    sweep::Sweep::Report rep;
    testing::internal::CaptureStderr();
    renderSynthetic(warm, &rep);
    const std::string err = testing::internal::GetCapturedStderr();

    ASSERT_EQ(rep.cacheHits, rep.points);
    const std::string total = std::to_string(rep.points);
    EXPECT_EQ(err.rfind("\r[melody] sweep: " + total + "/" + total +
                            " points, ETA --",
                        0),
              0u)
        << err;
}

TEST(SweepProgress, EtaAppearsOncePointsFinish)
{
    // Four 300 ms points on one job: the meter repaints at most
    // every 500 ms, so a mid-sweep line is drawn after the second
    // point at the latest, with an ETA measured from finished
    // points. The last line has nothing left to estimate.
    sweep::Options o = noCache();
    o.jobs = 1;
    o.progress = true;
    sweep::Sweep s("test-progress", o);
    for (int i = 0; i < 4; ++i)
        s.point("slow|" + std::to_string(i), [i](sweep::Emit &e) {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            e.printf("slow %d\n", i);
        });
    testing::internal::CaptureStderr();
    const std::string out = s.renderToString();
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(out, "slow 0\nslow 1\nslow 2\nslow 3\n");
    EXPECT_TRUE(std::regex_search(
        err, std::regex("[123]/4 points, ETA [0-9]+s")))
        << err;
    EXPECT_NE(err.find("4/4 points, ETA --"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------
// Resuming is rerunning: each point is stored in the run cache the
// moment it finishes, so rerunning the same sweep after a throw, a
// crash or a ^C recomputes only what that run did not finish.
// ---------------------------------------------------------------

namespace {

/** What the victim point does when it runs. */
enum class Victim { kOk, kSegv, kThrow };

/**
 * Synthetic sweep with two healthy points on either side of one
 * configurable victim, plus a gather over the victim's slot. If
 * @p trapSurvivors, the healthy points segfault instead — the
 * rerun tests use this to prove cached points are never
 * re-executed.
 */
void
buildVictimSweep(sweep::Sweep &s, Victim mode,
                 bool trapSurvivors = false)
{
    const auto survivor = [trapSurvivors](const char *tag, int k,
                                          int v) {
        return [tag, k, v, trapSurvivors](sweep::Emit &e) {
            if (trapSurvivors)
                segfault();  // must never run on a rerun
            e.printf("%s %d = %d\n", tag, k, v);
        };
    };
    s.scope("victim-sweep");
    s.text("header\n");
    for (int k = 0; k < 2; ++k)
        s.point("pre k=" + std::to_string(k), survivor("pre", k, k * k));
    const std::size_t victim =
        s.point("victim", 1, [mode](sweep::Emit *slots) {
            if (mode == Victim::kSegv) {
                segfault();
            } else if (mode == Victim::kThrow) {
                throw std::runtime_error("victim boom");
            }
            slots[0].text("victim ok\n");
        });
    s.place(victim);
    for (int k = 0; k < 2; ++k)
        s.point("post k=" + std::to_string(k),
                survivor("post", k, k * k * k));
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
             bool trapSurvivors = false)
{
    sweep::Sweep s("test-victim", opts);
    buildVictimSweep(s, mode, trapSurvivors);
    return s.renderToString(rep);
}

/** Cached run options over @p dir, invariant checker off. */
sweep::Options
rerunOpts(const std::string &dir, unsigned jobs)
{
    sweep::Options o = cacheAt(dir);
    o.jobs = jobs;
    o.checkInvariants = false;
    return o;
}

/** The fault-free victim sweep, rendered without a cache. */
std::string
cleanVictimBytes()
{
    sweep::Options o = noCache();
    o.checkInvariants = false;
    return renderVictim(o, Victim::kOk);
}

}  // namespace

TEST(SweepRerun, RerunServesSurvivorsFromCache)
{
    const std::string dir = freshDir("rerun-survivors");
    const sweep::Options o = rerunOpts(dir, 4);

    // Run 1: the victim throws; the four survivors are stored.
    EXPECT_THROW(renderVictim(o, Victim::kThrow), std::runtime_error);
    EXPECT_EQ(sweep::RunCache::scanDir(dir).entries, 4u);

    // Run 2: the same options with every survivor booby-trapped to
    // segfault if re-executed. A clean report proves the run cache
    // (not recomputation) supplied their bytes.
    sweep::Sweep::Report rep;
    const std::string out = renderVictim(o, Victim::kOk, &rep,
                                         /*trapSurvivors=*/true);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cacheHits, 4u);
    EXPECT_EQ(rep.cacheStores, 1u);
    EXPECT_EQ(out, cleanVictimBytes());
}

TEST(SweepRerun, ResumeRefusesSaltMismatch)
{
    sweep::Options first = rerunOpts(freshDir("rerun-salt"), 4);
    first.salt = "salt-one";
    EXPECT_THROW(renderVictim(first, Victim::kThrow),
                 std::runtime_error);
    EXPECT_EQ(sweep::RunCache::scanDir(first.cacheDir).entries, 4u);

    // The run cache keys every point by the salt, so a rerun under
    // another salt serves none of the first run's points.
    sweep::Options second = first;
    second.salt = "salt-two";
    sweep::Sweep::Report rep;
    const std::string out = renderVictim(second, Victim::kOk, &rep);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cacheHits, 0u);
    EXPECT_EQ(rep.cacheStores, 5u);
    EXPECT_EQ(out, cleanVictimBytes());
}

TEST(SweepRerun, NoCacheRerunRecomputesEveryPoint)
{
    // Without a run cache nothing survives a failed run: the rerun
    // recomputes all five points and only time is lost.
    sweep::Options o = noCache();
    o.jobs = 4;
    o.checkInvariants = false;
    EXPECT_THROW(renderVictim(o, Victim::kThrow), std::runtime_error);

    sweep::Sweep::Report rep;
    const std::string out = renderVictim(o, Victim::kOk, &rep);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cacheHits, 0u);
    EXPECT_EQ(rep.cacheStores, 0u);
    EXPECT_EQ(out, cleanVictimBytes());
}

TEST(SweepRerun, SegfaultLeavesFinishedPointsStored)
{
    // At --jobs 1 points run in declaration order, so the two `pre`
    // points finish (and are stored) before the victim kills the
    // whole process; nothing after it runs.
    // Re-execute the binary for the child rather than fork this
    // process, which then need not be free of live threads.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string dir = freshDir("rerun-segv");
    const sweep::Options o = rerunOpts(dir, 1);
    EXPECT_EXIT(renderVictim(o, Victim::kSegv),
                testing::KilledBySignal(SIGSEGV), "");

    EXPECT_EQ(sweep::RunCache::scanDir(dir).entries, 2u);
    sweep::RunCache cache(dir, sweep::kSweepSalt);
    std::vector<std::string> slots;
    for (const char *key : {"victim-sweep|pre k=0",
                            "victim-sweep|pre k=1"})
        EXPECT_TRUE(cache.lookup(key, 1, &slots)) << key;

    // The rerun computes only the victim and the `post` points.
    sweep::Sweep::Report rep;
    const std::string out = renderVictim(o, Victim::kOk, &rep);
    EXPECT_EQ(rep.cacheHits, 2u);
    EXPECT_EQ(rep.cacheStores, 3u);
    EXPECT_EQ(out, cleanVictimBytes());
}

TEST(SweepRerun, InterruptedRunRerunsOnlyWhatWasCut)
{
    // Four points; `before` runs ahead of each point's output,
    // which depends only on the key.
    const auto build = [](sweep::Sweep &s,
                          const std::function<void(int)> &before) {
        s.scope("interrupt-rerun");
        for (int k = 0; k < 4; ++k)
            s.point("p" + std::to_string(k),
                    [k, before](sweep::Emit &e) {
                        before(k);
                        e.printf("point %d done\n", k);
                    });
    };
    const sweep::Options o = rerunOpts(freshDir("interrupt-rerun"), 1);

    // Run 1: point 0 gets a ^C and still finishes; the three points
    // after it never start, and nothing renders.
    sim::installInterruptHandlers();
    sweep::Sweep::Report rep1;
    std::string out1;
    {
        sweep::Sweep s("test-interrupt-rerun", o);
        build(s, [](int k) {
            if (k == 0)
                std::raise(SIGINT);
        });
        out1 = s.renderToString(&rep1);
    }
    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
    EXPECT_FALSE(sim::interruptRequested());
    EXPECT_TRUE(rep1.interrupted);
    EXPECT_FALSE(rep1.clean());
    EXPECT_EQ(rep1.cacheStores, 1u);
    EXPECT_EQ(out1, "");

    // Run 2: point 0 segfaults if re-executed, so a clean report
    // proves only the cut points were computed.
    sweep::Sweep::Report rep2;
    std::string out2;
    {
        sweep::Sweep s("test-interrupt-rerun", o);
        build(s, [](int k) {
            if (k == 0)
                segfault();
        });
        out2 = s.renderToString(&rep2);
    }
    EXPECT_TRUE(rep2.clean());
    EXPECT_EQ(rep2.cacheHits, 1u);
    EXPECT_EQ(rep2.cacheStores, 3u);

    sweep::Sweep ref("test-interrupt-rerun", noCache());
    build(ref, [](int) {});
    EXPECT_EQ(out2, ref.renderToString());
}

// ---------------------------------------------------------------
// Store timing under every job count: stores serialize on one
// mutex, so each finished point lands in the run cache exactly
// once however many workers finish side by side.
// ---------------------------------------------------------------

namespace {

class SweepStoreTiming : public testing::TestWithParam<unsigned>
{
  protected:
    /** Fresh cache dir named after the test and its job count. */
    std::string
    dir(const char *leaf) const
    {
        return freshDir((std::string(leaf) + "-j" +
                         std::to_string(GetParam()))
                            .c_str());
    }
};

/** Number of leftover temp files under @p dir. */
std::size_t
tmpFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        if (e.path().extension() == ".tmp")
            ++n;
    return n;
}

}  // namespace

TEST_P(SweepStoreTiming, EveryPointStoredExactlyOnce)
{
    const std::string d = dir("store-once");
    sweep::Options o = cacheAt(d);
    o.jobs = GetParam();
    sweep::Sweep::Report cold, warm;
    const std::string a = renderSynthetic(o, &cold);
    EXPECT_EQ(cold.cacheStores, cold.points);
    EXPECT_EQ(sweep::RunCache::scanDir(d).entries, cold.points);
    EXPECT_EQ(tmpFiles(d), 0u);

    const std::string b = renderSynthetic(o, &warm);
    EXPECT_EQ(warm.cacheHits, warm.points);
    EXPECT_EQ(warm.cacheStores, 0u);
    EXPECT_EQ(warm.corruptEntries, 0u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, renderSynthetic(noCache()));
}

TEST_P(SweepStoreTiming, ThrowingPointStoresEverySurvivor)
{
    const std::string d = dir("store-throw");
    try {
        renderVictim(rerunOpts(d, GetParam()), Victim::kThrow);
        ADD_FAILURE() << "the victim's exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "victim boom");
    }

    // The survivors finish whatever the job count, because a throw
    // only ends its own point; the victim stores nothing.
    EXPECT_EQ(sweep::RunCache::scanDir(d).entries, 4u);
    EXPECT_EQ(tmpFiles(d), 0u);
    sweep::RunCache cache(d, sweep::kSweepSalt);
    std::vector<std::string> slots;
    for (const char *key :
         {"victim-sweep|pre k=0", "victim-sweep|pre k=1",
          "victim-sweep|post k=0", "victim-sweep|post k=1"})
        EXPECT_TRUE(cache.lookup(key, 1, &slots)) << key;
    EXPECT_FALSE(cache.lookup("victim-sweep|victim", 1, &slots));
}

TEST_P(SweepStoreTiming, LowestIndexErrorWinsAndFailuresStoreNothing)
{
    const std::string d = dir("store-two-throws");
    auto build = [](sweep::Sweep &s) {
        s.scope("two-throws");
        for (int k = 0; k < 6; ++k)
            s.point("p" + std::to_string(k), [k](sweep::Emit &e) {
                if (k == 1 || k == 4)
                    throw std::runtime_error("boom " +
                                             std::to_string(k));
                e.printf("point %d\n", k);
            });
    };
    sweep::Sweep s("test-two-throws", rerunOpts(d, GetParam()));
    build(s);
    try {
        s.renderToString();
        ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 1");
    }
    EXPECT_EQ(sweep::RunCache::scanDir(d).entries, 4u);
}

TEST_P(SweepStoreTiming, InterruptStopsClaimingAndRerunFinishes)
{
    // Point 0 raises SIGINT; every other point waits for that
    // before it finishes. So at most one point per worker is in
    // flight when the flag goes up, and every point claimed after
    // it is skipped.
    constexpr std::size_t kPoints = 16;
    const unsigned jobs = GetParam();
    ASSERT_LT(jobs, kPoints);
    auto raised = std::make_shared<std::atomic<bool>>(false);
    const auto build = [&](sweep::Sweep &s, bool signal) {
        s.scope("interrupt-timing");
        for (std::size_t k = 0; k < kPoints; ++k)
            s.point("p" + std::to_string(k),
                    [k, signal, raised](sweep::Emit &e) {
                        if (signal && k == 0) {
                            std::raise(SIGINT);
                            raised->store(true);
                        }
                        while (signal && !raised->load())
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(200));
                        e.printf("point %zu\n", k);
                    });
    };
    const std::string d = dir("interrupt-timing");
    const sweep::Options o = rerunOpts(d, jobs);

    sim::installInterruptHandlers();
    sweep::Sweep::Report rep1;
    std::string out1;
    {
        sweep::Sweep s("test-interrupt-timing", o);
        build(s, true);
        out1 = s.renderToString(&rep1);
    }
    sim::resetInterruptHandlers();
    EXPECT_TRUE(rep1.interrupted);
    EXPECT_EQ(out1, "");
    EXPECT_GE(rep1.cacheStores, 1u);
    EXPECT_LE(rep1.cacheStores, jobs);
    EXPECT_EQ(sweep::RunCache::scanDir(d).entries, rep1.cacheStores);

    sweep::Sweep::Report rep2;
    std::string out2;
    {
        sweep::Sweep s("test-interrupt-timing", o);
        build(s, false);
        out2 = s.renderToString(&rep2);
    }
    EXPECT_TRUE(rep2.clean());
    EXPECT_EQ(rep2.cacheHits, rep1.cacheStores);
    EXPECT_EQ(rep2.cacheStores, kPoints - rep1.cacheStores);

    sweep::Sweep ref("test-interrupt-timing", noCache());
    build(ref, false);
    EXPECT_EQ(out2, ref.renderToString());
}

INSTANTIATE_TEST_SUITE_P(
    PoolSizes, SweepStoreTiming, testing::Values(1u, 2u, 4u, 8u),
    [](const testing::TestParamInfo<unsigned> &info) {
        return "jobs" + std::to_string(info.param);
    });

// ---------------------------------------------------------------
// Reports and rendering around an interrupt.
// ---------------------------------------------------------------

TEST(SweepReport, CleanIgnoresADegradedCacheButNotInterruptsOrViolations)
{
    sweep::Sweep::Report r;
    EXPECT_TRUE(r.clean());
    r.cacheDegraded = true;  // outputs are still complete
    EXPECT_TRUE(r.clean());

    sweep::Sweep::Report cut;
    cut.interrupted = true;
    EXPECT_FALSE(cut.clean());

    sweep::Sweep::Report bad;
    bad.invariantDiags.push_back({"k", "inv", "where", "x=1"});
    EXPECT_FALSE(bad.clean());
}

TEST(SweepRun, InterruptedRunWritesNothingToItsStream)
{
    const auto build = [](sweep::Sweep &s, bool signal) {
        s.scope("interrupt-stream");
        s.text("header\n");
        for (int k = 0; k < 3; ++k)
            s.point("p" + std::to_string(k),
                    [k, signal](sweep::Emit &e) {
                        if (signal && k == 0)
                            std::raise(SIGINT);
                        e.printf("point %d\n", k);
                    });
    };
    sweep::Options o = noCache();
    o.jobs = 1;

    std::FILE *cutFile = std::tmpfile();
    ASSERT_NE(cutFile, nullptr);
    sim::installInterruptHandlers();
    sweep::Sweep::Report rep;
    {
        sweep::Sweep s("test-interrupt-stream", o);
        build(s, true);
        rep = s.run(cutFile);
    }
    sim::resetInterruptHandlers();
    EXPECT_TRUE(rep.interrupted);
    EXPECT_EQ(std::ftell(cutFile), 0L);  // not even the header
    std::fclose(cutFile);

    // The same sweep uninterrupted streams exactly its string
    // render.
    std::FILE *full = std::tmpfile();
    ASSERT_NE(full, nullptr);
    {
        sweep::Sweep s("test-interrupt-stream", o);
        build(s, false);
        rep = s.run(full);
    }
    EXPECT_FALSE(rep.interrupted);
    std::string got(static_cast<std::size_t>(std::ftell(full)), '\0');
    std::rewind(full);
    ASSERT_EQ(std::fread(got.data(), 1, got.size(), full), got.size());
    std::fclose(full);
    sweep::Sweep ref("test-interrupt-stream", o);
    build(ref, false);
    EXPECT_EQ(got, ref.renderToString());
    EXPECT_EQ(got, "header\npoint 0\npoint 1\npoint 2\n");
}

TEST(SweepRun, InterruptBeforeRunComputesNothing)
{
    // The flag is already up when the sweep starts: every claimed
    // point returns without running (each would segfault), nothing
    // is stored and nothing renders.
    const std::string d = freshDir("interrupt-before-run");
    sim::installInterruptHandlers();
    std::raise(SIGINT);
    ASSERT_TRUE(sim::interruptRequested());
    sweep::Sweep::Report rep;
    std::string out;
    {
        sweep::Sweep s("test-interrupt-before", rerunOpts(d, 4));
        s.scope("interrupt-before");
        for (int k = 0; k < 8; ++k)
            s.point("p" + std::to_string(k),
                    [](sweep::Emit &) { segfault(); });
        out = s.renderToString(&rep);
    }
    sim::resetInterruptHandlers();
    EXPECT_TRUE(rep.interrupted);
    EXPECT_EQ(rep.points, 8u);
    EXPECT_EQ(rep.cacheStores, 0u);
    EXPECT_EQ(out, "");
    EXPECT_EQ(sweep::RunCache::scanDir(d).entries, 0u);
}

// ---------------------------------------------------------------
// The interrupt handler itself: one flag, SA_RESTART, and one shot
// per signal (SA_RESETHAND).
// ---------------------------------------------------------------

TEST(InterruptHandlers, SigintSetsTheFlagAndResetClearsIt)
{
    sim::installInterruptHandlers();
    EXPECT_FALSE(sim::interruptRequested());
    std::raise(SIGINT);
    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
    EXPECT_FALSE(sim::interruptRequested());
}

TEST(InterruptHandlers, SigtermSetsTheFlagToo)
{
    sim::installInterruptHandlers();
    std::raise(SIGTERM);
    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
    EXPECT_FALSE(sim::interruptRequested());
}

TEST(InterruptHandlers, InstallIsIdempotent)
{
    sim::installInterruptHandlers();
    sim::installInterruptHandlers();
    EXPECT_FALSE(sim::interruptRequested());
    std::raise(SIGINT);  // one handler, one flag; the process lives
    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
}

TEST(InterruptHandlers, ReinstallAfterResetArmsAgain)
{
    sim::installInterruptHandlers();
    std::raise(SIGINT);
    sim::resetInterruptHandlers();
    ASSERT_FALSE(sim::interruptRequested());

    // The first SIGINT disarmed its handler; installing again
    // re-arms it for the next run.
    sim::installInterruptHandlers();
    std::raise(SIGINT);
    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
}

TEST(InterruptHandlers, SecondSigintTakesTheDefaultAction)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            sim::installInterruptHandlers();
            std::raise(SIGINT);
            if (sim::interruptRequested())
                std::fprintf(stderr, "first SIGINT caught\n");
            std::raise(SIGINT);
            std::_Exit(0);
        },
        testing::KilledBySignal(SIGINT), "first SIGINT caught");
}

TEST(InterruptHandlers, SecondSigtermTakesTheDefaultAction)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            sim::installInterruptHandlers();
            std::raise(SIGTERM);
            if (sim::interruptRequested())
                std::fprintf(stderr, "first SIGTERM caught\n");
            std::raise(SIGTERM);
            std::_Exit(0);
        },
        testing::KilledBySignal(SIGTERM), "first SIGTERM caught");
}

TEST(InterruptHandlers, ResetRestoresTheDefaultAction)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            sim::installInterruptHandlers();
            sim::resetInterruptHandlers();
            std::fprintf(stderr, "handler removed\n");
            std::raise(SIGINT);
            std::_Exit(0);
        },
        testing::KilledBySignal(SIGINT), "handler removed");
}

TEST(InterruptHandlers, BlockedReadRestartsInsteadOfFailingWithEintr)
{
    // SA_RESTART: a read(2) blocked on an empty pipe when the
    // SIGINT lands resumes and returns the byte written after it,
    // instead of failing with EINTR.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    sim::installInterruptHandlers();
    const pthread_t reader = ::pthread_self();
    std::thread poker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ::pthread_kill(reader, SIGINT);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const char c = 'x';
        EXPECT_EQ(::write(fds[1], &c, 1), 1);
    });
    char got = 0;
    const ssize_t n = ::read(fds[0], &got, 1);
    const int err = errno;
    poker.join();
    EXPECT_EQ(n, 1) << std::strerror(err);
    EXPECT_EQ(got, 'x');
    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
    ::close(fds[0]);
    ::close(fds[1]);
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
    sweep::Options o = noCache();
    o.checkInvariants = true;
    sweep::Sweep::Report rep;
    const std::string out = renderViolating(o, &rep);
    EXPECT_NE(out.find("bad ran\n"), std::string::npos);
    EXPECT_FALSE(rep.clean());
    ASSERT_EQ(rep.invariantDiags.size(), 1u);
    EXPECT_EQ(rep.invariantDiags[0].invariant, "test/synthetic");
    EXPECT_EQ(rep.invariantDiags[0].where, "renderViolating");
    EXPECT_EQ(rep.invariantDiags[0].pointKey, "iv|bad");
    EXPECT_EQ(rep.invariantDiags[0].values, "x=1");
}

TEST(Invariants, DisabledCheckerRecordsNothing)
{
    sweep::Options o = noCache();
    o.checkInvariants = false;
    sweep::Sweep::Report rep;
    renderViolating(o, &rep);
    EXPECT_TRUE(rep.clean());
}

TEST(Invariants, RealFiguresRunCleanWithCheckerOn)
{
    const figs::Figure *fig = figs::find("fig01");
    ASSERT_NE(fig, nullptr);
    sweep::Options o = noCache();
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

    sweep::Options o = rerunOpts(dir, 0);
    o.salt = "maint-salt";
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
    const std::string want = cleanVictimBytes();
    ASSERT_FALSE(want.empty());

    std::atomic<bool> stop{false};
    std::thread clearer([&] {
        while (!stop.load()) {
            sweep::RunCache::clearDir(dir);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    });

    sweep::Options o = rerunOpts(dir, 0);
    o.salt = "race-salt";
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
// Run-cache failure paths (DESIGN.md §15), each reached through a
// filesystem state that really fails, also as root:
//
//   fopen   the cache dir sits under a regular file   (ENOTDIR)
//   fwrite  this process's temp is a symlink to        (ENOSPC)
//   fclose    /dev/full: a 64 KiB payload fails in fwrite, a
//             few bytes fail when fclose flushes them
//   rename  the entry path is a directory              (EISDIR)
//   read    the entry path is a directory, a FIFO or a symlink
//             to /dev/zero: not a regular file  (clean miss, no read)
//   short   the entry file is truncated   (checksum: corrupt miss)
//   lock    `.melody-cache.lock` is a directory  (store unlocked)
//
// A failure may cost a store or a hit, but never changes a byte,
// never leaves a `.tmp` and never leaves a torn entry that verifies.
// ---------------------------------------------------------------

namespace {

namespace fs = std::filesystem;

/** The file RunCache(dir, salt) keeps @p key in (as pathFor). */
fs::path
entryPath(const fs::path &dir, const std::string &salt,
          const std::string &key)
{
    const std::uint64_t h =
        stats::fnv1a64(key, stats::fnv1a64(salt));
    return dir / (stats::hex64(h) + ".rcache");
}

/** The temp this process writes @p entry through. */
fs::path
tmpPath(const fs::path &entry)
{
    return entry.string() + "." + std::to_string(::getpid()) +
           ".tmp";
}

/** fopen fails: a regular file where @p dir's parent should be. */
void
blockDir(const fs::path &dir)
{
    fs::create_directories(dir.parent_path().parent_path());
    std::ofstream(dir.parent_path()) << "not a directory\n";
}

/** fwrite/fclose fail: the temp for @p entry is a symlink to
 *  /dev/full. The failed store unlinks it, lifting the fault. */
void
tempToDevFull(const fs::path &entry)
{
    fs::create_directories(entry.parent_path());
    fs::create_symlink("/dev/full", tmpPath(entry));
}

/** rename fails and lookups miss: @p entry is a directory. */
void
entryIsDir(const fs::path &entry)
{
    fs::remove(entry);
    fs::create_directories(entry);
}

/** Undo blockDir and entryIsDir under @p dir. */
void
liftFaults(const fs::path &dir)
{
    if (fs::is_regular_file(dir.parent_path()))
        fs::remove(dir.parent_path());
    std::vector<fs::path> dirs;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        if (e.is_directory())
            dirs.push_back(e.path());
    for (const auto &d : dirs)
        fs::remove_all(d);
}

/** Scratch root per test; the cache dir sits two levels down, so a
 *  case can put a regular file where its parent should be. */
class RunCacheFailure : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Parameterized test names carry a '/'; keep one flat dir.
        std::string name = testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
        std::replace(name.begin(), name.end(), '/', '_');
        root_ = freshDir(("rcfail-" + name).c_str());
        fs::create_directories(root_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(root_, ec);
    }

    fs::path
    dir() const
    {
        return root_ / "parent" / "rc";
    }

    fs::path root_;
};

/**
 * Three points p0..p2 in scope "rcfail", each printing its key and
 * then @p pad filler bytes. With @p runnable >= 0 every other point
 * segfaults if executed, which proves a rerun took it from the run
 * cache.
 */
void
buildFailurePoints(sweep::Sweep *s, std::size_t pad = 0,
                   int runnable = -1)
{
    s->scope("rcfail");
    for (int i = 0; i < 3; ++i) {
        const std::string key = "p" + std::to_string(i);
        s->point(key, [key, pad,
                       trap = runnable >= 0 && i != runnable](
                          sweep::Emit &e) {
            if (trap)
                segfault();
            e.printf("%s-out\n", key.c_str());
            if (pad)
                e.text(std::string(pad, 'x') + "\n");
        });
    }
}

/** What buildFailurePoints renders. */
std::string
failurePointBytes(std::size_t pad = 0)
{
    std::string out;
    for (int i = 0; i < 3; ++i) {
        out += "p" + std::to_string(i) + "-out\n";
        if (pad)
            out += std::string(pad, 'x') + "\n";
    }
    return out;
}

/** The run-cache keys of buildFailurePoints' points. */
std::vector<std::string>
failurePointKeys()
{
    return {"rcfail|p0", "rcfail|p1", "rcfail|p2"};
}

constexpr std::size_t k64KiB = 64 * 1024;

/**
 * Store buildFailurePoints' three points in a cache at @p dir,
 * replace p1's entry with a symlink to @p target, and check a rerun
 * takes p1 as a clean miss, recomputes it with the bytes of an
 * uncached run, and stores an entry in place of the symlink that the
 * next run serves.
 */
void
expectSymlinkedEntryRecomputes(const fs::path &dir, const char *target)
{
    sweep::Options opts = cacheAt(dir.string());
    opts.jobs = 1;
    opts.salt = "rcfail-symlink";
    const auto render = [](const sweep::Options &o,
                           sweep::Sweep::Report *rep) {
        sweep::Sweep s("rcfail-symlink", o);
        buildFailurePoints(&s);
        return s.renderToString(rep);
    };
    sweep::Options uncached = opts;
    uncached.cache = false;
    const std::string want = render(uncached, nullptr);
    {
        sweep::Sweep::Report rep;
        ASSERT_EQ(render(opts, &rep), want);
        ASSERT_EQ(rep.cacheStores, 3u);
    }
    const fs::path entry =
        entryPath(dir, opts.salt, failurePointKeys()[1]);
    fs::remove(entry);
    fs::create_symlink(target, entry);

    sweep::Sweep::Report rep;
    EXPECT_EQ(render(opts, &rep), want);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cacheHits, 2u);
    EXPECT_EQ(rep.cacheStores, 1u);
    EXPECT_EQ(rep.corruptEntries, 0u);
    EXPECT_FALSE(fs::is_symlink(entry));

    sweep::Sweep::Report again;
    EXPECT_EQ(render(opts, &again), want);
    EXPECT_EQ(again.cacheHits, 3u);
    EXPECT_EQ(tmpFiles(dir.string()), 0u);
}

}  // namespace

TEST_F(RunCacheFailure, ReadOnlyAfterPersistentFailure)
{
    const std::vector<std::string> rows = {"row-a\n"};
    sweep::RunCache cache(dir().string(), "salt1");
    cache.store("healthy", rows);  // pre-degradation entry
    ASSERT_EQ(cache.stats().stores, 1u);

    for (int i = 0; i < 4; ++i)
        tempToDevFull(
            entryPath(dir(), "salt1", "k" + std::to_string(i)));
    for (int i = 0; i < 3; ++i)
        cache.store("k" + std::to_string(i), rows);
    EXPECT_EQ(cache.stats().storeFailures, 3u);
    EXPECT_TRUE(cache.degraded());

    // A degraded store touches nothing: k3's symlink stays armed.
    cache.store("k3", rows);
    EXPECT_EQ(cache.stats().storesSuppressed, 1u);
    EXPECT_EQ(cache.stats().storeFailures, 3u);
    const fs::path k3tmp = tmpPath(entryPath(dir(), "salt1", "k3"));
    EXPECT_TRUE(fs::is_symlink(k3tmp));
    fs::remove(k3tmp);
    EXPECT_EQ(tmpFiles(dir().string()), 0u);

    // Read-only pass-through: the surviving entry still serves.
    std::vector<std::string> got;
    EXPECT_TRUE(cache.lookup("healthy", 1, &got));
    EXPECT_EQ(got, rows);
    EXPECT_TRUE(cache.degraded());  // sticky for the run
    EXPECT_EQ(sweep::RunCache::scanDir(dir().string()).entries, 1u);

    // A dir that cannot be created degrades the same way.
    const fs::path blocked = root_ / "blocked" / "rc";
    blockDir(blocked);
    sweep::RunCache none(blocked.string(), "salt1");
    for (int i = 0; i < 4; ++i)
        none.store("k" + std::to_string(i), rows);
    EXPECT_EQ(none.stats().storeFailures, 3u);
    EXPECT_EQ(none.stats().storesSuppressed, 1u);
    EXPECT_TRUE(none.degraded());
    EXPECT_FALSE(none.lookup("k0", 1, &got));
    EXPECT_EQ(none.stats().corrupt, 0u);
}

// ---------------------------------------------------------------
// One failed store per branch: the failure is counted, the temp is
// unlinked and no entry is left, so a later lookup is a clean miss.
// ---------------------------------------------------------------

namespace {

struct StoreFailureBranch
{
    const char *name;
    /** Filler bytes in the stored row (64 KiB fails in fwrite). */
    std::size_t pad;
    void (*arm)(const fs::path &dir, const fs::path &entry);
};

void
PrintTo(const StoreFailureBranch &b, std::ostream *os)
{
    *os << b.name;
}

class RunCacheFailureBranch
    : public RunCacheFailure,
      public testing::WithParamInterface<StoreFailureBranch>
{};

}  // namespace

TEST_P(RunCacheFailureBranch, TmpUnlinkedAndNoEntryLeft)
{
    const StoreFailureBranch &b = GetParam();
    const fs::path entry = entryPath(dir(), "salt1", "key");
    b.arm(dir(), entry);
    const std::vector<std::string> rows = {
        "row\n" + std::string(b.pad, 'x')};
    sweep::RunCache cache(dir().string(), "salt1");
    cache.store("key", rows);
    EXPECT_EQ(cache.stats().storeFailures, 1u);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(cache.degraded());
    EXPECT_EQ(tmpFiles(dir().string()), 0u);
    // The failed store never left an entry: a later lookup is a
    // clean miss.
    EXPECT_FALSE(fs::is_regular_file(entry));
    std::vector<std::string> got;
    sweep::RunCache check(dir().string(), "salt1");
    EXPECT_FALSE(check.lookup("key", 1, &got));
    EXPECT_EQ(check.stats().misses, 1u);
    EXPECT_EQ(check.stats().corrupt, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Branches, RunCacheFailureBranch,
    testing::Values(
        StoreFailureBranch{"fopen", 0,
                           [](const fs::path &d, const fs::path &) {
                               blockDir(d);
                           }},
        StoreFailureBranch{"fwrite", k64KiB,
                           [](const fs::path &, const fs::path &e) {
                               tempToDevFull(e);
                           }},
        StoreFailureBranch{"fclose", 0,
                           [](const fs::path &, const fs::path &e) {
                               tempToDevFull(e);
                           }},
        StoreFailureBranch{"rename", 0,
                           [](const fs::path &, const fs::path &e) {
                               entryIsDir(e);
                           }}),
    [](const testing::TestParamInfo<StoreFailureBranch> &info) {
        return std::string(info.param.name);
    });

// Only consecutive failures degrade the cache: a store that
// succeeds in between resets the count.
TEST_F(RunCacheFailure, SuccessfulStoreResetsTheFailureStreak)
{
    const std::vector<std::string> rows = {"row\n"};
    sweep::RunCache cache(dir().string(), "salt1");
    for (const char *k : {"f0", "f1", "f2", "f3"})
        tempToDevFull(entryPath(dir(), "salt1", k));
    cache.store("f0", rows);
    cache.store("f1", rows);
    cache.store("ok", rows);
    cache.store("f2", rows);
    cache.store("f3", rows);
    EXPECT_EQ(cache.stats().storeFailures, 4u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_FALSE(cache.degraded());

    // A third failure in a row does trip it.
    tempToDevFull(entryPath(dir(), "salt1", "f4"));
    cache.store("f4", rows);
    EXPECT_TRUE(cache.degraded());
    EXPECT_EQ(tmpFiles(dir().string()), 0u);
}

// The failed store unlinked its /dev/full symlink, which lifts the
// fault: retrying the same key stores and serves it.
TEST_F(RunCacheFailure, RetryAfterFailedStoreSucceeds)
{
    const std::vector<std::string> rows = {"row-a\n", "row-b\n"};
    const fs::path entry = entryPath(dir(), "salt1", "key");
    tempToDevFull(entry);
    sweep::RunCache cache(dir().string(), "salt1");
    cache.store("key", rows);
    EXPECT_EQ(cache.stats().storeFailures, 1u);
    EXPECT_FALSE(fs::exists(fs::symlink_status(tmpPath(entry))));

    cache.store("key", rows);
    EXPECT_EQ(cache.stats().stores, 1u);
    std::vector<std::string> got;
    EXPECT_TRUE(cache.lookup("key", 2, &got));
    EXPECT_EQ(got, rows);
}

// A store that fails over an existing entry leaves that entry
// whole: it still verifies and serves the rows it was written with.
TEST_F(RunCacheFailure, FailedOverwriteKeepsThePreviousEntry)
{
    const std::vector<std::string> before = {"before\n"};
    const fs::path entry = entryPath(dir(), "salt1", "key");
    sweep::RunCache cache(dir().string(), "salt1");
    cache.store("key", before);
    ASSERT_TRUE(fs::is_regular_file(entry));

    tempToDevFull(entry);
    cache.store("key", {"after\n" + std::string(k64KiB, 'x')});
    EXPECT_EQ(cache.stats().storeFailures, 1u);
    EXPECT_EQ(tmpFiles(dir().string()), 0u);

    sweep::RunCache check(dir().string(), "salt1");
    std::vector<std::string> got;
    EXPECT_TRUE(check.lookup("key", 1, &got));
    EXPECT_EQ(got, before);
    EXPECT_EQ(check.stats().corrupt, 0u);
}

// A cache dir removed under a live cache is recreated by the next
// store rather than failing it.
TEST_F(RunCacheFailure, StoreRecreatesARemovedDir)
{
    const std::vector<std::string> rows = {"row\n"};
    sweep::RunCache cache(dir().string(), "salt1");
    cache.store("a", rows);
    fs::remove_all(dir());
    cache.store("b", rows);
    EXPECT_EQ(cache.stats().stores, 2u);
    EXPECT_EQ(cache.stats().storeFailures, 0u);
    std::vector<std::string> got;
    EXPECT_FALSE(cache.lookup("a", 1, &got));
    EXPECT_TRUE(cache.lookup("b", 1, &got));
}

// Reads never count toward the store-failure streak: a dir that
// cannot exist misses cleanly, degrades nothing and creates
// nothing.
TEST_F(RunCacheFailure, LookupsUnderAnUncreatableDirMissCleanly)
{
    blockDir(dir());
    sweep::RunCache cache(dir().string(), "salt1");
    std::vector<std::string> got;
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(cache.lookup("k" + std::to_string(i), 1, &got));
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    EXPECT_EQ(cache.stats().storeFailures, 0u);
    EXPECT_FALSE(cache.degraded());
    EXPECT_TRUE(fs::is_regular_file(dir().parent_path()));
}

// An entry path that is a directory is not a regular file: a clean
// miss, not a corrupt entry.
TEST_F(RunCacheFailure, DirectoryAtTheEntryPathIsACleanMiss)
{
    entryIsDir(entryPath(dir(), "salt1", "key"));
    sweep::RunCache cache(dir().string(), "salt1");
    std::vector<std::string> got;
    EXPECT_FALSE(cache.lookup("key", 1, &got));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    EXPECT_TRUE(got.empty());
}

// An entry path that resolves to a character device or a FIFO is
// not a regular file either: a clean miss that neither waits for a
// FIFO's writer nor reads what /dev/zero hands back without end.
TEST_F(RunCacheFailure, DeviceAtTheEntryPathIsACleanMiss)
{
    const fs::path entry = entryPath(dir(), "salt1", "key");
    fs::create_directories(dir());
    for (const bool fifo : {false, true}) {
        SCOPED_TRACE(fifo ? "FIFO" : "/dev/zero");
        fs::remove(entry);
        if (fifo)
            ASSERT_EQ(::mkfifo(entry.c_str(), 0600), 0);
        else
            fs::create_symlink("/dev/zero", entry);
        sweep::RunCache cache(dir().string(), "salt1");
        std::vector<std::string> got;
        EXPECT_FALSE(cache.lookup("key", 1, &got));
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().corrupt, 0u);
        EXPECT_TRUE(got.empty());
    }
}

// A sweep whose cached point resolves to /dev/zero recomputes that
// point, rather than reading zeros until memory runs out, with the
// bytes of an uncached run, and its store replaces the symlink with
// an entry the next run serves.
TEST_F(RunCacheFailure, DeviceEntryRecomputesWithUncachedBytes)
{
    expectSymlinkedEntryRecomputes(dir(), "/dev/zero");
}

// /proc/self/mem passes the regular-file check, but its first read
// fails with EIO (nothing is mapped at offset 0): readFile's read
// error branch, a clean miss that recomputes like the device above.
TEST_F(RunCacheFailure, ReadErrorIsACleanMiss)
{
    expectSymlinkedEntryRecomputes(dir(), "/proc/self/mem");
}

// A truncated entry is a corrupt miss; storing the recomputed rows
// replaces it with one that verifies.
TEST_F(RunCacheFailure, ShortReadIsACorruptMissThatAStoreRepairs)
{
    const std::vector<std::string> rows = {"payload\n"};
    const fs::path entry = entryPath(dir(), "salt1", "key");
    {
        sweep::RunCache cache(dir().string(), "salt1");
        cache.store("key", rows);
    }
    fs::resize_file(entry, fs::file_size(entry) - 1);

    sweep::RunCache cache(dir().string(), "salt1");
    std::vector<std::string> got;
    EXPECT_FALSE(cache.lookup("key", 1, &got));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_TRUE(got.empty());

    cache.store("key", rows);
    EXPECT_TRUE(cache.lookup("key", 1, &got));
    EXPECT_EQ(got, rows);
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

// A lock file that cannot be opened costs the lock, not the cache:
// stores still land and serve.
TEST_F(RunCacheFailure, UnopenableLockFileStillStores)
{
    fs::create_directories(dir() / ".melody-cache.lock");
    const std::vector<std::string> rows = {"row\n"};
    sweep::RunCache cache(dir().string(), "salt1");
    cache.store("a", rows);
    cache.store("b", rows);
    EXPECT_EQ(cache.stats().stores, 2u);
    EXPECT_EQ(cache.stats().storeFailures, 0u);
    EXPECT_EQ(tmpFiles(dir().string()), 0u);
    std::vector<std::string> got;
    EXPECT_TRUE(cache.lookup("a", 1, &got));
    EXPECT_EQ(sweep::RunCache::scanDir(dir().string()).entries, 2u);
}

// `cache stats` on a dir that cannot exist: an empty cache, and
// nothing is created.
TEST_F(RunCacheFailure, ScanOfAnUncreatableDirIsEmpty)
{
    blockDir(dir());
    const sweep::RunCache::DirStats ds =
        sweep::RunCache::scanDir(dir().string());
    EXPECT_EQ(ds.entries, 0u);
    EXPECT_EQ(ds.bytes, 0u);
    EXPECT_EQ(ds.foreign, 0u);
    EXPECT_TRUE(ds.perSalt.empty());
    EXPECT_TRUE(fs::is_regular_file(dir().parent_path()));
}

// `cache clear` on a dir that cannot exist removes nothing and
// creates nothing, not even the lock file.
TEST_F(RunCacheFailure, ClearOfAnUncreatableDirRemovesNothing)
{
    blockDir(dir());
    EXPECT_EQ(sweep::RunCache::clearDir(dir().string()), 0u);
    EXPECT_TRUE(fs::is_regular_file(dir().parent_path()));
}

// A directory squatting on an entry path is neither an entry nor a
// foreign file, and `cache clear` leaves it to the user.
TEST_F(RunCacheFailure, DirectoryAtAnEntryPathIsNotCountedOrCleared)
{
    sweep::RunCache cache(dir().string(), "salt1");
    cache.store("good", {"row\n"});
    const fs::path squat = entryPath(dir(), "salt1", "squat");
    entryIsDir(squat);

    const sweep::RunCache::DirStats ds =
        sweep::RunCache::scanDir(dir().string());
    EXPECT_EQ(ds.entries, 1u);
    EXPECT_EQ(ds.foreign, 0u);
    EXPECT_EQ(sweep::RunCache::clearDir(dir().string()), 1u);
    EXPECT_TRUE(fs::is_directory(squat));
}

// A dropped store costs the rerun exactly that point.
TEST_F(RunCacheFailure, RerunRecomputesOnlyTheDroppedStore)
{
    sweep::Options opts = cacheAt(dir().string());
    opts.jobs = 1;
    opts.salt = "rcfail-rerun";
    const std::vector<std::string> keys = failurePointKeys();

    // Run 1: p1's store hits ENOSPC. One failed store does not
    // degrade the cache.
    tempToDevFull(entryPath(dir(), opts.salt, keys[1]));
    std::string out1;
    {
        sweep::Sweep s("rcfail-rerun", opts);
        buildFailurePoints(&s);
        sweep::Sweep::Report rep;
        out1 = s.renderToString(&rep);
        EXPECT_TRUE(rep.clean());  // outputs complete regardless
        EXPECT_EQ(rep.cacheStores, 2u);
        EXPECT_FALSE(rep.cacheDegraded);
    }
    EXPECT_EQ(out1, failurePointBytes());
    EXPECT_EQ(tmpFiles(dir().string()), 0u);

    // Run 2: p0 and p2 segfault if executed, so a clean report
    // proves the rerun computed only p1, with identical bytes.
    sweep::Sweep s("rcfail-rerun", opts);
    buildFailurePoints(&s, 0, /*runnable=*/1);
    sweep::Sweep::Report rep;
    const std::string out2 = s.renderToString(&rep);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cacheHits, 2u);
    EXPECT_EQ(rep.cacheStores, 1u);
    EXPECT_EQ(out2, out1);
}

// ---------------------------------------------------------------
// A persistent failure met while the sweep's points are served or
// stored: the bytes stay complete and correct, no `.tmp` is left,
// and once the fault is lifted a rerun finds nothing torn.
// ---------------------------------------------------------------

namespace {

struct PersistentFailureCase
{
    const char *name;
    /** Puts the failing state in place for @p keys. */
    void (*arm)(const fs::path &dir, const std::string &salt,
                const std::vector<std::string> &keys);
    /** Populate the cache first, so lookups meet the fault. */
    bool warm;
    /** Arm only p1's entry: a fault on one key costs that point's
     *  store or hit and degrades nothing. */
    bool oneKey;
    /** Filler bytes per point (64 KiB fails in fwrite). */
    std::size_t pad;
    std::size_t hits, stores, corrupt;
    bool degraded;
};

void
PrintTo(const PersistentFailureCase &c, std::ostream *os)
{
    *os << c.name;
}

void
armBlockDir(const fs::path &dir, const std::string &,
            const std::vector<std::string> &)
{
    blockDir(dir);
}

void
armDevFull(const fs::path &dir, const std::string &salt,
           const std::vector<std::string> &keys)
{
    for (const auto &k : keys)
        tempToDevFull(entryPath(dir, salt, k));
}

void
armEntryDirs(const fs::path &dir, const std::string &salt,
             const std::vector<std::string> &keys)
{
    for (const auto &k : keys)
        entryIsDir(entryPath(dir, salt, k));
}

void
armTruncated(const fs::path &dir, const std::string &salt,
             const std::vector<std::string> &keys)
{
    for (const auto &k : keys) {
        const fs::path e = entryPath(dir, salt, k);
        fs::resize_file(e, fs::file_size(e) - 2);
    }
}

void
armLockDir(const fs::path &dir, const std::string &,
           const std::vector<std::string> &)
{
    fs::create_directories(dir / ".melody-cache.lock");
}

class RunCacheFailureSweep
    : public RunCacheFailure,
      public testing::WithParamInterface<PersistentFailureCase>
{};

}  // namespace

TEST_P(RunCacheFailureSweep, OutputIntactAndRerunFindsNothingTorn)
{
    const PersistentFailureCase &c = GetParam();
    sweep::Options opts = cacheAt(dir().string());
    opts.jobs = 1;
    opts.salt = "rcfail-persistent";
    const std::string want = failurePointBytes(c.pad);
    const auto render = [&](sweep::Sweep::Report *rep) {
        sweep::Sweep s("rcfail-persistent", opts);
        buildFailurePoints(&s, c.pad);
        return s.renderToString(rep);
    };
    if (c.warm) {
        sweep::Sweep::Report rep;
        ASSERT_EQ(render(&rep), want);
        ASSERT_EQ(rep.cacheStores, 3u);
    }

    const std::vector<std::string> keys = failurePointKeys();
    c.arm(dir(), opts.salt,
          c.oneKey ? std::vector<std::string>{keys[1]} : keys);
    sweep::Sweep::Report rep;
    EXPECT_EQ(render(&rep), want);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cacheHits, c.hits);
    EXPECT_EQ(rep.cacheStores, c.stores);
    EXPECT_EQ(rep.corruptEntries, c.corrupt);
    EXPECT_EQ(rep.cacheDegraded, c.degraded);
    EXPECT_EQ(tmpFiles(dir().string()), 0u);

    liftFaults(dir());
    sweep::Sweep::Report again;
    EXPECT_EQ(render(&again), want);
    EXPECT_TRUE(again.clean());
    EXPECT_EQ(again.corruptEntries, 0u);
    // What the faulted run served or stored is still there.
    EXPECT_EQ(again.cacheHits, c.hits + c.stores);
    EXPECT_EQ(again.cacheHits + again.cacheStores, 3u);
    EXPECT_EQ(tmpFiles(dir().string()), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Triggers, RunCacheFailureSweep,
    testing::Values(
        // warm oneKey pad hits stores corrupt degraded
        PersistentFailureCase{"fopen_enotdir", armBlockDir, false,
                              false, 0, 0, 0, 0, true},
        PersistentFailureCase{"fclose_enospc", armDevFull, false,
                              false, 0, 0, 0, 0, true},
        PersistentFailureCase{"fwrite_enospc", armDevFull, false,
                              false, k64KiB, 0, 0, 0, true},
        PersistentFailureCase{"rename_eisdir", armEntryDirs, false,
                              false, 0, 0, 0, 0, true},
        PersistentFailureCase{"entry_dir", armEntryDirs, true,
                              false, 0, 0, 0, 0, true},
        PersistentFailureCase{"short_read", armTruncated, true, false,
                              0, 0, 3, 3, false},
        PersistentFailureCase{"lock_eisdir", armLockDir, false, false,
                              0, 0, 3, 0, false},
        PersistentFailureCase{"fclose_enospc_one_key", armDevFull,
                              false, true, 0, 0, 2, 0, false},
        PersistentFailureCase{"fwrite_enospc_one_key", armDevFull,
                              false, true, k64KiB, 0, 2, 0, false},
        PersistentFailureCase{"rename_eisdir_one_key", armEntryDirs,
                              false, true, 0, 0, 2, 0, false},
        PersistentFailureCase{"entry_dir_one_key", armEntryDirs,
                              true, true, 0, 2, 0, 0, false},
        PersistentFailureCase{"short_read_one_key", armTruncated, true,
                              true, 0, 2, 1, 1, false}),
    [](const testing::TestParamInfo<PersistentFailureCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------
// Figure registry: `melody sweep` resolves figures by alias or by
// Figure::binary, and the binary string scopes each figure's cache
// entries, so both must name exactly one figure.
// ---------------------------------------------------------------

TEST(FigureRegistry, NamesAndBinariesAreUniqueAndResolve)
{
    std::set<std::string> seen;
    for (const figs::Figure &f : figs::all()) {
        EXPECT_TRUE(seen.insert(f.name).second) << f.name;
        EXPECT_TRUE(seen.insert(f.binary).second) << f.binary;
        EXPECT_EQ(figs::find(f.name), &f) << f.name;
        EXPECT_EQ(figs::find(f.binary), &f) << f.binary;
    }
}
