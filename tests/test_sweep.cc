/**
 * @file
 * Sweep-engine contract tests: byte-identical output for any job
 * count, cache round trips that reproduce cache-miss bytes exactly
 * (including corrupted-entry fallback), salt invalidation, and
 * figure-level determinism for a few real benches.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench/figures.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"

using namespace cxlsim;

namespace {

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

    // Truncate one entry and scribble over another: both must be
    // detected, recomputed, and re-stored with identical output.
    // Only .rcache files are entries — the dir also holds the
    // cross-process lock file.
    std::vector<fs::path> entries;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".rcache")
            entries.push_back(e.path());
    ASSERT_GE(entries.size(), 2u);
    std::sort(entries.begin(), entries.end());
    fs::resize_file(entries[0], 4);
    {
        std::ofstream f(entries[1], std::ios::binary);
        f << "melody-runcache 1\nnot a real entry\n";
    }

    sweep::Sweep::Report rep;
    const std::string b = renderSynthetic(cacheAt(dir), &rep);
    EXPECT_EQ(a, b);
    EXPECT_EQ(rep.corruptEntries, 2u);
    EXPECT_EQ(rep.cacheHits, rep.points - 2);
    EXPECT_EQ(rep.cacheStores, 2u);

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

/** Every job count renders the synthetic sweep's serial bytes,
 *  in process and under --isolate. 0 means one job per core. */
class SweepJobs : public testing::TestWithParam<unsigned>
{};

TEST_P(SweepJobs, BytesMatchSerial)
{
    sweep::Options serial = noCache();
    serial.jobs = 1;
    const std::string ref = renderSynthetic(serial);
    ASSERT_FALSE(ref.empty());

    sweep::Options inproc = noCache();
    inproc.jobs = GetParam();
    EXPECT_EQ(ref, renderSynthetic(inproc));

    sweep::Options iso = noCache();
    iso.jobs = GetParam();
    iso.isolate = true;
    iso.checkInvariants = false;
    sweep::Sweep::Report rep;
    EXPECT_EQ(ref, renderSynthetic(iso, &rep));
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
