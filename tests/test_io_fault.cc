/**
 * @file
 * Host-I/O fault injector tests (DESIGN.md §15): spec parsing,
 * deterministic triggers, the blessed-wrapper hooks, and — the
 * real point — every persistence layer degrading gracefully under
 * injected ENOSPC/EMFILE/short-I/O instead of corrupting state.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/io_fault.hh"
#include "sim/logging.hh"
#include "sim/run_cache.hh"
#include "sim/sweep.hh"

using namespace cxlsim;
namespace iof = sim::iofault;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory per test; removed on teardown. */
class IoFaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        iof::reset();
        // Parameterized test names carry a '/'; keep one flat dir.
        std::string name = ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
        std::replace(name.begin(), name.end(), '/', '_');
        dir_ = fs::temp_directory_path() /
               ("melody-iofault-" + std::to_string(::getpid()) +
                "-" + name);
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        iof::reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /** Count files under the scratch dir matching @p ext. */
    std::size_t
    countFiles(const std::string &ext) const
    {
        std::size_t n = 0;
        std::error_code ec;
        for (const auto &e : fs::directory_iterator(dir_, ec))
            if (e.path().extension() == ext)
                ++n;
        return n;
    }

    fs::path dir_;
};

/** Open fds of this process (fd-leak detector for xfclose). */
std::size_t
openFdCount()
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator("/proc/self/fd",
                                                ec)) {
        (void)e;
        ++n;
    }
    return n;
}

// ---------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------

TEST_F(IoFaultTest, ParserRejectsMalformedSpecs)
{
    EXPECT_THROW(iof::install("writ:enospc@0.5"), ConfigError);
    EXPECT_THROW(iof::install("write:ebadfault@0.5"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc@"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc@0"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc@1.5"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc@-0.1"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc@#0"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc@#x"), ConfigError);
    EXPECT_THROW(iof::install("seed=abc write:enospc@0.5"),
                 ConfigError);
    // Counts are unsigned decimals: strtoull would wrap "-1" to
    // 2^64-1 (a trigger that never fires, a silently huge seed).
    EXPECT_THROW(iof::install("write:enospc@#-1"), ConfigError);
    EXPECT_THROW(iof::install("write:enospc@#-1+"), ConfigError);
    EXPECT_THROW(iof::install("seed=-3 write:enospc@0.5"),
                 ConfigError);
    // `short` only truncates transfers.
    EXPECT_THROW(iof::install("open:short@0.5"), ConfigError);
    // `accept` is not an injection point (nothing accepts sockets),
    // and neither are `pipe`, `fork` and `poll` (nothing forks).
    for (const char *op : {"accept", "pipe", "fork", "poll"})
        EXPECT_THROW(iof::install(std::string(op) + ":eio@0.1"),
                     ConfigError)
            << op;
    // `eintr` is not an injectable fault either.
    EXPECT_THROW(iof::install("read:eintr@0.5"), ConfigError);
}

TEST_F(IoFaultTest, FailedInstallLeavesActivePlanUntouched)
{
    iof::install("seed=3 open:emfile@#1");
    EXPECT_THROW(iof::install("open:nonsense@1"), ConfigError);
    EXPECT_TRUE(iof::enabled());
    EXPECT_EQ(iof::activeSpec(), "seed=3 open:emfile@#1");
}

TEST_F(IoFaultTest, EmptySpecDisarms)
{
    iof::install("seed=7 write:enospc@#1+");
    EXPECT_TRUE(iof::enabled());
    iof::install("");
    EXPECT_FALSE(iof::enabled());
    EXPECT_TRUE(iof::activeSpec().empty());
}

// ---------------------------------------------------------------
// Vocabularies, pinned entry by entry: each op name must arm the
// Op its wrapper family checks (the name table and the enum are
// kept in step by position), and each errno name must inject and
// log as that errno.
// ---------------------------------------------------------------

struct OpCase
{
    const char *name;
    iof::Op op;
};

void
PrintTo(const OpCase &c, std::ostream *os)
{
    *os << c.name;
}

constexpr iof::Op kAllOps[] = {
    iof::Op::kOpen,  iof::Op::kRead,   iof::Op::kWrite,
    iof::Op::kClose, iof::Op::kRename,
};
static_assert(sizeof(kAllOps) / sizeof(kAllOps[0]) ==
              static_cast<unsigned>(iof::Op::kOpCount));

class IoFaultOpName : public ::testing::TestWithParam<OpCase>
{
  protected:
    void SetUp() override { iof::reset(); }
    void TearDown() override { iof::reset(); }
};

TEST_P(IoFaultOpName, ArmsOnlyItsOwnOpAndLogsUnderItsName)
{
    const OpCase &c = GetParam();
    // Every op accepts an errno fault such as `eio`.
    iof::install(std::string(c.name) + ":eio@#1");
    for (const iof::Op op : kAllOps) {
        const iof::Decision d = iof::check(op);
        if (op == c.op)
            EXPECT_EQ(d.err, EIO);
        else
            EXPECT_FALSE(d) << "op #" << static_cast<unsigned>(op);
    }
    EXPECT_EQ(iof::logLines(),
              (std::vector<std::string>{"io-fault: " +
                                        std::string(c.name) +
                                        " call#1 -> EIO"}));
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IoFaultOpName,
    ::testing::Values(OpCase{"open", iof::Op::kOpen},
                      OpCase{"read", iof::Op::kRead},
                      OpCase{"write", iof::Op::kWrite},
                      OpCase{"close", iof::Op::kClose},
                      OpCase{"rename", iof::Op::kRename}),
    [](const ::testing::TestParamInfo<OpCase> &info) {
        return std::string(info.param.name);
    });

struct ErrnoCase
{
    const char *name;
    int err;
    const char *upper;
};

void
PrintTo(const ErrnoCase &c, std::ostream *os)
{
    *os << c.name;
}

class IoFaultErrnoName : public ::testing::TestWithParam<ErrnoCase>
{
  protected:
    void SetUp() override { iof::reset(); }
    void TearDown() override { iof::reset(); }
};

TEST_P(IoFaultErrnoName, InjectsAndFormatsTheNamedErrno)
{
    const ErrnoCase &c = GetParam();
    iof::install(std::string("write:") + c.name + "@#1");
    const iof::Decision d = iof::check(iof::Op::kWrite);
    EXPECT_EQ(d.err, c.err);
    EXPECT_FALSE(d.shortIo);
    EXPECT_FALSE(iof::check(iof::Op::kWrite));  // call#2: one-shot
    EXPECT_EQ(iof::errnoName(c.err), c.upper);
    EXPECT_EQ(iof::logLines(),
              (std::vector<std::string>{
                  std::string("io-fault: write call#1 -> ") +
                  c.upper}));
}

INSTANTIATE_TEST_SUITE_P(
    Errnos, IoFaultErrnoName,
    ::testing::Values(ErrnoCase{"enospc", ENOSPC, "ENOSPC"},
                      ErrnoCase{"emfile", EMFILE, "EMFILE"},
                      ErrnoCase{"enfile", ENFILE, "ENFILE"},
                      ErrnoCase{"eio", EIO, "EIO"},
                      ErrnoCase{"eagain", EAGAIN, "EAGAIN"},
                      ErrnoCase{"enomem", ENOMEM, "ENOMEM"},
                      ErrnoCase{"epipe", EPIPE, "EPIPE"}),
    [](const ::testing::TestParamInfo<ErrnoCase> &info) {
        return std::string(info.param.name);
    });

TEST(IoFaultErrnoNames, ErrnoOutsideTheVocabularyFormatsByNumber)
{
    iof::reset();
    EXPECT_EQ(iof::errnoName(EBADF),
              "errno " + std::to_string(EBADF));
    EXPECT_THROW(iof::install("write:ebadf@0.5"), ConfigError);
    EXPECT_FALSE(iof::enabled());
}

// ---------------------------------------------------------------
// Triggers and determinism.
// ---------------------------------------------------------------

TEST_F(IoFaultTest, DisabledInjectorIsInvisible)
{
    ASSERT_FALSE(iof::enabled());
    std::FILE *f = iof::xfopen(path("a").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(iof::xfwrite("xy", 1, 2, f), 2u);
    EXPECT_EQ(iof::xfclose(f), 0);
    EXPECT_EQ(iof::injectedCount(), 0u);
    EXPECT_TRUE(iof::logLines().empty());
}

TEST_F(IoFaultTest, CountedTriggerFiresExactlyOnce)
{
    iof::install("open:emfile@#2");
    std::FILE *a = iof::xfopen(path("a").c_str(), "wb");
    ASSERT_NE(a, nullptr);
    iof::xfclose(a);
    errno = 0;
    EXPECT_EQ(iof::xfopen(path("b").c_str(), "wb"), nullptr);
    EXPECT_EQ(errno, EMFILE);
    std::FILE *c = iof::xfopen(path("c").c_str(), "wb");
    EXPECT_NE(c, nullptr);
    if (c)
        iof::xfclose(c);
    EXPECT_EQ(iof::injectedCount(), 1u);
    const auto log = iof::logLines();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], "io-fault: open call#2 -> EMFILE");
}

TEST_F(IoFaultTest, FromNthOnTriggerIsPersistent)
{
    std::FILE *f = std::fopen(path("a").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    iof::install("rename:eio@#1+");
    for (int i = 0; i < 3; ++i) {
        errno = 0;
        EXPECT_EQ(iof::xrename(path("a").c_str(),
                               path("b").c_str()),
                  -1);
        EXPECT_EQ(errno, EIO);
    }
    EXPECT_TRUE(fs::exists(path("a")));
    EXPECT_FALSE(fs::exists(path("b")));
    EXPECT_EQ(iof::injectedCount(), 3u);
}

TEST_F(IoFaultTest, ProbabilityTriggerReplaysBitForBit)
{
    const char *spec = "seed=9 write:enospc@0.3";
    const auto sample = [&] {
        std::vector<int> hits;
        for (int i = 0; i < 300; ++i)
            if (iof::check(iof::Op::kWrite).err != 0)
                hits.push_back(i);
        return hits;
    };
    iof::install(spec);
    const std::vector<int> first = sample();
    iof::install(spec);  // reinstall resets counters
    EXPECT_EQ(sample(), first);
    // ~30% of 300 with hash dispersion: loose sanity bounds only.
    EXPECT_GT(first.size(), 40u);
    EXPECT_LT(first.size(), 180u);
    // A different seed selects a different failing set.
    iof::install("seed=10 write:enospc@0.3");
    EXPECT_NE(sample(), first);
}

TEST_F(IoFaultTest, ShortWriteGenuinelyWritesHalf)
{
    iof::install("write:short@#1");
    std::FILE *f = iof::xfopen(path("a").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(iof::xfwrite("0123456789", 1, 10, f), 5u);
    EXPECT_EQ(iof::xfwrite("abcd", 1, 4, f), 4u);  // only call#1
    iof::xfclose(f);
    EXPECT_EQ(fs::file_size(path("a")), 9u);  // torn bytes real
}

TEST_F(IoFaultTest, XfcloseReportsErrorButNeverLeaksTheFd)
{
    iof::install("close:eio@#1+");
    const std::size_t before = openFdCount();
    for (int i = 0; i < 32; ++i) {
        std::FILE *f =
            iof::xfopen(path("a" + std::to_string(i)).c_str(),
                        "wb");
        ASSERT_NE(f, nullptr);
        errno = 0;
        EXPECT_EQ(iof::xfclose(f), EOF);
        EXPECT_EQ(errno, EIO);
    }
    EXPECT_EQ(openFdCount(), before);
}

// ---------------------------------------------------------------
// RunCache degradation.
// ---------------------------------------------------------------

TEST_F(IoFaultTest, RunCacheDegradesToReadOnlyOnPersistentEnospc)
{
    const std::vector<std::string> rows = {"row-a\n"};
    sweep::RunCache cache(dir_.string(), "salt1");
    cache.store("healthy", rows);  // pre-degradation entry
    ASSERT_EQ(cache.stats().stores, 1u);

    iof::install("write:enospc@#1+");
    for (int i = 0; i < 3; ++i)
        cache.store("k" + std::to_string(i), rows);
    EXPECT_EQ(cache.stats().storeFailures, 3u);
    EXPECT_TRUE(cache.degraded());

    // Degraded stores short-circuit (no syscalls, no new faults).
    const std::uint64_t faultsBefore = iof::injectedCount();
    cache.store("k4", rows);
    EXPECT_EQ(iof::injectedCount(), faultsBefore);
    EXPECT_EQ(cache.stats().storesSuppressed, 1u);

    // Read-only pass-through: the surviving entry still serves.
    iof::reset();
    std::vector<std::string> got;
    EXPECT_TRUE(cache.lookup("healthy", 1, &got));
    EXPECT_EQ(got, rows);
    EXPECT_TRUE(cache.degraded());  // sticky for the run

    // A full disk never accumulates temp litter.
    EXPECT_EQ(countFiles(".tmp"), 0u);
}

TEST_F(IoFaultTest, RunCacheUnlinksTmpOnEveryFailureBranch)
{
    const std::vector<std::string> rows = {"row\n"};
    // Short write, close failure, rename failure: each must leave
    // the directory free of pid-tmp files.
    const char *plans[] = {"write:short@#1", "close:eio@#1",
                          "rename:eio@#1"};
    for (const char *plan : plans) {
        sweep::RunCache cache(dir_.string(), "salt1");
        iof::install(plan);
        cache.store("key", rows);
        iof::reset();
        EXPECT_EQ(cache.stats().storeFailures, 1u)
            << "plan: " << plan;
        EXPECT_EQ(countFiles(".tmp"), 0u) << "plan: " << plan;
        // The failed store never left a half-written entry either.
        std::vector<std::string> got;
        sweep::RunCache check(dir_.string(), "salt1");
        EXPECT_FALSE(check.lookup("key", 1, &got))
            << "plan: " << plan;
        EXPECT_EQ(check.stats().corrupt, 0u) << "plan: " << plan;
    }
}

TEST_F(IoFaultTest, RunCacheShortReadIsACleanRecomputableMiss)
{
    const std::vector<std::string> rows = {"payload\n"};
    sweep::RunCache cache(dir_.string(), "salt1");
    cache.store("key", rows);
    iof::install("read:short@#1");
    std::vector<std::string> got;
    // Truncated read fails the checksum: a corrupt miss, never
    // wrong bytes.
    EXPECT_FALSE(cache.lookup("key", 1, &got));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    iof::reset();
    EXPECT_TRUE(cache.lookup("key", 1, &got));
    EXPECT_EQ(got, rows);
}

/**
 * Build the 3-point sweep used by the sweep-level tests. With
 * @p runnable >= 0, every other point segfaults if executed, which
 * proves a rerun took it from the run cache.
 */
void
buildPoints(sweep::Sweep *s, int runnable = -1)
{
    for (int i = 0; i < 3; ++i) {
        const std::string key = "p" + std::to_string(i);
        s->point(key, [key, trap = runnable >= 0 && i != runnable](
                          sweep::Emit &e) {
            if (trap) {
                volatile int *p = nullptr;
                *p = 1;
            }
            e.printf("%s-out\n", key.c_str());
        });
    }
}

// ---------------------------------------------------------------
// A dropped run-cache store costs the rerun exactly that point.
// ---------------------------------------------------------------

TEST_F(IoFaultTest, RerunRecomputesOnlyTheDroppedStore)
{
    sweep::Options opts;
    opts.jobs = 1;
    opts.cacheDir = dir_.string();
    opts.salt = "iofault-test-salt";

    // Run 1: each point is stored as it finishes, in point order
    // at --jobs 1, so the second rename is p1's. One failed store
    // does not degrade the cache.
    std::string out1;
    {
        sweep::Sweep s("iofault-rerun", opts);
        buildPoints(&s);
        iof::install("rename:eio@#2");
        sweep::Sweep::Report rep;
        out1 = s.renderToString(&rep);
        EXPECT_EQ(iof::injectedCount(), 1u);
        iof::reset();
        EXPECT_TRUE(rep.clean());  // outputs complete regardless
        EXPECT_EQ(rep.cacheStores, 2u);
        EXPECT_FALSE(rep.cacheDegraded);
    }
    EXPECT_EQ(out1, "p0-out\np1-out\np2-out\n");
    EXPECT_EQ(countFiles(".tmp"), 0u);

    // Run 2: p0 and p2 segfault if executed, so a clean report
    // proves the rerun computed only p1, with identical bytes.
    sweep::Sweep s("iofault-rerun", opts);
    buildPoints(&s, /*runnable=*/1);
    sweep::Sweep::Report rep;
    const std::string out2 = s.renderToString(&rep);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cacheHits, 2u);
    EXPECT_EQ(rep.cacheStores, 1u);
    EXPECT_EQ(out2, out1);
}

// ---------------------------------------------------------------
// A persistent fault in any op the run cache uses, hit while points
// are stored (or, for reads, served) in-process: the sweep's bytes
// stay complete and correct, no temp file is left behind, and a
// fault-free rerun finds nothing torn.
// ---------------------------------------------------------------

struct PersistentFaultCase
{
    const char *name;
    const char *spec;
    /** Populate the cache before arming, so lookups hit the fault. */
    bool warm;
};

void
PrintTo(const PersistentFaultCase &c, std::ostream *os)
{
    *os << c.spec;
}

class SweepUnderPersistentFault
    : public IoFaultTest,
      public ::testing::WithParamInterface<PersistentFaultCase>
{};

TEST_P(SweepUnderPersistentFault, OutputIntactAndRerunFindsNothingTorn)
{
    const PersistentFaultCase &c = GetParam();
    sweep::Options opts;
    opts.jobs = 1;
    opts.cacheDir = dir_.string();
    opts.salt = "iofault-persistent";
    const std::string want = "p0-out\np1-out\np2-out\n";
    const auto render = [&](sweep::Sweep::Report *rep) {
        sweep::Sweep s("iofault-persistent", opts);
        buildPoints(&s);
        return s.renderToString(rep);
    };
    if (c.warm) {
        sweep::Sweep::Report rep;
        ASSERT_EQ(render(&rep), want);
        ASSERT_EQ(rep.cacheStores, 3u);
    }

    iof::install(c.spec);
    sweep::Sweep::Report rep;
    const std::string out = render(&rep);
    const std::uint64_t injected = iof::injectedCount();
    iof::reset();
    EXPECT_GT(injected, 0u);
    EXPECT_EQ(out, want);
    EXPECT_TRUE(rep.clean());
    if (c.warm)
        EXPECT_EQ(rep.cacheHits, 0u);  // every read was cut
    else
        EXPECT_EQ(rep.cacheStores, 0u);  // every store failed
    EXPECT_EQ(countFiles(".tmp"), 0u);

    sweep::Sweep::Report again;
    EXPECT_EQ(render(&again), want);
    EXPECT_TRUE(again.clean());
    EXPECT_EQ(again.corruptEntries, 0u);
    EXPECT_EQ(again.cacheHits + again.cacheStores, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, SweepUnderPersistentFault,
    ::testing::Values(
        PersistentFaultCase{"open_emfile", "open:emfile@#1+", false},
        PersistentFaultCase{"write_enospc", "write:enospc@#1+", false},
        PersistentFaultCase{"write_short", "write:short@#1+", false},
        PersistentFaultCase{"close_eio", "close:eio@#1+", false},
        PersistentFaultCase{"rename_eio", "rename:eio@#1+", false},
        PersistentFaultCase{"read_short", "read:short@#1+", true},
        PersistentFaultCase{"read_eio", "read:eio@#1+", true}),
    [](const ::testing::TestParamInfo<PersistentFaultCase> &info) {
        return std::string(info.param.name);
    });

}  // namespace
