/**
 * @file
 * Host-I/O fault injector tests (DESIGN.md §15): spec parsing,
 * deterministic triggers, the blessed-wrapper hooks, and — the
 * real point — every persistence layer degrading gracefully under
 * injected ENOSPC/EMFILE/short-I/O instead of corrupting state.
 */

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/io_fault.hh"
#include "sim/logging.hh"
#include "sim/retry_io.hh"
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
        dir_ = fs::temp_directory_path() /
               ("melody-iofault-" + std::to_string(::getpid()) +
                "-" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
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
    // A hard poll error would panic the event loops by design.
    EXPECT_THROW(iof::install("poll:enospc@0.5"), ConfigError);
    // A persistent EINTR would spin the retry loops forever.
    EXPECT_THROW(iof::install("read:eintr@#2+"), ConfigError);
    // `accept` is not an injection point (nothing accepts sockets).
    EXPECT_THROW(iof::install("accept:eintr@0.1"), ConfigError);
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
    iof::Op::kClose, iof::Op::kRename, iof::Op::kPipe,
    iof::Op::kFork,  iof::Op::kPoll,
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
    // `eintr` is the one fault every op accepts, poll included.
    iof::install(std::string(c.name) + ":eintr@#1");
    for (const iof::Op op : kAllOps) {
        const iof::Decision d = iof::check(op);
        if (op == c.op)
            EXPECT_EQ(d.err, EINTR);
        else
            EXPECT_FALSE(d) << "op #" << static_cast<unsigned>(op);
    }
    EXPECT_EQ(iof::logLines(),
              (std::vector<std::string>{"io-fault: " +
                                        std::string(c.name) +
                                        " call#1 -> EINTR"}));
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IoFaultOpName,
    ::testing::Values(OpCase{"open", iof::Op::kOpen},
                      OpCase{"read", iof::Op::kRead},
                      OpCase{"write", iof::Op::kWrite},
                      OpCase{"close", iof::Op::kClose},
                      OpCase{"rename", iof::Op::kRename},
                      OpCase{"pipe", iof::Op::kPipe},
                      OpCase{"fork", iof::Op::kFork},
                      OpCase{"poll", iof::Op::kPoll}),
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
                      ErrnoCase{"epipe", EPIPE, "EPIPE"},
                      ErrnoCase{"eintr", EINTR, "EINTR"}),
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

TEST_F(IoFaultTest, InjectedEintrIsConsumedByRetryWrappers)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "hi", 2), 2);
    iof::install("read:eintr@#1");
    char buf[8];
    // The wrapper absorbs the injected EINTR and completes the
    // read: callers never observe a failure.
    EXPECT_EQ(sim::retryRead(fds[0], buf, sizeof(buf)), 2);
    EXPECT_EQ(iof::injectedCount(), 1u);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(IoFaultTest, RetryPollDeadlineHonorsDeadlineAndReadyFds)
{
    using Clock = std::chrono::steady_clock;
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    struct pollfd p = {fds[0], POLLIN, 0};

    // No data: times out at (not meaningfully before) deadline.
    const auto t0 = Clock::now();
    EXPECT_EQ(sim::retryPollDeadline(
                  &p, 1, t0 + std::chrono::milliseconds(50)),
              0);
    EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(50));

    // Data ready: reported even when the deadline already passed
    // (the caller harvests I/O and fires watchdogs in one turn).
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    p.revents = 0;
    EXPECT_EQ(sim::retryPollDeadline(
                  &p, 1, Clock::now() - std::chrono::seconds(1)),
              1);
    EXPECT_TRUE(p.revents & POLLIN);

    // Injected EINTR restarts with a recomputed budget.
    iof::install("poll:eintr@#1");
    p.revents = 0;
    EXPECT_EQ(sim::retryPollDeadline(
                  &p, 1, Clock::time_point::max()),
              1);
    ::close(fds[0]);
    ::close(fds[1]);
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
    opts.isolate = true;
    opts.maxAttempts = 1;
    opts.cacheDir = dir_.string();
    opts.salt = "iofault-test-salt";

    // Run 1: isolated stores happen in the parent as each worker
    // reports back, in point order at --jobs 1, so the second
    // rename is p1's. One failed store does not degrade the cache.
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
// Supervisor: injected pipe/fork exhaustion is a retryable point
// failure with an errno-named cause.
// ---------------------------------------------------------------

TEST_F(IoFaultTest, SupervisorRetriesInjectedPipeExhaustion)
{
    sweep::Options opts;
    opts.jobs = 1;
    opts.cache = false;
    opts.isolate = true;
    opts.maxAttempts = 2;

    sweep::Sweep s("iofault-pipe", opts);
    buildPoints(&s);
    iof::install("pipe:emfile@#1");
    sweep::Sweep::Report rep;
    const std::string out = s.renderToString(&rep);
    iof::reset();
    EXPECT_TRUE(rep.clean());  // the retry rode out the fault
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_EQ(out, "p0-out\np1-out\np2-out\n");
}

TEST_F(IoFaultTest, SupervisorNamesTheErrnoInExhaustionCauses)
{
    sweep::Options opts;
    opts.jobs = 1;
    opts.cache = false;
    opts.isolate = true;
    opts.maxAttempts = 1;  // no retry: the failure surfaces

    sweep::Sweep s("iofault-fork", opts);
    buildPoints(&s);
    iof::install("fork:eagain@#1");
    sweep::Sweep::Report rep;
    (void)s.renderToString(&rep);
    iof::reset();
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "fork-failed: EAGAIN");
}

}  // namespace
