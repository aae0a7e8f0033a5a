#include "supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "sim/interrupt.hh"
#include "sim/io_fault.hh"
#include "sim/logging.hh"
#include "sim/retry_io.hh"
#include "sim/sweep.hh"
#include "stats/rows.hh"

namespace cxlsim::sweep {

namespace {

using Clock = std::chrono::steady_clock;

/** Row separator inside the worker payload's invariant rows; never
 *  occurs in catalog names or formatted values. */
constexpr char kUnitSep = '\x1f';

/** One in-flight worker subprocess. */
struct ChildProc
{
    pid_t pid = -1;
    int fd = -1;  // read end of the result pipe
    std::size_t taskPos = 0;
    unsigned attempt = 1;
    bool hasDeadline = false;
    Clock::time_point deadline;
    bool timedOut = false;
    /** Killed by the second interrupt signal (escalation). */
    bool interrupted = false;
    std::string buf;  // payload accumulated so far
};

/**
 * Worker body: compute one point, stream the encoded result over
 * the pipe, and _exit without running atexit handlers or flushing
 * inherited stdio buffers (the parent flushed before fork, so a
 * normal exit here would duplicate its buffered bytes).
 *
 * Payload: encodeRows of ["ok", slot0.., then one
 * "iv<US>invariant<US>where<US>values" row per recorded invariant
 * violation], or ["ex:<what>"] when the closure threw.
 */
[[noreturn]] void
runWorker(const SupervisorTask &task, bool checkInvariants, int wfd)
{
    // The parent's graceful-interrupt handlers must not survive
    // into the worker: a Ctrl-C against the process group should
    // kill workers cleanly (classified as "signal 2"), not run a
    // handler against the inherited self-pipe.
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    std::vector<std::string> rows;
    sim::Invariants inv;
    try {
        std::vector<Emit> slots(task.nSlots);
        {
            sim::InvariantScope scope(checkInvariants ? &inv
                                                      : nullptr);
            (*task.fn)(slots.data());
        }
        rows.reserve(1 + task.nSlots + inv.violations().size());
        rows.push_back("ok");
        for (auto &s : slots)
            rows.push_back(s.take());
        for (const auto &v : inv.violations()) {
            std::string row = "iv";
            row += kUnitSep;
            row += v.invariant;
            row += kUnitSep;
            row += v.where;
            row += kUnitSep;
            row += v.values;
            rows.push_back(std::move(row));
        }
        if (inv.dropped()) {
            std::string row = "iv";
            row += kUnitSep;
            row += "invariants/dropped";
            row += kUnitSep;
            row += "Invariants";
            row += kUnitSep;
            row += "dropped=" + std::to_string(inv.dropped());
            rows.push_back(std::move(row));
        }
    } catch (const std::exception &e) {
        rows.assign(1, std::string("ex:") + e.what());
    } catch (...) {
        rows.assign(1, "ex:unknown exception");
    }
    // A failed write means the parent is gone or the pipe broke:
    // nothing useful left to do — the torn payload classifies as
    // protocol-error upstream.
    (void)sim::retryWriteAll(wfd, stats::encodeRows(rows));
    ::close(wfd);
    ::_exit(0);
}

/** Parsed outcome of one finished worker. */
struct WorkerResult
{
    bool ok = false;
    std::string cause;  // when !ok
    std::vector<std::string> slots;
    std::vector<sim::InvariantViolation> violations;
};

bool
parsePayload(const std::string &buf, std::size_t nSlots,
             WorkerResult *r)
{
    std::vector<std::string> rows;
    if (!stats::decodeRows(buf, &rows) || rows.empty())
        return false;
    if (rows[0] == "ok") {
        if (rows.size() < 1 + nSlots)
            return false;
        r->ok = true;
        r->slots.assign(
            std::make_move_iterator(rows.begin() + 1),
            std::make_move_iterator(rows.begin() + 1 +
                                    static_cast<std::ptrdiff_t>(
                                        nSlots)));
        for (std::size_t i = 1 + nSlots; i < rows.size(); ++i) {
            const std::string &row = rows[i];
            if (row.size() < 3 || row[0] != 'i' || row[1] != 'v' ||
                row[2] != kUnitSep)
                continue;  // unknown trailer row: skip
            const std::size_t a = row.find(kUnitSep, 3);
            const std::size_t b =
                a == std::string::npos
                    ? std::string::npos
                    : row.find(kUnitSep, a + 1);
            if (b == std::string::npos)
                continue;
            r->violations.push_back(
                {row.substr(3, a - 3),
                 row.substr(a + 1, b - a - 1), row.substr(b + 1)});
        }
        return true;
    }
    if (rows.size() == 1 && rows[0].rfind("ex:", 0) == 0) {
        r->ok = false;
        r->cause = "exception: " + rows[0].substr(3);
        return true;
    }
    return false;
}

/**
 * Turn a reaped child's wait status + payload into a result. A
 * clean exit with a well-formed payload wins even when the
 * watchdog fired (kill/exit race); otherwise the timeout flag
 * takes precedence over the raw SIGKILL it caused.
 */
WorkerResult
classify(int status, const ChildProc &c, std::size_t nSlots)
{
    WorkerResult r;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
        parsePayload(c.buf, nSlots, &r))
        return r;
    r.ok = false;
    r.slots.clear();
    r.violations.clear();
    if (c.timedOut)
        r.cause = "watchdog-timeout";
    else if (WIFSIGNALED(status))
        r.cause = signalName(WTERMSIG(status));
    else if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        r.cause =
            "exit-code " + std::to_string(WEXITSTATUS(status));
    else
        r.cause = "protocol-error";
    return r;
}

}  // namespace

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGILL: return "SIGILL";
      case SIGKILL: return "SIGKILL";
      case SIGTERM: return "SIGTERM";
      default: return "signal " + std::to_string(sig);
    }
}

SupervisorReport
runSupervised(const std::vector<SupervisorTask> &tasks,
              const SupervisorConfig &cfg,
              const SupervisorCallbacks &cb)
{
    SupervisorReport report;
    if (tasks.empty())
        return report;

    unsigned jobs = cfg.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(std::min<std::size_t>(
        jobs, tasks.size()));
    const unsigned maxAttempts = std::max(1u, cfg.maxAttempts);

    // (taskPos, attempt) work queue; retries re-enter at the back.
    std::deque<std::pair<std::size_t, unsigned>> queue;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        queue.emplace_back(i, 1u);

    std::vector<ChildProc> inflight;
    inflight.reserve(jobs);

    auto handleFailure = [&](std::size_t pos, unsigned attempt,
                             const std::string &cause) {
        // An interrupted run refuses retries: the budget exists to
        // ride out transient faults, not to keep the parent alive
        // after the user asked it to stop.
        const bool final =
            attempt >= maxAttempts || sim::interruptRequested();
        if (cb.onFailure)
            cb.onFailure(tasks[pos].index, attempt, cause, final);
        if (final) {
            report.failures.push_back(
                {tasks[pos].index, attempt, cause});
        } else {
            ++report.retries;
            queue.emplace_back(pos, attempt + 1);
        }
    };

    auto spawn = [&](std::size_t pos, unsigned attempt) {
        const SupervisorTask &task = tasks[pos];
        int fds[2];
        if (sim::retryPipe2(fds, O_CLOEXEC) != 0) {
            // Resource exhaustion (EMFILE/ENFILE) is a *point*
            // failure with a retry budget, not a sweep abort: by
            // the retry the fd pressure may have drained. The
            // errno name makes "why" greppable in failure tables.
            handleFailure(pos, attempt,
                          "pipe-failed: " +
                              sim::iofault::errnoName(errno));
            return;
        }
        // The child inherits the parent's stdio buffers; flush so
        // its _exit cannot strand (or a crash dump duplicate) them.
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = sim::retryFork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            handleFailure(pos, attempt,
                          "fork-failed: " +
                              sim::iofault::errnoName(errno));
            return;
        }
        if (pid == 0) {
            ::close(fds[0]);
            // Drop inherited read ends of sibling pipes.
            for (const ChildProc &c : inflight)
                ::close(c.fd);
            runWorker(task, cfg.checkInvariants, fds[1]);
        }
        ::close(fds[1]);
        ChildProc c;
        c.pid = pid;
        c.fd = fds[0];
        c.taskPos = pos;
        c.attempt = attempt;
        if (cfg.timeoutMs > 0) {
            c.hasDeadline = true;
            c.deadline = Clock::now() +
                         std::chrono::milliseconds(cfg.timeoutMs);
        }
        inflight.push_back(std::move(c));
        ++report.launched;
    };

    // Graceful interruption (SIGINT/SIGTERM with the CLI's
    // handlers installed), in two stages. First signal: stop
    // dispatching and fail every queued point with the distinct
    // cause "interrupted" (final, so the failure table names
    // what was cut), but let in-flight workers finish — their
    // results reach the run cache, so a rerun skips them.
    // Second signal: the user is done waiting (a hung point would
    // otherwise pin the drain forever without --timeout-ms), so
    // SIGKILL in-flight workers too; they classify as
    // "interrupted", not as an anonymous signal death.
    bool inflightKilled = false;
    auto onInterrupt = [&] {
        if (!sim::interruptRequested())
            return;
        sim::drainInterruptWake();
        if (!queue.empty()) {
            std::deque<std::pair<std::size_t, unsigned>> cut;
            cut.swap(queue);
            for (const auto &[pos, attempt] : cut)
                handleFailure(pos, attempt, "interrupted");
        }
        if (sim::interruptCount() >= 2 && !inflightKilled) {
            inflightKilled = true;
            for (ChildProc &c : inflight) {
                c.interrupted = true;
                ::kill(c.pid, SIGKILL);
            }
        }
    };

    while (!queue.empty() || !inflight.empty()) {
        onInterrupt();
        while (inflight.size() < jobs && !queue.empty()) {
            const auto [pos, attempt] = queue.front();
            queue.pop_front();
            spawn(pos, attempt);
        }
        if (inflight.empty())
            continue;  // every spawn failed outright; drain queue

        std::vector<pollfd> pfds;
        pfds.reserve(inflight.size() + 1);
        for (const ChildProc &c : inflight)
            pfds.push_back({c.fd, POLLIN, 0});
        // The interrupt self-pipe wakes a poll blocked on healthy
        // long-running workers the moment a signal lands. Polled
        // until the second signal has been acted on — after that
        // no further signal changes any decision. No busy-spin:
        // onInterrupt() drains the pipe whenever the flag is set,
        // so a level-triggered POLLIN only fires on a fresh
        // signal.
        const int wakeFd = sim::interruptWakeFd();
        const bool pollWake = wakeFd >= 0 && !inflightKilled;
        if (pollWake)
            pfds.push_back({wakeFd, POLLIN, 0});

        Clock::time_point next = Clock::time_point::max();
        if (cfg.timeoutMs > 0)
            for (const ChildProc &c : inflight)
                if (c.hasDeadline && !c.timedOut)
                    next = std::min(next, c.deadline);

        const int rc = sim::retryPollDeadline(pfds.data(),
                                              pfds.size(), next);
        if (rc < 0)
            SIM_PANIC("supervisor: poll() failed");

        // Fire expired watchdogs (SIGKILL; the pipe EOF that
        // follows reaps and classifies the child).
        if (cfg.timeoutMs > 0) {
            const Clock::time_point now = Clock::now();
            for (ChildProc &c : inflight) {
                if (c.hasDeadline && !c.timedOut &&
                    now >= c.deadline) {
                    c.timedOut = true;
                    ::kill(c.pid, SIGKILL);
                }
            }
        }

        // Drain readable pipes; EOF means the worker is done. The
        // optional wake-fd entry sits past the inflight range and
        // is not a worker pipe — iterate workers only.
        for (std::size_t i = 0; i < inflight.size();) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
                ++i;
                continue;
            }
            ChildProc &c = inflight[i];
            char buf[1 << 16];
            const ssize_t n = sim::retryRead(c.fd, buf, sizeof(buf));
            if (n > 0) {
                c.buf.append(buf, static_cast<std::size_t>(n));
                ++i;
                continue;
            }
            if (n < 0 && errno == EAGAIN) {
                ++i;
                continue;
            }
            // EOF (or hard read error): reap and classify.
            ::close(c.fd);
            int status = 0;
            sim::retryWaitpid(c.pid, &status, 0);
            WorkerResult result =
                classify(status, c, tasks[c.taskPos].nSlots);
            // A worker that completed its payload before the
            // escalation kill landed keeps its success; anything
            // else cut by the second signal reports the same
            // distinct cause as the queued points it joined.
            if (c.interrupted && !result.ok)
                result.cause = "interrupted";
            const std::size_t pos = c.taskPos;
            const unsigned attempt = c.attempt;
            inflight.erase(inflight.begin() +
                           static_cast<std::ptrdiff_t>(i));
            pfds.erase(pfds.begin() +
                       static_cast<std::ptrdiff_t>(i));
            if (result.ok) {
                if (cb.onSuccess)
                    cb.onSuccess(tasks[pos].index,
                                 std::move(result.slots),
                                 std::move(result.violations));
            } else {
                handleFailure(pos, attempt, result.cause);
            }
        }
    }

    std::sort(report.failures.begin(), report.failures.end(),
              [](const SupervisedFailure &a,
                 const SupervisedFailure &b) {
                  return a.index < b.index;
              });
    return report;
}

}  // namespace cxlsim::sweep
