/**
 * @file
 * Blessed EINTR-retrying wrappers for the handful of blocking
 * POSIX calls the supervised runner (src/sim/supervisor.cc) is
 * built on.
 *
 * The supervisor is a long-lived process with graceful-interrupt
 * signal handlers installed, so *every* read/write/poll/waitpid
 * can return EINTR at any moment. A missed retry is the classic
 * rare-flake bug: the call usually restarts fine under SA_RESTART,
 * until the one syscall the kernel never restarts (poll) or the
 * one handler installed without the flag turns a clean wind-down
 * into a torn payload. The melody-lint rule `srv-eintr-retry` therefore bans
 * raw calls in those paths; this header is the one blessed home
 * for the retry loops.
 *
 * The wrappers retry EINTR and nothing else: EAGAIN, EPIPE and
 * friends are real states the callers must observe (a vanished
 * reader, a nonblocking pipe), so they pass through with errno
 * intact. retryPollDeadline recomputes the remaining wall-clock
 * budget after every restart instead of making each caller
 * hand-roll that.
 *
 * These wrappers are also the host-I/O fault-injection points
 * (sim/io_fault.hh): with a plan armed, each call first consults
 * the injector and can fail with a deterministic errno or shorten
 * the transfer. Injected EINTR is consumed by the retry loops
 * themselves — it exercises the restart path without the caller
 * ever observing a failure. When no plan is armed the hook is one
 * relaxed atomic load. retryWaitpid is deliberately *not* an
 * injection point: a skipped reap would leak a real zombie, i.e.
 * the injection would create genuine state corruption instead of
 * simulating a failure.
 */

#ifndef CXLSIM_SIM_RETRY_IO_HH
#define CXLSIM_SIM_RETRY_IO_HH

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <string_view>

#include "sim/io_fault.hh"

namespace cxlsim::sim {

/** read(2), retrying EINTR; other errors pass through. An
 *  injected `read:short` halves the requested length — no data is
 *  lost, the caller's short-read loop just gets exercised. */
inline ssize_t
retryRead(int fd, void *buf, std::size_t n)
{
    for (;;) {
        if (iofault::enabled()) {
            const auto d = iofault::check(iofault::Op::kRead);
            if (d.err == EINTR)
                continue;
            if (d.err) {
                errno = d.err;
                return -1;
            }
            if (d.shortIo && n > 1)
                n = n / 2;
        }
        const ssize_t r = ::read(fd, buf, n);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/** write(2), retrying EINTR; other errors pass through. An
 *  injected `write:short` writes at most half the buffer — the
 *  bytes it does write are real, so retryWriteAll-style loops
 *  complete the transfer on later calls. */
inline ssize_t
retryWrite(int fd, const void *buf, std::size_t n)
{
    for (;;) {
        if (iofault::enabled()) {
            const auto d = iofault::check(iofault::Op::kWrite);
            if (d.err == EINTR)
                continue;
            if (d.err) {
                errno = d.err;
                return -1;
            }
            if (d.shortIo && n > 1)
                n = n / 2;
        }
        const ssize_t r = ::write(fd, buf, n);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/**
 * poll(2) against an absolute steady_clock deadline, retrying
 * EINTR with the *remaining* budget recomputed on every restart —
 * the hand-rolled budget arithmetic poll loops used to repeat.
 * Returns 0 once the deadline has passed (like a poll timeout). A
 * `time_point::max()` deadline means wait forever; any finite
 * deadline is still woken at least every 60 s so callers
 * re-evaluate watchdogs even if a timer was pushed far out after
 * this call was issued.
 */
inline int
retryPollDeadline(struct pollfd *fds, nfds_t n,
                  std::chrono::steady_clock::time_point deadline)
{
    using std::chrono::steady_clock;
    for (;;) {
        int timeoutMs = -1;
        bool expired = false;
        if (deadline != steady_clock::time_point::max()) {
            const auto now = steady_clock::now();
            if (now >= deadline) {
                // Deadline already passed: still poll once with a
                // zero timeout so ready fds are reported alongside
                // the timeout verdict — callers harvest I/O and
                // fire their watchdogs in the same turn.
                expired = true;
                timeoutMs = 0;
            } else {
                const auto ms = std::chrono::duration_cast<
                                    std::chrono::milliseconds>(
                                    deadline - now)
                                    .count();
                // +1: round up so we never wake a hair *before*
                // the deadline and spin; clamp so a far-future
                // deadline still re-checks within a bounded
                // interval.
                timeoutMs = static_cast<int>(
                    ms >= 60'000 ? 60'000 : ms + 1);
            }
        }
        if (iofault::enabled() &&
            iofault::check(iofault::Op::kPoll).err == EINTR)
            continue;
        const int r = ::poll(fds, n, timeoutMs);
        if (r > 0)
            return r;
        if (r < 0) {
            if (errno != EINTR)
                return r;
            continue;  // interrupted: recompute remaining budget
        }
        if (expired || timeoutMs < 0)
            return 0;
        // Bounded interval elapsed short of the deadline: recheck.
    }
}

/** waitpid(2), retrying EINTR; other errors pass through. Not an
 *  injection point — see the header comment. */
inline pid_t
retryWaitpid(pid_t pid, int *status, int flags)
{
    for (;;) {
        const pid_t r = ::waitpid(pid, status, flags);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

/** pipe2(2); fails with the injected errno (EMFILE/ENFILE model
 *  fd exhaustion) before touching the descriptor table. pipe2
 *  itself never returns EINTR. */
inline int
retryPipe2(int fds[2], int flags)
{
    if (iofault::enabled()) {
        const auto d = iofault::check(iofault::Op::kPipe);
        if (d.err) {
            errno = d.err;
            return -1;
        }
    }
    return ::pipe2(fds, flags);
}

/** fork(2); fails with the injected errno (EAGAIN/ENOMEM model
 *  pid/memory exhaustion) without creating a child. */
inline pid_t
retryFork()
{
    if (iofault::enabled()) {
        const auto d = iofault::check(iofault::Op::kFork);
        if (d.err) {
            errno = d.err;
            return -1;
        }
    }
    return ::fork();
}

/**
 * Write all of @p bytes to a blocking fd, riding out EINTR and
 * short writes. Returns false on any other error (e.g. EPIPE when
 * the reader vanished) with errno intact and the write abandoned.
 */
inline bool
retryWriteAll(int fd, std::string_view bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            retryWrite(fd, bytes.data() + off, bytes.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace cxlsim::sim

#endif  // CXLSIM_SIM_RETRY_IO_HH
