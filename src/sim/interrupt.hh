/**
 * @file
 * Graceful-interrupt plumbing for the supervised sweep runner
 * (`melody sweep --isolate`).
 *
 * The supervisor is a single-threaded poll loop managing forked
 * worker subprocesses; it must turn SIGINT/SIGTERM into an orderly
 * wind-down (stop starting new work, reap what is in flight,
 * report) instead of dying mid-write. The classic shape is used
 * here:
 *
 *  - a volatile sig_atomic_t flag the handler sets, polled from
 *    the main loop (interruptRequested());
 *  - a self-pipe the handler writes one byte to, so a poll()
 *    blocked on worker pipes wakes immediately even through the
 *    EINTR-retrying wrappers (interruptWakeFd() goes into the poll
 *    set; drain it once the flag is observed, or a level-triggered
 *    POLLIN busy-spins the loop).
 *
 * The handlers are async-signal-safe (flag store + write(2)) and
 * idempotent to install. Deliveries are counted so loops can
 * escalate: the first signal requests a graceful wind-down, a
 * second one (interruptCount() >= 2) means the user is done
 * waiting and in-flight work should be killed. Forked workers must
 * restore SIG_DFL (see supervisor.cc) so a Ctrl-C against the
 * process group kills them cleanly rather than running the
 * parent's handler against an inherited pipe.
 */

#ifndef CXLSIM_SIM_INTERRUPT_HH
#define CXLSIM_SIM_INTERRUPT_HH

namespace cxlsim::sim {

/**
 * Install SIGINT/SIGTERM handlers that request a graceful stop
 * (no SA_RESTART: blocked syscalls return EINTR and the retry
 * wrappers re-enter poll with the wake fd readable). Idempotent.
 */
void installInterruptHandlers();

/** True once any SIGINT/SIGTERM arrived after installation. */
bool interruptRequested();

/**
 * Number of SIGINT/SIGTERM deliveries since installation (or the
 * last reset). Loops use this for escalation: the first signal
 * winds down gracefully, a second one means "stop waiting" and
 * kills in-flight workers too.
 */
int interruptCount();

/**
 * Read end of the self-pipe (POLLIN after a signal), or -1 when
 * handlers were never installed. Poll loops add it to their fd
 * set so a signal wakes them immediately.
 */
int interruptWakeFd();

/** Consume pending wake bytes (call once the flag is observed). */
void drainInterruptWake();

/**
 * Reset the flag and restore SIG_DFL for SIGINT/SIGTERM (the
 * self-pipe stays open for reinstallation). Test/run-exit
 * hygiene so a later real signal behaves normally again.
 */
void resetInterruptHandlers();

}  // namespace cxlsim::sim

#endif  // CXLSIM_SIM_INTERRUPT_HH
