/**
 * @file
 * ^C handling for `melody sweep`.
 *
 * The handler sets one sig_atomic_t flag and nothing else. The sweep
 * engine checks it (interruptRequested()) before each point it
 * claims: once set, claimed points return without running, the
 * remaining indices drain, and the run reports
 * Sweep::Report::interrupted without rendering. Every point that
 * finished before the signal is already in the run cache, so
 * rerunning the same command continues the run.
 *
 * The handler is installed with SA_RESTART, so interrupted file I/O
 * restarts instead of failing with EINTR, and SA_RESETHAND, so a
 * second ^C takes the default action and kills the process at once.
 * That is safe: the run cache writes each entry through a temp file
 * + rename, so a kill never leaves a torn entry behind.
 */

#ifndef CXLSIM_SIM_INTERRUPT_HH
#define CXLSIM_SIM_INTERRUPT_HH

namespace cxlsim::sim {

/** Install the one-shot SIGINT/SIGTERM flag handler. Idempotent. */
void installInterruptHandlers();

/** True once a SIGINT/SIGTERM arrived after installation. */
bool interruptRequested();

/**
 * Clear the flag and restore SIG_DFL for SIGINT/SIGTERM, so a
 * later signal behaves normally again (tests, run exit).
 */
void resetInterruptHandlers();

}  // namespace cxlsim::sim

#endif  // CXLSIM_SIM_INTERRUPT_HH
