/**
 * @file
 * Crash-isolated execution of sweep points (DESIGN.md §10).
 *
 * The plain sweep engine runs every point in-process on the
 * parallelFor pool: one segfault, abort, or hang anywhere in a
 * multi-hundred-point figure suite kills the whole run with
 * nothing to show. runSupervised() instead forks one worker
 * subprocess per point (up to `jobs` in flight at once) and keeps
 * the supervisor itself single-threaded and allocation-light:
 *
 *  - each worker computes exactly one point, streams its encoded
 *    slots back over a pipe, and _exit()s — it never touches the
 *    parent's stdio buffers or the worker pool;
 *  - the supervisor enforces a per-point wall-clock watchdog
 *    (SIGKILL on expiry) and converts SIGSEGV/SIGABRT/any signal,
 *    nonzero exits, torn payloads, watchdog timeouts and
 *    in-worker exceptions into *structured per-point failures*;
 *  - every failure is retried up to a bounded attempt budget;
 *    points that exhaust it are reported, not fatal — surviving
 *    points render normally and the caller renders deterministic
 *    placeholders for the dead ones.
 *
 * Fault-free supervised runs produce byte-identical output to the
 * in-process engine for any job count: workers fill the same
 * per-point slot storage, and ordering is restored at render time
 * exactly as for the thread pool (tests/test_supervisor.cc holds
 * this for real figures).
 *
 * The watchdog uses std::chrono::steady_clock — a monotonic
 * duration source, not wall-calendar time — and none of it ever
 * influences simulated results: timing only decides *whether* a
 * worker is declared hung, and a hung worker yields a
 * deterministic placeholder, never data.
 *
 * Graceful interruption: when sim::installInterruptHandlers()
 * (src/sim/interrupt.hh) is active — the `melody sweep --isolate`
 * CLI installs it — a SIGINT/SIGTERM stops the supervisor from
 * dispatching further points. In-flight workers are still reaped
 * and their results honoured; every not-yet-started point fails
 * with the distinct cause "interrupted" (reported in the failure
 * table like any other cause), and retries of already-failed
 * points are refused. A second signal escalates:
 * in-flight workers are SIGKILLed and classify as "interrupted"
 * too — so a hung point cannot pin the wind-down forever even
 * without a watchdog. The parent never dies mid-write: run-cache
 * stores stay whole and the failure table still prints.
 */

#ifndef CXLSIM_SIM_SUPERVISOR_HH
#define CXLSIM_SIM_SUPERVISOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/invariants.hh"

namespace cxlsim::sweep {

class Emit;

/**
 * Human-readable name of a worker's terminating signal
 * ("SIGSEGV", "SIGABRT", ..., "signal N") — the structured-cause
 * vocabulary of the supervisor's failure reports.
 */
std::string signalName(int sig);

/** One point handed to the supervisor. */
struct SupervisorTask
{
    /** Caller's identifier (point index), echoed in callbacks. */
    std::size_t index = 0;
    /** Scoped point key (diagnostics only). */
    std::string key;
    /** Number of output slots the closure fills. */
    std::size_t nSlots = 1;
    /** The point closure; runs in the forked worker. */
    const std::function<void(Emit *)> *fn = nullptr;
};

/** Supervision knobs. */
struct SupervisorConfig
{
    /** Max concurrent workers; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Attempts per point before it is declared failed (>= 1). */
    unsigned maxAttempts = 2;
    /** Per-attempt wall-clock watchdog in ms; 0 disables it. */
    unsigned timeoutMs = 0;
    /** Run each worker under an Invariants collector and ship
     *  violations back with the result. */
    bool checkInvariants = false;
};

/** A point that exhausted its attempt budget. */
struct SupervisedFailure
{
    std::size_t index = 0;
    unsigned attempts = 0;
    /** Structured exit cause: "SIGSEGV", "SIGABRT", "signal N",
     *  "exit-code N", "watchdog-timeout", "exception: ...",
     *  "protocol-error". */
    std::string cause;
};

/** Aggregate outcome of one supervised run. */
struct SupervisorReport
{
    /** Worker processes forked (successes + every retry). */
    std::uint64_t launched = 0;
    /** Attempts beyond each point's first. */
    std::uint64_t retries = 0;
    /** Exhausted points, sorted by task index. */
    std::vector<SupervisedFailure> failures;
};

/** Lifecycle callbacks (all optional; invoked on the supervisor
 *  thread, in completion order). */
struct SupervisorCallbacks
{
    /** Slots arrive decoded; violations only when checkInvariants. */
    std::function<void(std::size_t index,
                       std::vector<std::string> slots,
                       std::vector<sim::InvariantViolation>
                           violations)>
        onSuccess;
    /** @p final is true when the attempt budget is exhausted. */
    std::function<void(std::size_t index, unsigned attempt,
                       const std::string &cause, bool final)>
        onFailure;
};

/**
 * Run @p tasks under supervision (see file comment). Blocks until
 * every task has succeeded or exhausted its attempts.
 */
SupervisorReport runSupervised(const std::vector<SupervisorTask> &tasks,
                               const SupervisorConfig &cfg,
                               const SupervisorCallbacks &cb);

}  // namespace cxlsim::sweep

#endif  // CXLSIM_SIM_SUPERVISOR_HH
