/**
 * @file
 * Deterministic host-I/O fault injector (DESIGN.md §15).
 *
 * The RAS subsystem injects *device* faults; this layer injects the
 * failures the host OS itself serves up — ENOSPC on write, EMFILE
 * on open, short reads, failed renames — so every degradation path
 * of the run cache (read-only fallback, clean recomputable misses)
 * can be exercised deterministically in tests and CI instead of
 * waiting for a full disk in production.
 *
 * A FaultPlan-style spec selects what to inject:
 *
 *     MELODY_IO_FAULTS="seed=7 write:enospc@0.01 read:short@0.05
 *                       open:emfile@#3 rename:eio@#2+"
 *
 * (or the global CLI flag `--io-faults`). Whitespace-separated
 * items; `seed=<n>` seeds the decision stream, every other item is
 * `<op>:<fault>@<trigger>`:
 *
 *   op      open read write close rename
 *           — each names the blessed FILE* or path helper family it
 *           fires in (below), not one libc symbol.
 *   fault   an errno name (enospc, emfile, enfile, eio, eagain,
 *           enomem, epipe) or `short`
 *           (read/write only: truncate instead of failing).
 *   trigger @p      independently with probability p per call
 *           @#N     exactly the Nth call of that op (1-based)
 *           @#N+    every call from the Nth on (persistent fault)
 *
 * Determinism: each op keeps a per-process call counter, and a
 * probability trigger is a pure hash of (seed, op, call#, rule#) —
 * the same seed always fails the same call indices, so a failing
 * run replays byte-for-byte (single-job runs; with parallel jobs
 * the failing *set* per op is fixed but thread interleaving decides
 * which consumer absorbs each one).
 *
 * Zero overhead when disabled: every hook is one relaxed atomic
 * bool load. The plan installs once, from the environment at
 * process start or from install(); with MELODY_IO_FAULTS unset and
 * no --io-faults, no call site behaves differently in any way.
 */

#ifndef CXLSIM_SIM_IO_FAULT_HH
#define CXLSIM_SIM_IO_FAULT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cxlsim::sim::iofault {

/** Injection points, each covering one wrapper family. */
enum class Op : unsigned
{
    kOpen,    // xfopen / xopen
    kRead,    // xfread
    kWrite,   // xfwrite
    kClose,   // xfclose
    kRename,  // xrename
    kOpCount
};

/** Outcome of one injection check. */
struct Decision
{
    /** errno to inject; 0 = no errno fault. */
    int err = 0;
    /** Truncate the transfer instead of failing it. */
    bool shortIo = false;

    explicit operator bool() const { return err != 0 || shortIo; }
};

namespace detail {

/** True while a plan is installed. The one word every disabled-
 *  path check touches. */
extern std::atomic<bool> g_active;

/** Slow path: bump the op counter, match rules, log a hit. */
Decision inject(Op op);

}  // namespace detail

/** Fast-path gate: one relaxed load, false when no plan is set. */
inline bool
enabled()
{
    return detail::g_active.load(std::memory_order_relaxed);
}

/** Injection check for @p op; no-fault (and no counter bump) when
 *  disabled. */
inline Decision
check(Op op)
{
    if (!enabled())
        return {};
    return detail::inject(op);
}

/**
 * Parse @p spec and arm the injector (replacing any active plan).
 * Throws ConfigError on malformed specs. An empty spec disarms,
 * like reset().
 */
void install(const std::string &spec);

/** Disarm and clear counters + the injected-failure log (tests). */
void reset();

/** The active plan's spec text; empty when disarmed. */
std::string activeSpec();

/** Total faults injected since install/reset. */
std::uint64_t injectedCount();

/**
 * The injected-failure log: one "io-fault: <op> call#<n> ->
 * <FAULT>" line per injection, in injection order, capped at 4096
 * lines (see droppedLogLines()). Same seed + same serial call
 * sequence => same log, byte for byte — the replay artifact CI
 * compares.
 */
std::vector<std::string> logLines();

/** Log lines discarded beyond the cap. */
std::uint64_t droppedLogLines();

/** "ENOSPC"-style name for an injectable errno (any errno value is
 *  accepted; unknown ones format as "errno N"). */
std::string errnoName(int err);

// ----------------------------------------------------------------
// Blessed FILE*/path helpers for the persistence layer (the run
// cache). Byte-compatible with the libc calls when injection is
// disabled; under injection they fail with the injected errno — or
// genuinely truncate, for `short` — without leaking the resources
// they manage.
// ----------------------------------------------------------------

/** fopen(3); injected kOpen faults return nullptr with errno set. */
std::FILE *xfopen(const char *path, const char *mode);

/** fread(3); an injected `read:short` returns 0 (reads nothing),
 *  so size-checked readers see truncation. errno faults also
 *  return 0 with the stream untouched. */
std::size_t xfread(void *p, std::size_t size, std::size_t n,
                   std::FILE *f);

/** fwrite(3); `write:short` genuinely writes only half the
 *  elements (torn-output paths must see real torn bytes), errno
 *  faults write nothing and return 0 with errno set. */
std::size_t xfwrite(const void *p, std::size_t size, std::size_t n,
                    std::FILE *f);

/**
 * fclose(3). ALWAYS really closes the stream — leaking the fd
 * would turn injected failures into genuine fd exhaustion — but
 * reports the injected error, modeling close-time writeback
 * failure.
 */
int xfclose(std::FILE *f);

/** open(2) for lock files etc.; injected kOpen faults return -1. */
int xopen(const char *path, int flags, unsigned mode);

/** rename(2); injected kRename faults fail without renaming. */
int xrename(const char *from, const char *to);

}  // namespace cxlsim::sim::iofault

#endif  // CXLSIM_SIM_IO_FAULT_HH
