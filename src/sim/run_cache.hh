/**
 * @file
 * Content-addressed run cache for deterministic sweep points.
 *
 * Every simulation run in this codebase is a pure function of its
 * configuration (platform profile, workload/config struct, seed)
 * plus the simulator code itself. The sweep engine therefore keys
 * each point's formatted output rows by
 *
 *     fnv1a64(salt | sweep-scope | point key)
 *
 * and persists them under one file per point
 * (`<dir>/<hash>.rcache`). Re-running a figure after an unrelated
 * edit skips unchanged points entirely; outputs re-emitted from
 * the cache are byte-identical to a live run because the payload
 * *is* the emitted bytes (stats::encodeRows framing).
 *
 * The salt is the invalidation knob: it names the simulator
 * behaviour version (see sweep::kSweepSalt) and must be bumped in
 * any PR that intentionally changes simulation results, which
 * orphans every prior entry at once. Entries are verified on read
 * (magic, salt, full key echo, payload checksum, structural
 * decode); any mismatch — including a hash collision or a
 * truncated write — counts as corrupt and falls back to
 * recomputation, never to wrong output. Writes go through a
 * temp-file + rename so a crashed run cannot leave a torn entry
 * behind.
 *
 * Multi-process concurrency: the cache directory is shared by
 * parallel sweeps and supervised workers at once, and
 * `melody cache clear` may race all of them. Three guarantees make
 * that safe:
 *
 *  - temp names embed the writer's pid, so two processes storing
 *    the same key never clobber each other's half-written temp;
 *  - writers hold a *shared* advisory flock on
 *    `<dir>/.melody-cache.lock` across the write + rename pair,
 *    and clearDir() takes it *exclusive* — so a clear can never
 *    interleave between a temp write and its rename (which would
 *    either delete the half-written temp out from under the
 *    writer or strand the temp forever);
 *  - readers take no lock at all: entries appear atomically via
 *    rename and are self-verifying, so the worst a concurrent
 *    clear can inflict on a reader is a clean miss.
 */

#ifndef CXLSIM_SIM_RUN_CACHE_HH
#define CXLSIM_SIM_RUN_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cxlsim::sweep {

/** One directory of cached sweep-point results. */
class RunCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        /** Entries present but failing verification (recomputed). */
        std::uint64_t corrupt = 0;
        /** Failed writes (unwritable dir etc.; never fatal). */
        std::uint64_t storeFailures = 0;
        /** Stores skipped after degrading to read-only mode. */
        std::uint64_t storesSuppressed = 0;
    };

    /**
     * @param dir  Cache directory; created lazily on first store.
     * @param salt Invalidation salt mixed into every key.
     */
    RunCache(std::string dir, std::string salt);
    ~RunCache();

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /**
     * Look up @p key; on hit, fill @p rows (exactly
     * @p expectRows of them) and return true. Structurally
     * invalid or mismatching entries count as corrupt misses.
     */
    bool lookup(const std::string &key, std::size_t expectRows,
                std::vector<std::string> *rows);

    /** Persist @p rows under @p key (best effort, atomic). */
    void store(const std::string &key,
               const std::vector<std::string> &rows);

    const Stats &stats() const { return stats_; }
    const std::string &dir() const { return dir_; }

    /**
     * True once persistent store failure (ENOSPC, unwritable dir,
     * …) has flipped this cache to read-only pass-through: lookups
     * still serve hits, stores short-circuit without touching the
     * filesystem. A later successful store never happens (stores
     * stop being attempted), so degradation lasts for the rest of
     * the run — matching the one-shot SIM_WARN it emits.
     */
    bool degraded() const { return degraded_; }

    /** Summary of one cache directory (`melody cache stats`). */
    struct DirStats
    {
        /** Well-formed entries (magic + salt header parse). */
        std::uint64_t entries = 0;
        /** Their total size in bytes. */
        std::uint64_t bytes = 0;
        /** Other files in the directory (torn temps, foreign). */
        std::uint64_t foreign = 0;
        /** Entry count per salt — stale generations show up as
         *  extra keys here (ordered map: deterministic listing). */
        std::map<std::string, std::uint64_t> perSalt;
    };

    /**
     * Inspect @p dir without touching any entry. A missing
     * directory yields all-zero stats (not an error).
     */
    static DirStats scanDir(const std::string &dir);

    /**
     * Delete every cache entry (and stray `.tmp`) under @p dir,
     * leaving the directory itself, the advisory lock file and
     * foreign files alone. Takes the directory's advisory lock
     * exclusively first, so a clear racing live writers (a cold
     * sweep, supervised workers) can never delete a half-written temp
     * or interleave with a write+rename pair; it simply waits for
     * the brief shared holds to drain.
     * @return number of files removed.
     */
    static std::uint64_t clearDir(const std::string &dir);

  private:
    std::string pathFor(const std::string &key) const;
    /** Lazily open the advisory lock file; -1 if impossible. */
    int lockFd();

    std::string dir_;
    std::string salt_;
    Stats stats_;
    bool warnedStoreFailure_ = false;
    bool degraded_ = false;
    /** Consecutive store failures; 3 trips read-only mode. */
    unsigned storeFailStreak_ = 0;
    int lockFd_ = -1;
    bool lockTried_ = false;
};

}  // namespace cxlsim::sweep

#endif  // CXLSIM_SIM_RUN_CACHE_HH
