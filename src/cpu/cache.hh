/**
 * @file
 * Set-associative cache with pending-line (fill-in-progress)
 * semantics.
 *
 * A line is inserted the moment its fill request is issued, with a
 * readyTick in the future; until then the line is "pending" and a
 * hit on it is a *delayed hit* that must wait for arrival. Each
 * pending line carries a home StallTag — the level a demand load
 * waiting on it is charged to. This is the substrate for the
 * paper's prefetch-timeliness findings (§5.4): a demand load that
 * catches a pending L2-streamer line stalls on "L2" (or LLC on
 * SPR/EMR) even though the data is actually in flight from CXL.
 *
 * Storage layout is split for the host machine's benefit: the probe
 * path scans a compact one-word-per-way tag array (tag | valid bit
 * packed into a single 8-byte word, so a 16-way set is two host
 * cachelines instead of ten), with an MRU-way first probe; the cold
 * per-line metadata (readyAt, LRU stamp, home, dirty) lives in a
 * parallel array that is only touched after a tag match. The tag
 * array is calloc'd, so constructing a multi-hundred-MB LLC touches
 * no page of it.
 *
 * Warm-up is deferred: fill() only records its line ranges and marks
 * every set cold with a reserved MRU byte. The first probe of a cold
 * set writes that set's warmed state, computed from the ranges alone,
 * so the state never depends on which sets a run touches first, and
 * the pages of sets no access reaches are never faulted in.
 */

#ifndef CXLSIM_CPU_CACHE_HH
#define CXLSIM_CPU_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "cpu/counters.hh"
#include "sim/types.hh"

namespace cxlsim::cpu {

/** Result of a cache lookup. */
enum class LookupResult : std::uint8_t {
    kHit,       ///< Present and ready.
    kPending,   ///< Present but still filling; see readyAt.
    kMiss,      ///< Not present.
};

/** A victim evicted by insert(); valid==false when none. */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;
};

/** @p lines consecutive cache lines starting at line address @p base. */
struct LineRange
{
    Addr base = 0;
    std::uint64_t lines = 0;
};

/**
 * One cache level. Addresses are line-aligned; LRU replacement.
 * Pending lines are never chosen as victims while filling unless
 * the whole set is pending (then the oldest fill is dropped —
 * models a squashed prefetch).
 */
class Cache
{
  public:
    /**
     * @param size_bytes Capacity.
     * @param ways       Associativity, at most 254.
     */
    Cache(std::uint64_t size_bytes, unsigned ways);

    /**
     * Look up @p line_addr at time @p now. Updates LRU on hit.
     *
     * @param ready_at Out: arrival tick when kPending.
     * @param home     Out: stall attribution tag when kPending.
     */
    LookupResult lookup(Addr line_addr, Tick now, Tick *ready_at,
                        StallTag *home);

    /** True if the line is present (ready or pending). */
    bool contains(Addr line_addr) const;

    /**
     * Insert a line filling at @p ready_at with attribution
     * @p home; returns the eviction, if any.
     *
     * @param dirty Install in modified state (RFO fills).
     */
    Eviction insert(Addr line_addr, Tick ready_at, StallTag home,
                    bool dirty);

    /**
     * Install every line of @p ranges, in order, as resident (ready
     * at tick 0), clean and homed at @p home. The state is exactly
     * what insert() would leave line by line: on a fresh cache with
     * distinct lines every set fills FIFO, so a set's j-th line
     * lands in way j % ways with LRU stamp (global insert index +
     * 1), and only the last ways lines of each set survive. The
     * ranges are only recorded here; each set's survivors are
     * written on the first probe of that set. Requires a fresh cache
     * (no insert() or lookup() yet) and pairwise-disjoint,
     * line-aligned ranges.
     */
    void fill(std::span<const LineRange> ranges, StallTag home);

    /** Mark a present line dirty (store commit); no-op on miss. */
    void markDirty(Addr line_addr);

    /** Invalidate a line if present (used by tests). */
    void invalidate(Addr line_addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t pendingHits() const { return pendingHits_; }

    std::uint64_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    /**
     * Cold per-line state; read only after a tag match, so the
     * backing array is deliberately left uninitialized (trivial
     * type, written by insert() or materialize() before any read).
     */
    struct Meta
    {
        Tick readyAt;
        std::uint64_t lruStamp;
        StallTag home;
        bool dirty;
    };
    static_assert(std::is_trivial_v<Meta>,
                  "Meta must be trivial: its array is never "
                  "value-initialized");

    // Line addresses have the low log2(kCacheLineBytes) bits clear,
    // so bit 0 doubles as the valid flag and 0 means "empty way".
    static_assert(kCacheLineBytes >= 2, "need a spare low bit");

    static Addr tagWord(Addr line_addr) { return line_addr | 1; }

    std::size_t setIndex(Addr line_addr) const
    {
        return (line_addr / kCacheLineBytes) % sets_;
    }

    /** mru_ value of a set whose fill() state is not written yet. */
    static constexpr unsigned kCold = 255;

    /** A recorded fill() range: lines first.. and the stamp before. */
    struct FillRange
    {
        std::uint64_t first;
        std::uint64_t lines;
        std::uint64_t stampBefore;
    };

    /**
     * Way holding @p line_addr in @p set, or -1. MRU-first probe;
     * materializes a cold set first.
     */
    int findWay(std::size_t set, Addr line_addr) const;

    /**
     * Write the warmed state of cold @p set from fills_: the last
     * ways_ of its fill lines, FIFO. O(fills_.size() + ways_).
     */
    void materialize(std::size_t set) const;

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };

    std::uint64_t sets_;
    unsigned ways_;
    // Mutable: a const probe (contains()) may materialize a cold set.
    /** sets_*ways_ probe words: tagWord(addr) or 0 when invalid. */
    mutable std::unique_ptr<Addr[], FreeDeleter> tags_;
    /** sets_*ways_ cold entries, parallel to tags_. */
    mutable std::unique_ptr<Meta[], FreeDeleter> meta_;
    /** Per-set most-recently-hit way (probe hint), or kCold. */
    mutable std::unique_ptr<std::uint8_t[], FreeDeleter> mru_;
    std::uint64_t stamp_ = 0;
    /** fill()'s non-empty ranges, in fill order, and their home. */
    std::vector<FillRange> fills_;
    StallTag fillHome_ = StallTag::kL3;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t pendingHits_ = 0;
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_CACHE_HH
