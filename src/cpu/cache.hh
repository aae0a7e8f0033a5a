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
 * Storage is sized for the host machine's caches: 13 bytes per
 * simulated line plus one per set. The probe path scans a 64-byte
 * aligned array of 4-byte set-relative tags (line / sets + 1, so 0
 * is an empty way and a 16-way set is one host cacheline), with an
 * MRU-way first probe. A line whose tag does not fit in 32 bits gets
 * the reserved tag kWide and keeps its full address in a small side
 * table, read only when the probed line is itself that wide. LRU
 * order is a 1-byte rank per way (0 = most recent), and readyAt,
 * home and dirty pack into one 8-byte word read only after a tag
 * match.
 *
 * The arrays share one anonymous mapping, which a dropped cache
 * leaves to its thread for the next cache that fits in it, so a
 * worker faults its LLC's pages in once rather than every run.
 *
 * Every set starts cold, marked by a reserved MRU byte, and its
 * first probe writes it. fill() only records its line ranges; that
 * first write computes the set's warmed state from the ranges alone,
 * so the state never depends on which sets a run touches first, and
 * the pages of sets no access reaches are never faulted in.
 */

#ifndef CXLSIM_CPU_CACHE_HH
#define CXLSIM_CPU_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
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
     * distinct lines every set fills FIFO, so a set's j-th of total
     * lines lands in way j % ways with LRU rank total - 1 - j, and
     * only the last ways lines of each set survive. The
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
    /** Tag of an empty way; a line's tag is line / sets + 1 >= 1. */
    static constexpr std::uint32_t kEmpty = 0;
    /** Tag of a line whose tag does not fit below it; see wide_. */
    static constexpr std::uint32_t kWide = 0xffffffff;
    /** Rank of an empty way: above every valid rank (< ways). */
    static constexpr std::uint8_t kNoRank = 255;
    /** Ranks of a set are padded to whole blocks of this many. */
    static constexpr unsigned kRankBlock = 16;
    /** mru_ value of a set not written yet. */
    static constexpr unsigned kCold = 255;

    /** Per-line fill state: readyAt << 3 | home << 1 | dirty. */
    using Meta = std::uint64_t;
    static constexpr unsigned kReadyShift = 3;

    static Meta packMeta(Tick ready_at, StallTag home, bool dirty)
    {
        return ready_at << kReadyShift |
               static_cast<Meta>(home) << 1 | static_cast<Meta>(dirty);
    }
    static Tick readyOf(Meta m) { return m >> kReadyShift; }
    static StallTag homeOf(Meta m)
    {
        return static_cast<StallTag>(m >> 1 & 3);
    }
    static bool dirtyOf(Meta m) { return (m & 1) != 0; }

    /** Set of @p line_addr, and its tag there in @p tag. */
    std::size_t locate(Addr line_addr, std::uint32_t *tag) const
    {
        const std::uint64_t line = line_addr / kCacheLineBytes;
        const std::uint64_t high = line / sets_;
        *tag = high < kWide - 1 ? static_cast<std::uint32_t>(high + 1)
                                : kWide;
        return static_cast<std::size_t>(line - high * sets_);
    }

    /** A recorded fill() range: lines first, first + 1, ... */
    struct FillRange
    {
        std::uint64_t first;
        std::uint64_t lines;
    };

    /**
     * Way holding @p line_addr (tag @p tag) in @p set, or -1.
     * MRU-first probe; writes a cold set first.
     */
    int findWay(std::size_t set, std::uint32_t tag, Addr line_addr) const;

    /** Make way @p w of @p set the most recently used. */
    void touch(std::size_t set, unsigned w);

    /**
     * Write the state of cold @p set: empty, then the last ways_ of
     * its fill lines, FIFO. O(fills_.size() + ways_).
     */
    void materialize(std::size_t set) const;

    /** Releases the anonymous mapping that holds every array: it
     *  becomes the thread's spare, for the next cache it builds, or
     *  is unmapped. */
    struct Recycler
    {
        std::size_t bytes;
        void operator()(void *p) const;
    };

    std::uint64_t sets_;
    unsigned ways_;
    /** ways_ rounded up to whole kRankBlock blocks. */
    unsigned rankStride_;
    std::unique_ptr<void, Recycler> storage_;
    // The arrays below live in storage_, unwritten until a set's
    // first probe writes its slice (a const contains() may do so).
    /** sets_*ways_ tags, 64-byte aligned: kEmpty, kWide or high+1. */
    std::uint32_t *tags_;
    /** sets_*ways_ packed Meta words; read only after a tag match. */
    Meta *meta_;
    /** sets_*rankStride_ LRU ranks: a permutation of 0..n-1 over a
     *  set's n valid ways, kNoRank on its empty ways and padding. */
    std::uint8_t *ranks_;
    /** Per-set most-recently-hit way (probe hint), or kCold. */
    std::uint8_t *mru_;
    /** Full line address of every way whose tag is kWide, by
     *  set * ways_ + way. */
    mutable std::unordered_map<std::size_t, Addr> wide_;
    /** fill()'s non-empty ranges, in fill order, and their home. */
    std::vector<FillRange> fills_;
    StallTag fillHome_ = StallTag::kL3;
    /** Whether insert() has run (fill() needs a fresh cache). */
    bool inserted_ = false;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t pendingHits_ = 0;
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_CACHE_HH
