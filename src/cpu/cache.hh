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
 * simulated line plus one per set. Each set is one row of one
 * anonymous mapping: its ways' fill state (readyAt, home and dirty
 * packed in an 8-byte word, read only after a tag match), then its
 * 4-byte set-relative tags (line / sets + 1, so 0 is an empty way),
 * then its 1-byte LRU ranks (0 = most recent). A probe compares 16
 * tags at once and masks off the lanes past the set's ways, so it
 * reads one place and takes no branch per way; the mapping ends in
 * 64 bytes of padding so the last set's lanes stay inside it. The
 * victim of a miss is picked by one 16-lane compare of the ranks. A
 * line whose tag does not fit in 32 bits gets the reserved tag kWide
 * and keeps its full address in a small side table; only a probe for
 * a wide line, or of a set of more than 16 ways, scans the tags one
 * way at a time.
 *
 * A dropped cache leaves its mapping to its thread for the next
 * cache that fits in it, so a worker faults its LLC's pages in once
 * rather than every run.
 *
 * Every set starts cold, marked by a per-set byte after the rows,
 * and its first probe writes its row. fill() only records its line
 * ranges; that first write computes the set's warmed state from the
 * ranges alone, so the state never depends on which sets a run
 * touches first, and the pages of sets no access reaches are never
 * faulted in.
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
     * @param ways       Associativity, at most 254: the rank of an
     *                   empty way, 255, stays above every way index.
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
    /** Tags one probe compares at once: 64 bytes. */
    static constexpr unsigned kLanes = 16;

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

    /** Row @p set: ways_ Meta words, then ways_ tags (kEmpty, kWide
     *  or high + 1), then rankStride_ LRU ranks (a permutation of
     *  0..n-1 over the set's n valid ways, kNoRank on its empty ways
     *  and padding). Unwritten until the set's first probe. */
    std::byte *row(std::size_t set) const { return rows_ + set * rowBytes_; }
    Meta *metaOf(std::size_t set) const
    {
        return reinterpret_cast<Meta *>(row(set));
    }
    std::uint32_t *tagsOf(std::size_t set) const
    {
        return reinterpret_cast<std::uint32_t *>(row(set) +
                                                 ways_ * sizeof(Meta));
    }
    std::uint8_t *ranksOf(std::size_t set) const
    {
        return reinterpret_cast<std::uint8_t *>(
            row(set) + ways_ * (sizeof(Meta) + sizeof(std::uint32_t)));
    }

    /** A recorded fill() range: lines first, first + 1, ...; its
     *  first line lies in set firstSet, with quotient firstHigh. */
    struct FillRange
    {
        std::uint64_t firstSet;
        std::uint64_t firstHigh;
        std::uint64_t lines;
    };

    /**
     * Way holding @p line_addr (tag @p tag) in @p set, or -1.
     * Writes a cold set first.
     */
    int findWay(std::size_t set, std::uint32_t tag, Addr line_addr) const;

    /** Make way @p w of @p set the most recently used. */
    void touch(std::size_t set, unsigned w);

    /**
     * Write the state of cold @p set: empty, then the last ways_ of
     * its fill lines, FIFO. O(fills_.size() + ways_).
     */
    void materialize(std::size_t set) const;

    /** Releases the anonymous mapping that holds every row: it
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
    /** Bytes of a row, rounded up to 8 so every Meta is aligned. */
    std::size_t rowBytes_;
    /** The low ways_ bits: the lanes of a probe that hold tags. */
    unsigned laneMask_;
    std::unique_ptr<void, Recycler> storage_;
    /** sets_ rows in storage_, then 64 bytes a probe may read past
     *  the last set's tags (a const contains() may write a row). */
    std::byte *rows_;
    /** Per set: nonzero until its first probe writes its row. */
    std::uint8_t *cold_;
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
