#include "cache.hh"

#include <emmintrin.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace cxlsim::cpu {

static_assert(static_cast<unsigned>(StallTag::kDram) < 4,
              "a home tag takes two Meta bits");

namespace {

/**
 * The largest cache storage this thread has released, still mapped.
 * Every run builds and drops its own hierarchy, so without it each
 * run would fault in the pages of its LLC afresh; with it, a worker
 * thread faults them in once. Reuse is safe because nothing is read
 * from storage before a set's first probe writes it.
 */
struct SpareMapping
{
    void *p = nullptr;
    std::size_t bytes = 0;

    SpareMapping() = default;
    SpareMapping(const SpareMapping &) = delete;
    SpareMapping &operator=(const SpareMapping &) = delete;

    ~SpareMapping()
    {
        if (p)
            ::munmap(p, bytes);
    }
};

thread_local SpareMapping spare;

/** Bitmask of the 16 tags at @p t that equal @p tag. */
unsigned
matchLanes(const std::uint32_t *t, std::uint32_t tag)
{
    const __m128i k = _mm_set1_epi32(static_cast<int>(tag));
    const auto *p = reinterpret_cast<const __m128i *>(t);
    const __m128i a = _mm_cmpeq_epi32(_mm_loadu_si128(p), k);
    const __m128i b = _mm_cmpeq_epi32(_mm_loadu_si128(p + 1), k);
    const __m128i c = _mm_cmpeq_epi32(_mm_loadu_si128(p + 2), k);
    const __m128i d = _mm_cmpeq_epi32(_mm_loadu_si128(p + 3), k);
    // Saturating packs keep each lane's all-ones or zero, in order.
    const __m128i lanes = _mm_packs_epi16(_mm_packs_epi32(a, b),
                                          _mm_packs_epi32(c, d));
    return static_cast<unsigned>(_mm_movemask_epi8(lanes));
}

/** Bitmask of the 16 ranks at @p r that are at least @p floor. */
unsigned
ranksAtLeast(const std::uint8_t *r, std::uint8_t floor)
{
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i *>(r));
    const __m128i f = _mm_set1_epi8(static_cast<char>(floor));
    // Unsigned v >= f exactly where max(v, f) == v.
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(v, f), v)));
}

}  // namespace

Cache::Cache(std::uint64_t size_bytes, unsigned ways)
    : sets_(size_bytes / (kCacheLineBytes * ways)), ways_(ways),
      rankStride_((ways + kRankBlock - 1) / kRankBlock * kRankBlock),
      rowBytes_((ways * (sizeof(Meta) + sizeof(std::uint32_t)) +
                 rankStride_ + 7) / 8 * 8),
      laneMask_(ways >= kLanes ? (1u << kLanes) - 1 : (1u << ways) - 1)
{
    SIM_ASSERT(sets_ >= 1, "cache too small");
    SIM_ASSERT(ways_ >= 1 && ways_ < kNoRank, "ways out of range");
    // A probe reads kLanes tags from the start of a set's tags; past
    // the last set's row, this padding keeps them inside the mapping.
    constexpr std::size_t kTailPad = kLanes * sizeof(std::uint32_t);
    const std::size_t rowsBytes = sets_ * rowBytes_ + kTailPad;
    const std::size_t bytes = rowsBytes + sets_;
    // One private anonymous mapping holds every row. Nothing in it
    // is written here but the cold marks: every set starts cold and
    // its first probe writes its row, so a run faults in only the
    // pages of the sets it reaches. The thread's spare mapping is
    // taken whenever it is large enough; a hierarchy builds its LLC
    // first, so that is the cache that takes it.
    void *p;
    std::size_t mapped = bytes;
    if (spare.bytes >= bytes) {
        p = std::exchange(spare.p, nullptr);
        mapped = std::exchange(spare.bytes, 0);
    } else {
        p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        SIM_ASSERT(p != MAP_FAILED, "cache allocation failed");
    }
    storage_ = {p, Recycler{mapped}};
    rows_ = static_cast<std::byte *>(p);
    cold_ = reinterpret_cast<std::uint8_t *>(rows_ + rowsBytes);
    std::memset(cold_, 1, sets_);
}

void
Cache::Recycler::operator()(void *p) const
{
    // The thread keeps the larger of this mapping and its spare.
    if (bytes < spare.bytes) {
        ::munmap(p, bytes);
        return;
    }
    if (spare.p)
        ::munmap(spare.p, spare.bytes);
    spare.p = p;
    spare.bytes = bytes;
}

int
Cache::findWay(std::size_t set, std::uint32_t tag, Addr line_addr) const
{
    if (cold_[set]) [[unlikely]]
        materialize(set);
    const std::uint32_t *t = tagsOf(set);
    if (tag != kWide && ways_ <= kLanes) [[likely]] {
        // A valid tag sits in at most one way; the lanes past ways_
        // read the next row or the tail padding and are masked off.
        const unsigned hit = matchLanes(t, tag) & laneMask_;
        return hit ? std::countr_zero(hit) : -1;
    }
    // Tags cannot tell wide lines apart; their addresses can.
    const std::size_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w)
        if (t[w] == tag &&
            (tag != kWide || wide_.at(base + w) == line_addr))
            return static_cast<int>(w);
    return -1;
}

void
Cache::touch(std::size_t set, unsigned w)
{
    // Every valid way more recent than w ages by one; empty ways
    // and the row's padding hold kNoRank, above any rank, and stay
    // put. Whole blocks, so the compiler can age a block at once.
    const unsigned stride = rankStride_;
    std::uint8_t *r = ranksOf(set);
    const std::uint8_t old = r[w];
    if (old != 0) {
        for (std::uint8_t *blk = r; blk != r + stride; blk += kRankBlock)
            for (unsigned x = 0; x < kRankBlock; ++x)
                blk[x] += blk[x] < old;
        r[w] = 0;
    }
}

LookupResult
Cache::lookup(Addr line_addr, Tick now, Tick *ready_at, StallTag *home)
{
    std::uint32_t tag;
    const std::size_t set = locate(line_addr, &tag);
    const int w = findWay(set, tag, line_addr);
    if (w < 0) {
        ++misses_;
        return LookupResult::kMiss;
    }
    touch(set, static_cast<unsigned>(w));
    const Meta m = metaOf(set)[w];
    if (readyOf(m) > now) {
        ++pendingHits_;
        if (ready_at)
            *ready_at = readyOf(m);
        if (home)
            *home = homeOf(m);
        return LookupResult::kPending;
    }
    ++hits_;
    return LookupResult::kHit;
}

bool
Cache::contains(Addr line_addr) const
{
    std::uint32_t tag;
    const std::size_t set = locate(line_addr, &tag);
    return findWay(set, tag, line_addr) >= 0;
}

Eviction
Cache::insert(Addr line_addr, Tick ready_at, StallTag home, bool dirty)
{
    SIM_ASSERT(ready_at < Tick{1} << (64 - kReadyShift),
               "readyAt overflows its Meta bits");
    inserted_ = true;
    Eviction ev;
    std::uint32_t tag;
    const std::size_t set = locate(line_addr, &tag);
    Meta *meta = metaOf(set);

    if (const int w = findWay(set, tag, line_addr); w >= 0) {
        // Refill of a present line: refresh fill state.
        meta[w] = packMeta(ready_at, home, dirtyOf(meta[w]) || dirty);
        touch(set, static_cast<unsigned>(w));
        return ev;
    }

    // Plain LRU (pending fills are treated like any other line: a
    // squashed in-flight prefetch). The valid ranks are 0..n-1, so
    // with an empty way (kNoRank) none reaches ways_ - 1: the first
    // way at or above it is the first empty way, else the LRU way.
    // Some way qualifies, so the padding (kNoRank) is never picked.
    const std::uint8_t *r = ranksOf(set);
    const auto lru = static_cast<std::uint8_t>(ways_ - 1);
    unsigned victim = 0;
    unsigned atLeast;
    while ((atLeast = ranksAtLeast(r + victim, lru)) == 0)
        victim += kRankBlock;
    victim += static_cast<unsigned>(std::countr_zero(atLeast));

    std::uint32_t *t = tagsOf(set);
    const std::size_t i = set * ways_ + victim;
    if (t[victim] == kWide) {
        ev = {true, dirtyOf(meta[victim]), wide_.at(i)};
        wide_.erase(i);
    } else if (t[victim] != kEmpty) {
        ev = {true, dirtyOf(meta[victim]),
              ((t[victim] - 1) * sets_ + set) * kCacheLineBytes};
    }
    t[victim] = tag;
    if (tag == kWide)
        wide_[i] = line_addr;
    meta[victim] = packMeta(ready_at, home, dirty);
    touch(set, victim);
    return ev;
}

void
Cache::fill(std::span<const LineRange> ranges, StallTag home)
{
    // No insert(), no lookup() (misses_: a fresh cache holds nothing
    // to hit) and no non-empty fill() yet: every way is empty.
    SIM_ASSERT(!inserted_ && misses_ == 0 && fills_.empty(),
               "fill() needs a fresh cache");
    std::vector<LineRange> byBase;
    byBase.reserve(ranges.size());
    for (const LineRange &r : ranges) {
        SIM_ASSERT(lineAlign(r.base) == r.base, "unaligned fill range");
        if (r.lines > 0)
            byBase.push_back(r);
    }
    std::sort(byBase.begin(), byBase.end(),
              [](const LineRange &a, const LineRange &b) {
                  return a.base < b.base;
              });
    for (std::size_t i = 1; i < byBase.size(); ++i)
        SIM_ASSERT(byBase[i - 1].base +
                           byBase[i - 1].lines * kCacheLineBytes <=
                       byBase[i].base,
                   "fill ranges overlap");

    for (const LineRange &r : ranges) {
        if (r.lines == 0)
            continue;
        const std::uint64_t first = r.base / kCacheLineBytes;
        fills_.push_back({first % sets_, first / sets_, r.lines});
    }
    fillHome_ = home;
    // contains() may have written empty sets already.
    std::memset(cold_, 1, sets_);
}

void
Cache::materialize(std::size_t set) const
{
    // Line i of a fill range lands in set (firstSet + i) % sets_, so
    // the range's lines in this set are i0, i0 + sets_, ..., and
    // line i0 has quotient firstHigh, or one more if it wrapped.
    const auto firstInSet = [&](const FillRange &r) {
        return set >= r.firstSet ? set - r.firstSet
                                 : set + sets_ - r.firstSet;
    };
    const auto countInSet = [&](const FillRange &r, std::uint64_t i0) {
        return r.lines > i0 ? (r.lines - 1 - i0) / sets_ + 1 : 0;
    };
    std::uint64_t total = 0;
    for (const FillRange &r : fills_)
        total += countInSet(r, firstInSet(r));

    std::uint32_t *tags = tagsOf(set);
    std::uint8_t *rank = ranksOf(set);
    Meta *meta = metaOf(set);
    std::fill_n(tags, ways_, kEmpty);
    std::fill_n(rank, rankStride_, kNoRank);
    // The set filled FIFO: its j-th line went to way j % ways_ with
    // rank total - 1 - j, and only the last ways_ lines survive.
    const std::uint64_t evicted = total > ways_ ? total - ways_ : 0;
    const Meta resident = packMeta(0, fillHome_, false);
    const std::size_t base = set * ways_;
    std::uint64_t j = 0;
    for (const FillRange &r : fills_) {
        const std::uint64_t i0 = firstInSet(r);
        const std::uint64_t n = countInSet(r, i0);
        const std::uint64_t k0 = evicted > j ? evicted - j : 0;
        std::uint64_t w = (j + k0) % ways_;
        // Successive lines of one set differ by sets_, their tags by 1.
        std::uint64_t high =
            r.firstHigh + (set < r.firstSet ? 1 : 0) + k0;
        for (std::uint64_t k = k0; k < n; ++k, ++high) {
            if (high < kWide - 1) {
                tags[w] = static_cast<std::uint32_t>(high + 1);
            } else {
                tags[w] = kWide;
                wide_[base + w] = (high * sets_ + set) * kCacheLineBytes;
            }
            rank[w] = static_cast<std::uint8_t>(total - 1 - (j + k));
            meta[w] = resident;
            w = w + 1 == ways_ ? 0 : w + 1;
        }
        j += n;
    }
    cold_[set] = 0;
}

void
Cache::markDirty(Addr line_addr)
{
    std::uint32_t tag;
    const std::size_t set = locate(line_addr, &tag);
    if (const int w = findWay(set, tag, line_addr); w >= 0)
        metaOf(set)[w] |= 1;
}

void
Cache::invalidate(Addr line_addr)
{
    std::uint32_t tag;
    const std::size_t set = locate(line_addr, &tag);
    const int w = findWay(set, tag, line_addr);
    if (w < 0)
        return;
    // Close the gap: the valid ways older than w move up one, so the
    // valid ranks stay 0..n-1.
    std::uint8_t *r = ranksOf(set);
    const std::uint8_t old = r[w];
    for (unsigned x = 0; x < ways_; ++x)
        r[x] -= r[x] > old && r[x] != kNoRank;
    r[w] = kNoRank;
    std::uint32_t *t = tagsOf(set);
    if (t[w] == kWide)
        wide_.erase(set * ways_ + static_cast<unsigned>(w));
    t[w] = kEmpty;
}

}  // namespace cxlsim::cpu
