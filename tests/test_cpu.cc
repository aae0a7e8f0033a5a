/**
 * @file
 * Tests for the CPU model: caches with pending-line semantics,
 * prefetchers, and the core's Intel-style stall accounting — the
 * substrate Spa's correctness rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "cpu/hierarchy.hh"
#include "cpu/multicore.hh"
#include "cpu/prefetcher.hh"
#include "cpu/profile.hh"
#include "core/platform.hh"
#include "sim/rng.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;
using namespace cxlsim::cpu;

namespace {

/**
 * Runs @p body on a thread of its own whose spare cache mapping (the
 * storage a dropped Cache leaves to the next one its thread builds)
 * holds a fixed pattern first: the rows of a filled 163840-set,
 * 16-way cache, every way valid with tags 1..16, as large as any
 * cache these tests build. What a probe reads past a set's row or in
 * a cold row is then the same whichever tests ran before.
 */
void
onPatternedSpare(void (*body)())
{
    std::thread([body] {
        {
            Cache pattern(163840ULL * 16 * kCacheLineBytes, 16);
            const LineRange all[] = {{0, 16 * pattern.sets()}};
            pattern.fill(all, StallTag::kL3);
            for (std::uint64_t s = 0; s < pattern.sets(); ++s)
                pattern.contains(s * kCacheLineBytes);
        }
        body();
    }).join();
}

}  // namespace

/** TEST(Cache, name), with its body run by onPatternedSpare(). */
#define CACHE_TEST(name)                                                   \
    static void cacheTest##name();                                         \
    TEST(Cache, name) { onPatternedSpare(cacheTest##name); }               \
    static void cacheTest##name()

CACHE_TEST(HitMissBasics)
{
    Cache c(64 * 1024, 8);
    Tick ready;
    StallTag home;
    EXPECT_EQ(c.lookup(0, 0, &ready, &home), LookupResult::kMiss);
    c.insert(0, 0, StallTag::kDram, false);
    EXPECT_EQ(c.lookup(0, 10, &ready, &home), LookupResult::kHit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

CACHE_TEST(PendingUntilReady)
{
    Cache c(64 * 1024, 8);
    c.insert(64, nsToTicks(500), StallTag::kL2, false);
    Tick ready;
    StallTag home;
    EXPECT_EQ(c.lookup(64, nsToTicks(100), &ready, &home),
              LookupResult::kPending);
    EXPECT_EQ(ready, nsToTicks(500));
    EXPECT_EQ(home, StallTag::kL2);
    EXPECT_EQ(c.lookup(64, nsToTicks(600), &ready, &home),
              LookupResult::kHit);
    EXPECT_EQ(c.pendingHits(), 1u);
}

CACHE_TEST(LruEviction)
{
    // 2 ways, tiny cache: set count = 512 lines / ... use direct
    // geometry: 2 ways, 1 set = 128 bytes.
    Cache c(128, 2);
    ASSERT_EQ(c.sets(), 1u);
    c.insert(0 * 64, 0, StallTag::kDram, false);
    c.insert(1 * 64, 0, StallTag::kDram, false);
    Tick ready;
    StallTag home;
    // Touch line 0 so line 1 becomes LRU.
    c.lookup(0, 10, &ready, &home);
    const Eviction ev = c.insert(2 * 64, 0, StallTag::kDram, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 64u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(64));
}

CACHE_TEST(DirtyEvictionReported)
{
    Cache c(128, 2);
    c.insert(0, 0, StallTag::kDram, true);
    c.insert(64, 0, StallTag::kDram, false);
    const Eviction ev = c.insert(128, 0, StallTag::kDram, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0u);
}

CACHE_TEST(MarkDirtyAndReinsert)
{
    Cache c(64 * 1024, 8);
    c.insert(0, 0, StallTag::kDram, false);
    c.markDirty(0);
    const Eviction none = c.insert(0, 100, StallTag::kL2, false);
    EXPECT_FALSE(none.valid);  // refresh, not new insert
    c.invalidate(0);
    EXPECT_FALSE(c.contains(0));
}

namespace {

/** Reference preload: insert() every line of @p ranges, in order. */
void
insertLoop(Cache *c, std::span<const LineRange> ranges, StallTag home)
{
    for (const LineRange &r : ranges)
        for (std::uint64_t i = 0; i < r.lines; ++i)
            c->insert(r.base + i * kCacheLineBytes, 0, home, false);
}

/**
 * Expect @p got and @p want, two caches of one geometry, to hold the
 * same state. First every line of @p seen must give the same
 * contains() answer. Then both caches take one identical follow-on
 * sequence and must give identical outcomes: ways() fresh lines into
 * a sample of sets, which evicts each sampled set in its full LRU
 * order, then random lookups, clean inserts and dirty inserts over
 * seen and fresh lines. Every line either cache saw is checked with
 * contains() again at the end, and the hit/miss/pending counters
 * must match.
 */
void
expectSameState(Cache &got, Cache &want,
                 std::span<const LineRange> seen, std::uint64_t seed)
{
    ASSERT_EQ(got.sets(), want.sets());
    ASSERT_EQ(got.ways(), want.ways());
    const std::uint64_t sets = got.sets();
    const unsigned ways = got.ways();

    std::vector<Addr> lines;
    Addr top = 0;
    for (const LineRange &r : seen)
        for (std::uint64_t i = 0; i < r.lines; ++i) {
            lines.push_back(r.base + i * kCacheLineBytes);
            top = std::max(top, lines.back() + kCacheLineBytes);
        }
    for (const Addr a : lines)
        ASSERT_EQ(got.contains(a), want.contains(a)) << "line " << a;

    Rng rng(seed);
    Tick now = 1000;
    const auto insertBoth = [&](Addr a, bool dirty) {
        const Tick ready = now + rng.below(2000);
        const Eviction e = got.insert(a, ready, StallTag::kDram, dirty);
        const Eviction w =
            want.insert(a, ready, StallTag::kDram, dirty);
        EXPECT_EQ(e.valid, w.valid) << "insert " << a;
        EXPECT_EQ(e.dirty, w.dirty) << "insert " << a;
        EXPECT_EQ(e.lineAddr, w.lineAddr) << "insert " << a;
        lines.push_back(a);
    };

    // Fresh lines lie beyond every seen line, on a set-0 boundary.
    const std::uint64_t fresh =
        (top / kCacheLineBytes + sets) / sets * sets;
    const std::uint64_t sampled = std::min<std::uint64_t>(sets, 64);
    for (std::uint64_t k = 0; k < sampled; ++k) {
        const std::uint64_t set =
            sampled == sets ? k : rng.below(sets);
        for (unsigned j = 0; j < ways; ++j)
            insertBoth((fresh + j * sets + set) * kCacheLineBytes,
                       false);
    }

    const std::uint64_t span = fresh + ways * sets;
    for (int k = 0; k < 20000; ++k) {
        now += 100;
        const Addr a = rng.chance(0.5) && !lines.empty()
                           ? lines[rng.below(lines.size())]
                           : rng.below(span) * kCacheLineBytes;
        const std::uint64_t op = rng.below(3);
        if (op == 0) {
            Tick r1 = 0, r2 = 0;
            StallTag h1 = StallTag::kDram, h2 = StallTag::kDram;
            const LookupResult l1 = got.lookup(a, now, &r1, &h1);
            const LookupResult l2 = want.lookup(a, now, &r2, &h2);
            EXPECT_EQ(l1, l2) << "lookup " << a;
            if (l1 == LookupResult::kPending &&
                l2 == LookupResult::kPending) {
                EXPECT_EQ(r1, r2) << "lookup " << a;
                EXPECT_EQ(h1, h2) << "lookup " << a;
            }
        } else {
            insertBoth(a, op == 2);
        }
    }

    for (const Addr a : lines)
        ASSERT_EQ(got.contains(a), want.contains(a)) << "line " << a;
    EXPECT_EQ(got.hits(), want.hits());
    EXPECT_EQ(got.misses(), want.misses());
    EXPECT_EQ(got.pendingHits(), want.pendingHits());
}

struct Geometry
{
    const char *name;
    std::uint64_t bytes;
    unsigned ways;
    std::uint64_t sets;
};

const Geometry kFillGeometries[] = {
    {"EMR L2", 2048 * 1024, 16, 2048},
    // Non-power-of-two set count, odd way count.
    {"SKX L3", 13800ULL * 1024, 11, 20072},
    {"toy", 4 * 4 * kCacheLineBytes, 4, 4},
};

/** One fill() per case, ranges in core order. */
std::vector<std::vector<LineRange>>
fillCases(const Geometry &g)
{
    const std::uint64_t cap = g.sets * g.ways;
    const auto at = [](std::uint64_t line) {
        return line * kCacheLineBytes;
    };
    return {
        {{at(3), 0}},
        {{0, g.sets - 1}},
        {{0, cap}},
        {{at(5), cap * 7 / 2}},
        // Four disjoint ranges of mixed sizes sharing one cache;
        // core order is not address order. The first overflows
        // the cache, and the later three are too small to evict
        // all of it, so the survivors mix all four ranges.
        {{at(7), 2 * cap + 1},
         {at(10 * cap + 3), cap / 3 + 1},
         {at(20 * cap), 7},
         {at(4 * cap), g.sets + 5}},
        // Two one-line ranges: every set but 1 and 3 stays empty.
        {{at(1), 1}, {at(2 * g.sets + 3), 1}},
    };
}

}  // namespace

CACHE_TEST(FillMatchesInsertLoop)
{
    for (const Geometry &g : kFillGeometries) {
        const auto cases = fillCases(g);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(std::string(g.name) + ", case " +
                         std::to_string(i));
            Cache got(g.bytes, g.ways);
            Cache want(g.bytes, g.ways);
            ASSERT_EQ(got.sets(), g.sets);
            got.fill(cases[i], StallTag::kL3);
            insertLoop(&want, cases[i], StallTag::kL3);
            expectSameState(got, want, cases[i], 17 + i);
        }
    }
}

CACHE_TEST(DeferredFillAnyTouchOrder)
{
    // fill() writes a set on its first probe. Probing the sets in
    // reverse and in a shuffled order, with a lookup that both
    // caches take, must leave the same state as the insert() loop.
    for (const Geometry &g : kFillGeometries) {
        const auto cases = fillCases(g);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            for (const bool shuffled : {false, true}) {
                SCOPED_TRACE(std::string(g.name) + ", case " +
                             std::to_string(i) +
                             (shuffled ? ", shuffled" : ", reverse"));
                std::vector<std::uint64_t> order(g.sets);
                for (std::uint64_t s = 0; s < g.sets; ++s)
                    order[s] = g.sets - 1 - s;
                Rng rng(31 + i);
                if (shuffled)
                    for (std::uint64_t s = g.sets - 1; s > 0; --s)
                        std::swap(order[s], order[rng.below(s + 1)]);

                Cache got(g.bytes, g.ways);
                Cache want(g.bytes, g.ways);
                got.fill(cases[i], StallTag::kL3);
                insertLoop(&want, cases[i], StallTag::kL3);
                for (const std::uint64_t s : order) {
                    // Line s + k*sets lies in set s, inside or
                    // beyond the filled ranges.
                    const Addr a =
                        (s + rng.below(2 * g.ways) * g.sets) *
                        kCacheLineBytes;
                    ASSERT_EQ(got.lookup(a, 1, nullptr, nullptr),
                              want.lookup(a, 1, nullptr, nullptr))
                        << "set " << s;
                }
                expectSameState(got, want, cases[i], 53 + i);
            }
        }
    }
}

CACHE_TEST(ColdSetFirstTouchByMarkDirtyOrInvalidate)
{
    // 4 sets x 4 ways; 35 lines leave lines 19..34 resident.
    const std::uint64_t sets = 4;
    const unsigned ways = 4;
    const LineRange range[] = {{0, 35}};
    Cache got(sets * ways * kCacheLineBytes, ways);
    Cache want(sets * ways * kCacheLineBytes, ways);
    got.fill(range, StallTag::kL3);
    insertLoop(&want, range, StallTag::kL3);

    // First touches: set 1 by markDirty of a resident line, set 2 by
    // invalidate of a resident line, set 3 by markDirty of an
    // evicted line (a no-op).
    const Addr dirtied = 25 * kCacheLineBytes;
    const Addr dropped = 30 * kCacheLineBytes;
    for (Cache *c : {&got, &want}) {
        c->markDirty(dirtied);
        c->invalidate(dropped);
        c->markDirty(3 * kCacheLineBytes);
    }
    EXPECT_FALSE(got.contains(dropped));

    // Evicting all of set 1 must write back exactly the dirtied line.
    int dirtyEvictions = 0;
    for (unsigned j = 0; j < ways; ++j) {
        const Addr a = (100 * sets + 1 + j * sets) * kCacheLineBytes;
        const Eviction e = got.insert(a, 0, StallTag::kDram, false);
        const Eviction w = want.insert(a, 0, StallTag::kDram, false);
        EXPECT_EQ(e.valid, w.valid);
        EXPECT_EQ(e.dirty, w.dirty);
        EXPECT_EQ(e.lineAddr, w.lineAddr);
        if (e.dirty) {
            ++dirtyEvictions;
            EXPECT_EQ(e.lineAddr, dirtied);
        }
    }
    EXPECT_EQ(dirtyEvictions, 1);
    expectSameState(got, want, range, 71);
}

CACHE_TEST(FillRejectsOverlapOrUsedCache)
{
    // The closed form holds only for distinct lines on empty sets.
    const LineRange overlapping[] = {{0, 8},
                                     {7 * kCacheLineBytes, 1}};
    Cache a(64 * 1024, 8);
    EXPECT_DEATH(a.fill(overlapping, StallTag::kL3), "overlap");

    const LineRange one[] = {{64 * kCacheLineBytes, 1}};
    Cache inserted(64 * 1024, 8);
    inserted.insert(0, 0, StallTag::kDram, false);
    EXPECT_DEATH(inserted.fill(one, StallTag::kL3), "fresh");
    Cache looked(64 * 1024, 8);
    EXPECT_EQ(looked.lookup(0, 0, nullptr, nullptr),
              LookupResult::kMiss);
    EXPECT_DEATH(looked.fill(one, StallTag::kL3), "fresh");
    // Filled but never probed: every set is still cold.
    Cache filled(64 * 1024, 8);
    filled.fill(one, StallTag::kL3);
    EXPECT_DEATH(filled.fill(one, StallTag::kL3), "fresh");
}

CACHE_TEST(WaysLeaveTheColdMarkFree)
{
    // Ranks are bytes and 255 (the rank of an empty way) must stay
    // above every way index, so 254 ways is the most a cache may
    // have; the largest cache probes its tags one way at a time.
    EXPECT_DEATH(Cache(255 * kCacheLineBytes, 255), "ways out of range");

    const LineRange range[] = {{0, 2 * 254 + 7}};
    Cache got(254 * kCacheLineBytes, 254);
    Cache want(254 * kCacheLineBytes, 254);
    ASSERT_EQ(got.sets(), 1u);
    got.fill(range, StallTag::kL3);
    insertLoop(&want, range, StallTag::kL3);
    expectSameState(got, want, range, 89);
}

namespace {

/**
 * Reference cache with the plainest state: one 64-bit tag per way
 * (the line address with bit 0 set, 0 when empty) and a 64-bit LRU
 * stamp from one counter per cache. Cache's 4-byte tags, wide-tag
 * table and per-set ranks must behave exactly like it. fill() is its
 * insert() loop, which Cache.FillMatchesInsertLoop shows the closed
 * form equals. Sets are allocated on first touch so a 160 MB
 * geometry stays cheap.
 */
class StampCache
{
  public:
    StampCache(std::uint64_t bytes, unsigned ways)
        : sets_(bytes / (kCacheLineBytes * ways)), ways_(ways),
          lines_(sets_)
    {
    }

    LookupResult
    lookup(Addr a, Tick now, Tick *ready_at, StallTag *home)
    {
        Way *w = find(a);
        if (!w) {
            ++misses_;
            return LookupResult::kMiss;
        }
        w->stamp = ++stamp_;
        if (w->readyAt > now) {
            ++pendingHits_;
            *ready_at = w->readyAt;
            *home = w->home;
            return LookupResult::kPending;
        }
        ++hits_;
        return LookupResult::kHit;
    }

    bool contains(Addr a) { return find(a) != nullptr; }

    Eviction
    insert(Addr a, Tick ready_at, StallTag home, bool dirty)
    {
        if (Way *w = find(a)) {
            *w = {w->tag, ready_at, ++stamp_, home, w->dirty || dirty};
            return {};
        }
        Way *victim = nullptr;
        for (Way &w : set(a)) {
            if (w.tag == 0) {
                victim = &w;
                break;
            }
            if (!victim || w.stamp < victim->stamp)
                victim = &w;
        }
        Eviction ev;
        if (victim->tag != 0)
            ev = {true, victim->dirty, victim->tag & ~Addr{1}};
        *victim = {a | 1, ready_at, ++stamp_, home, dirty};
        return ev;
    }

    void
    fill(std::span<const LineRange> ranges, StallTag home)
    {
        for (const LineRange &r : ranges)
            for (std::uint64_t i = 0; i < r.lines; ++i)
                insert(r.base + i * kCacheLineBytes, 0, home, false);
    }

    void
    markDirty(Addr a)
    {
        if (Way *w = find(a))
            w->dirty = true;
    }

    void
    invalidate(Addr a)
    {
        if (Way *w = find(a))
            w->tag = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t pendingHits() const { return pendingHits_; }

  private:
    struct Way
    {
        Addr tag = 0;
        Tick readyAt = 0;
        std::uint64_t stamp = 0;
        StallTag home = StallTag::kL1;
        bool dirty = false;
    };

    std::vector<Way> &
    set(Addr a)
    {
        std::vector<Way> &s = lines_[a / kCacheLineBytes % sets_];
        if (s.empty())
            s.resize(ways_);
        return s;
    }

    Way *
    find(Addr a)
    {
        for (Way &w : set(a))
            if (w.tag == (a | 1))
                return &w;
        return nullptr;
    }

    std::uint64_t sets_;
    unsigned ways_;
    std::vector<std::vector<Way>> lines_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t pendingHits_ = 0;
};

/** One past the largest line number: line addresses stay < 2^64. */
constexpr std::uint64_t kLineEnd = std::uint64_t{1} << 58;
/** First line / sets quotient whose 4-byte tag (quotient + 1) would
 *  not fit below the reserved wide tag. */
constexpr std::uint64_t kWideHigh = 0xffffffffULL - 1;

/**
 * Lines of a few sets (0, 1, the last, and random ones) whose
 * quotient line / sets is small, straddles kWideHigh, puts the
 * address at 2^47 and above, lies near the top of the address
 * space, or is random. Each set gets well over ways lines, most of
 * them wide in the small geometries.
 */
std::vector<Addr>
referencePool(std::uint64_t sets, unsigned ways, Rng &rng)
{
    std::vector<std::uint64_t> setList = {0, 1 % sets, sets - 1,
                                          rng.below(sets),
                                          rng.below(sets)};
    std::sort(setList.begin(), setList.end());
    setList.erase(std::unique(setList.begin(), setList.end()),
                  setList.end());
    std::vector<Addr> pool;
    for (const std::uint64_t s : setList) {
        const std::uint64_t maxHigh = (kLineEnd - 1 - s) / sets;
        std::vector<std::uint64_t> highs;
        for (std::uint64_t h = 0; h <= ways + 1; ++h)
            highs.push_back(h);
        for (std::uint64_t h = kWideHigh - 3; h <= kWideHigh + 2; ++h)
            highs.push_back(h);
        const std::uint64_t at47 = (std::uint64_t{1} << 41) / sets;
        for (std::uint64_t k = 0; k < ways / 2 + 1; ++k) {
            highs.push_back(at47 + k);
            highs.push_back(maxHigh - k);
            highs.push_back(rng.below(maxHigh + 1));
        }
        std::sort(highs.begin(), highs.end());
        highs.erase(std::unique(highs.begin(), highs.end()),
                    highs.end());
        for (const std::uint64_t h : highs)
            if (h <= maxHigh)
                pool.push_back((h * sets + s) * kCacheLineBytes);
    }
    return pool;
}

}  // namespace

CACHE_TEST(MatchesStampReference)
{
    struct RefGeometry
    {
        std::uint64_t sets;
        unsigned ways;
    };
    const RefGeometry geometries[] = {
        {1, 2},      {64, 8},      {64, 12},    {2048, 16},
        {20072, 11}, {65536, 15}, {163840, 16}, {4, 254}};
    for (const RefGeometry &g : geometries) {
        for (const bool filled : {false, true}) {
            SCOPED_TRACE(std::to_string(g.sets) + "x" +
                         std::to_string(g.ways) +
                         (filled ? ", filled" : ", fresh"));
            const std::uint64_t bytes = g.sets * g.ways * kCacheLineBytes;
            Cache got(bytes, g.ways);
            StampCache want(bytes, g.ways);
            ASSERT_EQ(got.sets(), g.sets);
            Rng rng(g.sets * 7 + g.ways + (filled ? 1000 : 0));
            const std::vector<Addr> pool =
                referencePool(g.sets, g.ways, rng);

            if (filled) {
                // In fill order: low lines overflowing every set,
                // then lines whose tags straddle the wide limit,
                // then lines just below 2^64.
                const std::uint64_t cap = g.sets * g.ways;
                const LineRange ranges[] = {
                    {0, cap * 3 / 2 + 5},
                    {(kWideHigh - 3) * g.sets * kCacheLineBytes,
                     4 * g.sets + 1},
                    {(kLineEnd - 1 - 2 * g.sets - 5) * kCacheLineBytes,
                     2 * g.sets + 5},
                };
                got.fill(ranges, StallTag::kL3);
                want.fill(ranges, StallTag::kL3);
            }
            // Probe the pool twice before anything changes a line. In
            // the second pass every pooled set and its neighbours are
            // written and still hold only what fill() left: a probe
            // of a set whose row is shorter than 16 tags (ways 8 and
            // 2) also reads the next row's metadata or the tail
            // padding, and a resident line's metadata word reads as
            // tag 4, a tag the pool holds. Lanes past `ways` that are
            // not masked off then answer for lines the set lacks.
            for (int pass = 0; pass < 2; ++pass)
                for (const Addr a : pool)
                    ASSERT_EQ(got.contains(a), want.contains(a))
                        << "contains " << a << ", pass " << pass;

            Tick now = 1000;
            for (int k = 0; k < 20000; ++k) {
                now += 100;
                const Addr a = pool[rng.below(pool.size())];
                const std::uint64_t op = rng.below(20);
                if (op < 7) {
                    Tick r1 = 0, r2 = 0;
                    StallTag h1 = StallTag::kL1, h2 = StallTag::kL1;
                    const LookupResult l1 = got.lookup(a, now, &r1, &h1);
                    const LookupResult l2 = want.lookup(a, now, &r2, &h2);
                    ASSERT_EQ(l1, l2) << "lookup " << a << ", op " << k;
                    ASSERT_EQ(r1, r2) << "lookup " << a;
                    ASSERT_EQ(h1, h2) << "lookup " << a;
                } else if (op < 14) {
                    const Tick ready = now + rng.below(2000);
                    const bool dirty = rng.chance(0.3);
                    const auto home = static_cast<StallTag>(rng.below(4));
                    const Eviction e = got.insert(a, ready, home, dirty);
                    const Eviction w = want.insert(a, ready, home, dirty);
                    ASSERT_EQ(e.valid, w.valid)
                        << "insert " << a << ", op " << k;
                    ASSERT_EQ(e.dirty, w.dirty) << "insert " << a;
                    ASSERT_EQ(e.lineAddr, w.lineAddr) << "insert " << a;
                } else if (op < 16) {
                    ASSERT_EQ(got.contains(a), want.contains(a))
                        << "contains " << a << ", op " << k;
                } else if (op < 18) {
                    got.markDirty(a);
                    want.markDirty(a);
                } else {
                    got.invalidate(a);
                    want.invalidate(a);
                }
            }
            for (const Addr a : pool)
                ASSERT_EQ(got.contains(a), want.contains(a)) << "line " << a;
            EXPECT_EQ(got.hits(), want.hits());
            EXPECT_EQ(got.misses(), want.misses());
            EXPECT_EQ(got.pendingHits(), want.pendingHits());
        }
    }
}

TEST(StridePrefetcher, TrainsOnConstantStride)
{
    PrefetcherConfig cfg{true, 4, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0 * 64, &out);
    EXPECT_TRUE(out.empty());
    pf.observe(1, 1 * 64, &out);
    EXPECT_TRUE(out.empty());  // confidence 1
    pf.observe(1, 2 * 64, &out);
    // Confidence reaches the threshold here: nominations begin.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 3u * 64);
    EXPECT_EQ(out[3], 6u * 64);
    pf.observe(1, 3 * 64, &out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 4u * 64);
    EXPECT_EQ(out[3], 7u * 64);
}

TEST(StridePrefetcher, NonUnitStride)
{
    PrefetcherConfig cfg{true, 2, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr a = 0; a < 5 * 256; a += 256)
        pf.observe(3, a, &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 4u * 256 + 256);
}

TEST(StridePrefetcher, RandomAddressesNeverTrain)
{
    PrefetcherConfig cfg{true, 4, 8, 2};
    StridePrefetcher pf(cfg);
    Rng r(3);
    std::vector<Addr> out;
    std::size_t nominated = 0;
    for (int i = 0; i < 1000; ++i) {
        pf.observe(5, r.below(1 << 20) * 64, &out);
        nominated += out.size();
    }
    EXPECT_LT(nominated, 50u);
}

TEST(StridePrefetcher, DisabledNominatesNothing)
{
    PrefetcherConfig cfg{false, 4, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr a = 0; a < 64 * 64; a += 64)
        pf.observe(1, a, &out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, NominatesAheadWithinBudget)
{
    PrefetcherConfig cfg{true, 8, 16, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(0 * 64, 100, &out);
    pf.observe(1 * 64, 100, &out);
    pf.observe(2 * 64, 100, &out);
    ASSERT_FALSE(out.empty());
    // Frontier starts right after the demand line.
    EXPECT_EQ(out.front(), 3u * 64);
    // Next observation continues from the frontier, no re-issue.
    const Addr prevEnd = out.back();
    pf.observe(3 * 64, 100, &out);
    if (!out.empty()) {
        EXPECT_GT(out.front(), prevEnd);
    }
}

TEST(StreamPrefetcher, BudgetBoundsNominations)
{
    PrefetcherConfig cfg{true, 16, 32, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(0, 100, &out);
    pf.observe(64, 100, &out);
    pf.observe(128, 2, &out);  // only 2 in-flight slots left
    EXPECT_LE(out.size(), 2u);
    pf.observe(192, 0, &out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, StaysWithinPage)
{
    PrefetcherConfig cfg{true, 32, 64, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    const Addr lastLines = 4096 - 3 * 64;
    pf.observe(lastLines, 100, &out);
    pf.observe(lastLines + 64, 100, &out);
    pf.observe(lastLines + 128, 100, &out);
    for (Addr a : out)
        EXPECT_LT(a, 4096u);
}

namespace {

CounterSet
runCounters(const workloads::WorkloadProfile &w, const char *memory,
            bool pf_on = true, Tick *wall = nullptr)
{
    melody::Platform plat("EMR2S", memory);
    auto backend = plat.makeBackend(71 ^ w.seed);
    MultiCore mc(plat.cpu(), w.exec, backend.get(),
                 workloads::makeKernels(w), pf_on);
    auto r = mc.run();
    if (wall)
        *wall = r.wallTicks;
    return r.counters;
}

workloads::WorkloadProfile
smallWorkload(const std::string &name)
{
    workloads::WorkloadProfile w = workloads::byName(name);
    w.blocksPerCore = std::min<std::uint64_t>(w.blocksPerCore, 30000);
    return w;
}

}  // namespace

/** Property: Intel counter nesting P1 >= P3 >= P4 >= P5 and
 *  P6 >= P1 + P2 across a spread of workloads and backends. */
class CounterInvariants
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CounterInvariants, NestingHolds)
{
    for (const char *mem : {"Local", "CXL-B"}) {
        const CounterSet c =
            runCounters(smallWorkload(GetParam()), mem);
        EXPECT_GE(c.p1 + 1e-6, c.p3) << mem;
        EXPECT_GE(c.p3 + 1e-6, c.p4) << mem;
        EXPECT_GE(c.p4 + 1e-6, c.p5) << mem;
        EXPECT_GE(c.p6 + 1e-6, c.p1 + c.p2) << mem;
        EXPECT_GT(c.cycles, 0.0);
        EXPECT_GT(c.instructions, 0.0);
        // Stall components are non-negative by construction.
        EXPECT_GE(c.sL1() + 1e-6, 0.0);
        EXPECT_GE(c.sL2() + 1e-6, 0.0);
        EXPECT_GE(c.sL3() + 1e-6, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CounterInvariants,
    ::testing::Values("605.mcf_s", "603.bwaves_s", "redis/ycsb-c",
                      "519.lbm_r", "pts-openssl", "bfs-web",
                      "ubench-chase-256m-i7"));

TEST(Core, InstructionsInvariantAcrossBackends)
{
    const auto w = smallWorkload("605.mcf_s");
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-B");
    // Same instruction stream retires on both (§5.6 relies on it).
    EXPECT_DOUBLE_EQ(local.instructions, cxl.instructions);
    EXPECT_GT(cxl.cycles, local.cycles);
}

TEST(Core, ChaseSlowerThanStream)
{
    auto chase = smallWorkload("ubench-chase-4096m-i17");
    auto stream = smallWorkload("ubench-seq-4096m-i35");
    Tick wallChase, wallStream;
    const CounterSet c1 = runCounters(chase, "CXL-A", true,
                                      &wallChase);
    const CounterSet c2 = runCounters(stream, "CXL-A", true,
                                      &wallStream);
    const double ipcChase = c1.instructions / c1.cycles;
    const double ipcStream = c2.instructions / c2.cycles;
    EXPECT_LT(ipcChase, ipcStream);
}

TEST(Core, DramBoundChaseChargesP5)
{
    auto w = smallWorkload("ubench-chase-4096m-i17");
    const CounterSet c = runCounters(w, "CXL-A");
    // Almost all memory stalls should be LLC-miss (DRAM) stalls.
    EXPECT_GT(c.sDram(), 0.5 * (c.p1 + 1e-9));
}

TEST(Core, StoreBufferPressureChargesP2)
{
    workloads::WorkloadProfile w = workloads::byName("519.lbm_r");
    w.blocksPerCore = 20000;
    w.threads = 2;
    w.storesPerBlock = 2.0;  // exaggerate store pressure
    w.storeHotFrac = 0.0;
    const CounterSet c = runCounters(w, "CXL-C");
    EXPECT_GT(c.p2, 0.0);
}

TEST(Core, PrefetchersOffRemovesCacheStalls)
{
    // Finding #4's control experiment: with HW prefetchers off,
    // there are no pending prefetch lines, so (differential) cache
    // stall components vanish and everything lands in DRAM stalls.
    auto w = smallWorkload("ubench-seq-4096m-i35");
    Tick wallL, wallC;
    melody::Platform lp("EMR2S", "Local"), cp("EMR2S", "CXL-A");

    auto lb = lp.makeBackend(73);
    MultiCore ml(lp.cpu(), w.exec, lb.get(),
                 workloads::makeKernels(w), /*pf=*/false);
    auto rl = ml.run();
    wallL = rl.wallTicks;

    auto cb = cp.makeBackend(73);
    MultiCore mcxl(cp.cpu(), w.exec, cb.get(),
                   workloads::makeKernels(w), /*pf=*/false);
    auto rc = mcxl.run();
    wallC = rc.wallTicks;
    EXPECT_GT(wallC, wallL);

    const CounterSet d = rc.counters - rl.counters;
    const double cacheStalls = d.sL1() + d.sL2() + d.sL3();
    // With PF off, cache-stall deltas are ~0 vs the DRAM delta.
    EXPECT_LT(std::abs(cacheStalls), 0.05 * d.sDram() + 1e3);
    EXPECT_EQ(rc.counters.l1pfIssued, 0u);
    EXPECT_EQ(rc.counters.l2pfIssued, 0u);
}

TEST(Core, PrefetchersImproveStreamPerformance)
{
    auto w = smallWorkload("ubench-seq-4096m-i35");
    Tick wallOn = 0, wallOff = 0;
    runCounters(w, "Local", true, &wallOn);
    runCounters(w, "Local", false, &wallOff);
    EXPECT_LT(wallOn, wallOff);
}

TEST(Hierarchy, DemandMissFillsAllLevels)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(79);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const auto out = h.demandLoad(0, 4096, 0, 0);
    EXPECT_FALSE(out.immediate);
    EXPECT_EQ(out.tag, StallTag::kDram);
    // After the fill arrives the line hits in L1.
    const auto again = h.demandLoad(0, 4096, 0, out.readyAt + 1);
    EXPECT_TRUE(again.immediate);
}

TEST(Hierarchy, PendingMergeAttributesToDram)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(83);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const auto first = h.demandLoad(0, 8192, 0, 0);
    const auto merged = h.demandLoad(0, 8192, 0, 10);
    EXPECT_EQ(merged.tag, StallTag::kDram);
    EXPECT_LE(merged.readyAt, first.readyAt + nsToTicks(20));
}

TEST(Hierarchy, PreloadMakesLinesResident)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(89);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    h.preload({{1 << 20, 1}});
    const auto out = h.demandLoad(0, 1 << 20, 0, 0);
    EXPECT_FALSE(out.immediate);  // L2 hit, small latency
    EXPECT_EQ(out.tag, StallTag::kL2);
    EXPECT_LT(ticksToNs(out.readyAt), 30.0);
}

TEST(Hierarchy, RfoMissGoesToBackend)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(97);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const Tick done = h.storeRfo(0, 1 << 21, 0);
    EXPECT_GT(ticksToNs(done), 80.0);  // full memory round trip
    EXPECT_EQ(be->stats().reads, 1u);  // RFO counts as a read
    // A second store to the same line is cheap once owned.
    const Tick again = h.storeRfo(0, 1 << 21, done + 100);
    EXPECT_LT(ticksToNs(again - done - 100), 5.0);
}

TEST(Hierarchy, DirtyEvictionsReachBackendAsWritebacks)
{
    melody::Platform lp("EMR2S", "Local");
    // Tiny-cache profile to force eviction cascades quickly.
    CpuProfile prof = lp.cpu();
    prof.l1 = {4 * 1024, 4, 4.0};
    prof.l2 = {16 * 1024, 4, 14.0};
    prof.l3 = {64 * 1024, 4, 40.0};
    auto be = lp.makeBackend(101);
    MemoryHierarchy h(prof, 1, be.get(), false);
    Tick now = 0;
    for (Addr a = 0; a < (1 << 20); a += kCacheLineBytes)
        now = h.storeRfo(0, a, now) + 10;
    EXPECT_GT(be->stats().writes, 100u);
}

TEST(Hierarchy, SharedL3ServesAnotherCoresFill)
{
    // L1/L2 are private, the LLC is shared: a line core 0 fetched
    // reaches core 1 from L3 without a second backend read.
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(109);
    MemoryHierarchy h(lp.cpu(), 2, be.get(), false);
    const auto first = h.demandLoad(0, 1 << 22, 0, 0);
    ASSERT_EQ(first.tag, StallTag::kDram);
    const std::uint64_t reads = be->stats().reads;
    const auto other = h.demandLoad(1, 1 << 22, 0, first.readyAt + 1);
    EXPECT_FALSE(other.immediate);
    EXPECT_EQ(other.tag, StallTag::kL3);
    EXPECT_EQ(be->stats().reads, reads);
}

TEST(Hierarchy, PreloadWarmsOwnL2AndSharedL3)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(113);
    MemoryHierarchy h(lp.cpu(), 2, be.get(), false);
    h.preload({{1 << 20, 1}, {}});
    EXPECT_EQ(h.demandLoad(0, 1 << 20, 0, 0).tag, StallTag::kL2);
    EXPECT_EQ(h.demandLoad(1, 1 << 20, 0, 0).tag, StallTag::kL3);
    EXPECT_EQ(be->stats().reads, 0u);
}

TEST(Hierarchy, PreloadMatchesPerLineReference)
{
    // Three cores of a fit-sized workload: two whole 12 MB
    // partitions around one core's 1.5 MB hot set. Each L2 must
    // hold its own core's range, the shared L3 all three in core
    // order, exactly as insert() line by line would leave them.
    melody::Platform lp("EMR2S", "Local");
    const CpuProfile &prof = lp.cpu();
    auto be = lp.makeBackend(127);
    MemoryHierarchy h(prof, 3, be.get(), false);
    const std::uint64_t part = 12ULL << 20;
    const std::vector<LineRange> ranges = {
        {0, part / kCacheLineBytes},
        {part, (3ULL << 19) / kCacheLineBytes},
        {2 * part, part / kCacheLineBytes},
    };
    h.preload(ranges);

    // The hierarchy is only inspected from here on, so driving its
    // caches directly leaves nothing else out of step.
    for (unsigned c = 0; c < ranges.size(); ++c) {
        SCOPED_TRACE("L2 of core " + std::to_string(c));
        Cache want(prof.l2.sizeBytes, prof.l2.ways);
        insertLoop(&want, {&ranges[c], 1}, StallTag::kL2);
        expectSameState(const_cast<Cache &>(h.l2(c)), want,
                        {&ranges[c], 1}, 131 + c);
    }
    SCOPED_TRACE("L3");
    Cache want(prof.l3.sizeBytes, prof.l3.ways);
    insertLoop(&want, ranges, StallTag::kL3);
    expectSameState(const_cast<Cache &>(h.l3()), want, ranges, 137);
}

TEST(MultiCore, SymmetricCoresFinishTogether)
{
    auto w = smallWorkload("bfs-web");
    w.threads = 4;
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(103);
    MultiCore mc(lp.cpu(), w.exec, be.get(),
                 workloads::makeKernels(w));
    auto r = mc.run();
    EXPECT_GT(r.wallTicks, 0u);
    EXPECT_GT(r.backendStats.requests(), 100u);
    EXPECT_GT(r.backendGBps(), 0.0);
}

TEST(MultiCore, SamplingProducesMonotonicSamples)
{
    auto w = smallWorkload("602.gcc_s");
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(107);
    MultiCore mc(lp.cpu(), w.exec, be.get(),
                 workloads::makeKernels(w));
    mc.enableSampling(usToTicks(5));
    auto r = mc.run();
    ASSERT_GT(r.samples.size(), 3u);
    for (std::size_t i = 1; i < r.samples.size(); ++i) {
        EXPECT_GT(r.samples[i].when, r.samples[i - 1].when);
        EXPECT_GE(r.samples[i].counters.instructions,
                  r.samples[i - 1].counters.instructions);
        EXPECT_GE(r.samples[i].counters.cycles,
                  r.samples[i - 1].counters.cycles);
    }
}

TEST(Profiles, SkxVsSprPrefetchHoming)
{
    EXPECT_FALSE(skx().l2pfFillsL3);
    EXPECT_TRUE(spr().l2pfFillsL3);
    EXPECT_TRUE(emr().l2pfFillsL3);
    EXPECT_GT(emr().l3.sizeBytes, spr().l3.sizeBytes);
    EXPECT_GT(emrPrime().l3.sizeBytes, emr().l3.sizeBytes);
    EXPECT_LT(skx().robSize, spr().robSize);
}

TEST(Core, PiecewiseStallAttribution)
{
    // A 16-cycle L2 hit coexisting with a 300ns DRAM wait must not
    // taint the whole window as sL2: the DRAM portion dominates.
    workloads::WorkloadProfile w =
        workloads::byName("ubench-rnd-4096m-i56");
    w.blocksPerCore = 20000;
    w.hotFrac = 0.5;  // plenty of L2/L3 traffic alongside misses
    w.dependentFrac = 0.3;
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-A");
    const CounterSet d = cxl - local;
    // The latency delta lands overwhelmingly at DRAM (P5), not in
    // the cache bands.
    EXPECT_GT(d.sDram(), 5.0 * std::max(1.0, d.sL2()));
}

TEST(Core, FrontendStallsBackendInvariant)
{
    // Frontend stalls (P6 minus backend stalls) are a workload
    // property: their delta across backends is ~0 (§5.3).
    auto w = smallWorkload("redis/ycsb-c");
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-B");
    const double feLocal = local.p6 - local.p1 - local.p2;
    const double feCxl = cxl.p6 - cxl.p1 - cxl.p2;
    EXPECT_NEAR(feCxl, feLocal,
                0.05 * std::max(feLocal, 1.0) + 100.0);
}

namespace {

/**
 * Core's load and store accounting as it was with a std::deque
 * outstanding-load window, popping completed loads off the front and
 * then erasing completed interior ones. Core keeps the window in a
 * vector compacted in one pass; both must charge every cycle alike.
 * Periodic sampling is left out (Core's is off here).
 */
class DequeWindowCore
{
  public:
    DequeWindowCore(const CpuProfile &profile, const CoreExecParams &exec,
                    MemoryHierarchy *hierarchy, Kernel *kernel)
        : profile_(profile), exec_(exec), hier_(hierarchy),
          kernel_(kernel), tpc_(ticksPerCycle(profile.freqGhz))
    {
    }

    bool
    step()
    {
        if (done_)
            return false;
        Block b;
        if (!kernel_->next(&b)) {
            while (!loads_.empty())
                stallOnLoads(earliest());
            if (!storeBuf_.empty())
                stallOnStore(storeBuf_.back());
            done_ = true;
            return false;
        }
        execute(b);
        for (unsigned i = 0; i < b.nOps; ++i) {
            if (b.ops[i].isStore)
                doStore(b.ops[i]);
            else
                doLoad(b.ops[i]);
        }
        return true;
    }

    Tick now() const { return static_cast<Tick>(tickNow_); }

    CounterSet
    counters() const
    {
        CounterSet c = cnt_;
        const PfStats &pf = hier_->pfStats(0);
        c.l1pfIssued = pf.l1pfIssued;
        c.l1pfL3Miss = pf.l1pfL3Miss;
        c.l1pfL3Hit = pf.l1pfL3Hit;
        c.l2pfIssued = pf.l2pfIssued;
        c.l2pfL3Miss = pf.l2pfL3Miss;
        c.l2pfL3Hit = pf.l2pfL3Hit;
        c.demandL3Miss = pf.demandL3Miss;
        return c;
    }

  private:
    struct Load
    {
        double completion;
        std::uint64_t uopIdx;
        StallTag tag;
    };

    double cyclesOf(double ticks) const { return ticks / tpc_; }

    double
    earliest() const
    {
        double e = loads_.front().completion;
        for (const Load &l : loads_)
            e = std::min(e, l.completion);
        return e;
    }

    void
    purgeLoads()
    {
        while (!loads_.empty() && loads_.front().completion <= tickNow_)
            loads_.pop_front();
        if (!loads_.empty()) {
            auto it = std::remove_if(loads_.begin(), loads_.end(),
                                     [&](const Load &l) {
                                         return l.completion <= tickNow_;
                                     });
            loads_.erase(it, loads_.end());
        }
    }

    void
    purgeStores()
    {
        while (!storeBuf_.empty() && storeBuf_.front() <= tickNow_)
            storeBuf_.pop_front();
    }

    void
    stallOnLoads(double target)
    {
        while (tickNow_ < target) {
            purgeLoads();
            purgeStores();
            if (loads_.empty()) {
                const double dt = cyclesOf(target - tickNow_);
                cnt_.cycles += dt;
                cnt_.p6 += dt;
                tickNow_ = target;
                break;
            }
            double boundary = target;
            StallTag deepest = StallTag::kL1;
            for (const Load &l : loads_) {
                deepest = std::max(deepest, l.tag);
                boundary = std::min(boundary, l.completion);
            }
            const double dt = cyclesOf(boundary - tickNow_);
            cnt_.cycles += dt;
            cnt_.p1 += dt;
            if (deepest >= StallTag::kL2)
                cnt_.p3 += dt;
            if (deepest >= StallTag::kL3)
                cnt_.p4 += dt;
            if (deepest >= StallTag::kDram)
                cnt_.p5 += dt;
            cnt_.p6 += dt;
            cnt_.p9 += dt * exec_.serializeFrac * 0.1;
            tickNow_ = boundary;
        }
        purgeLoads();
        purgeStores();
    }

    void
    stallOnStore(double target)
    {
        if (target <= tickNow_)
            return;
        while (!loads_.empty() && tickNow_ < target)
            stallOnLoads(std::min(target, earliest()));
        if (tickNow_ >= target)
            return;
        const double dt = cyclesOf(target - tickNow_);
        cnt_.cycles += dt;
        cnt_.p2 += dt;
        cnt_.p6 += dt;
        tickNow_ = target;
        purgeLoads();
        purgeStores();
    }

    void
    execute(const Block &b)
    {
        const double execCycles = static_cast<double>(b.uops) /
                                  static_cast<double>(profile_.issueWidth);
        const double fe = exec_.frontendStallFrac;
        const double feCycles =
            fe < 1.0 ? execCycles * fe / (1.0 - fe) : 0.0;
        cnt_.p6 += feCycles;
        cnt_.p7 += execCycles * exec_.onePortFrac;
        cnt_.p8 += execCycles * exec_.twoPortFrac;
        cnt_.p9 += execCycles * exec_.serializeFrac;
        cnt_.instructions += b.uops;
        cnt_.cycles += execCycles + feCycles;
        tickNow_ += (execCycles + feCycles) * tpc_;
        uopIdx_ += b.uops;
        purgeLoads();
        purgeStores();
    }

    void
    doLoad(const MemOp &op)
    {
        const LoadOutcome outcome = hier_->demandLoad(
            0, op.addr, op.streamId, static_cast<Tick>(tickNow_));
        cnt_.instructions += 1;
        ++uopIdx_;
        if (outcome.immediate)
            return;
        loads_.push_back({static_cast<double>(outcome.readyAt), uopIdx_,
                          outcome.tag});
        if (op.dependent) {
            stallOnLoads(static_cast<double>(outcome.readyAt));
            return;
        }
        while (loads_.size() >= profile_.lfbEntries)
            stallOnLoads(earliest());
        while (!loads_.empty() &&
               uopIdx_ - loads_.front().uopIdx >= profile_.robSize)
            stallOnLoads(loads_.front().completion);
    }

    void
    doStore(const MemOp &op)
    {
        cnt_.instructions += 1;
        ++uopIdx_;
        purgeStores();
        if (storeBuf_.size() >= profile_.storeBufferEntries)
            stallOnStore(storeBuf_.front());
        const Tick done =
            hier_->storeRfo(0, op.addr, static_cast<Tick>(tickNow_));
        storeBuf_.push_back(static_cast<double>(done));
    }

    CpuProfile profile_;
    CoreExecParams exec_;
    MemoryHierarchy *hier_;
    Kernel *kernel_;
    double tpc_;
    double tickNow_ = 0.0;
    std::uint64_t uopIdx_ = 0;
    bool done_ = false;
    std::deque<Load> loads_;
    std::deque<double> storeBuf_;
    CounterSet cnt_;
};

/** Replays a fixed block list. */
class ScriptKernel : public Kernel
{
  public:
    explicit ScriptKernel(const std::vector<Block> &blocks)
        : blocks_(blocks)
    {
    }

    bool
    next(Block *b) override
    {
        if (at_ == blocks_.size())
            return false;
        *b = blocks_[at_++];
        return true;
    }

  private:
    const std::vector<Block> &blocks_;
    std::size_t at_ = 0;
};

/**
 * Phases of a seeded op stream over a preloaded hot region (L2 and
 * LLC hits) and a far cold one (backend misses), so completions come
 * back out of issue order: dependent chases, bursts of independent
 * misses in short blocks that fill the LFB, long blocks with a miss
 * each that run into the ROB limit, store bursts that fill the store
 * buffer, and mixed blocks of loads and stores.
 */
std::vector<Block>
windowScript(Rng &rng, Addr hot, std::uint64_t hot_lines, Addr cold)
{
    const auto hotLine = [&] {
        return hot + rng.below(hot_lines) * kCacheLineBytes;
    };
    const auto coldLine = [&] {
        return cold + rng.below(std::uint64_t{1} << 22) * kCacheLineBytes;
    };
    std::vector<Block> blocks;
    for (int phase = 0; phase < 50; ++phase) {
        for (int k = 0; k < 50; ++k) {
            Block b;
            switch (phase % 5) {
            case 0:  // dependent chase, some hits in between
                b.uops = 4 + static_cast<unsigned>(rng.below(8));
                b.addOp({coldLine(), 1, false, true});
                b.addOp({hotLine(), 2, false, rng.chance(0.5)});
                break;
            case 1:  // LFB-bound burst
                b.uops = 2;
                for (int i = 0; i < 8; ++i)
                    b.addOp({rng.chance(0.3) ? hotLine() : coldLine(),
                             static_cast<std::uint16_t>(3 + i), false,
                             false});
                break;
            case 2:  // ROB-bound: long blocks, one miss each
                b.uops = 100 + static_cast<unsigned>(rng.below(200));
                b.addOp({coldLine(), 11, false, false});
                break;
            case 3:  // store burst: fills the store buffer
                b.uops = 1;
                for (int i = 0; i < 8; ++i)
                    b.addOp({coldLine(), 14, true, false});
                break;
            default:  // mixed loads and stores
                b.uops = static_cast<unsigned>(rng.below(40));
                for (int i = 0; i < 6; ++i)
                    b.addOp({rng.chance(0.5) ? hotLine() : coldLine(),
                             static_cast<std::uint16_t>(12 + i % 2),
                             rng.chance(0.3), rng.chance(0.1)});
                break;
            }
            blocks.push_back(b);
        }
    }
    return blocks;
}

}  // namespace

TEST(Core, OutstandingWindowMatchesDequeReference)
{
    for (const char *server : {"SKX2S", "EMR2S"}) {
        for (const bool pf : {false, true}) {
            SCOPED_TRACE(std::string(server) + (pf ? ", pf" : ", no pf"));
            melody::Platform plat(server, "CXL-A");
            const CpuProfile &p = plat.cpu();
            Rng rng(pf ? 7 : 11);
            const Addr hot = Addr{1} << 30;
            const std::uint64_t hotLines = 4096;
            const std::vector<Block> blocks =
                windowScript(rng, hot, hotLines, Addr{1} << 36);
            const CoreExecParams exec;

            auto beGot = plat.makeBackend(97);
            auto beWant = plat.makeBackend(97);
            MemoryHierarchy hGot(p, 1, beGot.get(), pf);
            MemoryHierarchy hWant(p, 1, beWant.get(), pf);
            hGot.preload({{hot, hotLines}});
            hWant.preload({{hot, hotLines}});
            ScriptKernel kGot(blocks), kWant(blocks);
            Core got(p, exec, &hGot, 0, &kGot);
            DequeWindowCore want(p, exec, &hWant, &kWant);

            bool more = true;
            for (std::size_t i = 0; more; ++i) {
                more = got.step();
                ASSERT_EQ(more, want.step()) << "block " << i;
                ASSERT_EQ(got.now(), want.now()) << "block " << i;
            }
            const CounterSet c = got.counters();
            const CounterSet r = want.counters();
            EXPECT_GT(r.p1, 0.0);
            EXPECT_GT(r.p2, 0.0);
            EXPECT_GT(r.p5, 0.0);
            EXPECT_EQ(c.cycles, r.cycles);
            EXPECT_EQ(c.instructions, r.instructions);
            EXPECT_EQ(c.p1, r.p1);
            EXPECT_EQ(c.p2, r.p2);
            EXPECT_EQ(c.p3, r.p3);
            EXPECT_EQ(c.p4, r.p4);
            EXPECT_EQ(c.p5, r.p5);
            EXPECT_EQ(c.p6, r.p6);
            EXPECT_EQ(c.p7, r.p7);
            EXPECT_EQ(c.p8, r.p8);
            EXPECT_EQ(c.p9, r.p9);
            EXPECT_EQ(c.l1pfIssued, r.l1pfIssued);
            EXPECT_EQ(c.l2pfIssued, r.l2pfIssued);
            EXPECT_EQ(c.l1pfL3Miss, r.l1pfL3Miss);
            EXPECT_EQ(c.l2pfL3Miss, r.l2pfL3Miss);
            EXPECT_EQ(c.l1pfL3Hit, r.l1pfL3Hit);
            EXPECT_EQ(c.l2pfL3Hit, r.l2pfL3Hit);
            EXPECT_EQ(c.demandL3Miss, r.demandL3Miss);
        }
    }
}

namespace {

/**
 * Backend that records every access as (tick, core), with core c's
 * lines at c << 32 and up, and completes it 1-3 grid steps after
 * the grid point at or below its tick (by line address), so cores
 * stay on a shared grid yet drift apart.
 */
class JitterGridBackend : public mem::MemoryBackend
{
  public:
    static constexpr Tick kGrid = 50'000;

    mem::AccessResult
    accessEx(Addr addr, mem::ReqType type, Tick now) override
    {
        note(type);
        issues.emplace_back(now, addr >> 32);
        const Tick steps = 1 + (addr / kCacheLineBytes) % 4;
        return {(now / kGrid + steps) * kGrid, ras::Status::kOk};
    }

    const std::string &name() const override { return name_; }

    std::vector<std::pair<Tick, std::uint64_t>> issues;

  private:
    std::string name_ = "jitter-grid";
};

}  // namespace

TEST(MultiCore, StepsEarliestCoreFirstAndBreaksTiesByLowestIndex)
{
    // Each block is one dependent load of a fresh line and no other
    // work, so a core issues at the tick the scheduler picked it and
    // then waits for the load: the backend sees the picks in order.
    constexpr unsigned kCores = 6;
    constexpr unsigned kBlocks = 300;
    Rng rng(5);
    std::vector<std::vector<Block>> scripts(kCores);
    std::vector<std::unique_ptr<Kernel>> kernels;
    for (unsigned c = 0; c < kCores; ++c) {
        for (unsigned k = 0; k < kBlocks; ++k) {
            Block b;
            const Addr line = 4 * k + rng.below(3);  // line % 4 < 3
            b.addOp({(Addr{c} << 32) + line * kCacheLineBytes, 1, false,
                     true});
            scripts[c].push_back(b);
        }
        kernels.push_back(std::make_unique<ScriptKernel>(scripts[c]));
    }
    melody::Platform plat("EMR2S", "Local");
    JitterGridBackend be;
    MultiCore mc(plat.cpu(), CoreExecParams{}, &be, std::move(kernels),
                 /*prefetchers_on=*/false);
    mc.run();

    ASSERT_EQ(be.issues.size(), kCores * kBlocks);
    std::size_t ties = 0, reruns = 0;
    for (std::size_t i = 1; i < be.issues.size(); ++i) {
        ASSERT_LT(be.issues[i - 1], be.issues[i]) << "issue #" << i;
        ties += be.issues[i - 1].first == be.issues[i].first;
        reruns += be.issues[i - 1].second == be.issues[i].second;
    }
    // Ties are common, and a core that stays earliest after a step
    // steps again at once.
    EXPECT_GT(ties, be.issues.size() / 4);
    EXPECT_GT(reruns, 10u);
}

TEST(Hierarchy, L2pfHomesDifferBySku)
{
    // SKX streamer fills L2 (pending tag kL2); SPR/EMR fill the
    // LLC (pending tag kL3) — the §5.4 mechanism.
    for (bool fillsL3 : {false, true}) {
        CpuProfile prof = fillsL3 ? emr() : skx();
        melody::Platform lp("EMR2S", "CXL-A");
        auto be = lp.makeBackend(301);
        MemoryHierarchy h(prof, 1, be.get(), true);
        // Train the streamer with a clean sequential stream.
        Tick now = 0;
        LoadOutcome out{};
        for (Addr a = 1 << 24; a < (1 << 24) + 64 * 200;
             a += kCacheLineBytes) {
            out = h.demandLoad(0, a, 1, now);
            // Fast consumption: the stream outruns in-flight fills.
            now += nsToTicks(4);
        }
        // A near-future stream line should be pending with the
        // SKU-appropriate home.
        bool sawExpected = false;
        for (int k = 0; k < 40 && !sawExpected; ++k) {
            const Addr next =
                (1 << 24) + 64 * (200 + k);
            const auto o = h.demandLoad(0, next, 1, now);
            if (!o.immediate &&
                o.tag == (fillsL3 ? StallTag::kL3 : StallTag::kL2))
                sawExpected = true;
            now += nsToTicks(2);
        }
        EXPECT_TRUE(sawExpected)
            << (fillsL3 ? "EMR" : "SKX");
    }
}
