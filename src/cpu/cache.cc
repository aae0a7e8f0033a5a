#include "cache.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace cxlsim::cpu {

Cache::Cache(std::uint64_t size_bytes, unsigned ways)
    : sets_(size_bytes / (kCacheLineBytes * ways)), ways_(ways)
{
    SIM_ASSERT(sets_ >= 1, "cache too small");
    SIM_ASSERT(ways_ >= 1 && ways_ < kCold, "ways out of range");
    const std::size_t n = sets_ * ways_;
    // calloc: lazily-zeroed pages make constructing a 100s-of-MB
    // LLC O(1) instead of an eager multi-ms memset per run.
    tags_.reset(static_cast<Addr *>(std::calloc(n, sizeof(Addr))));
    meta_.reset(static_cast<Meta *>(std::malloc(n * sizeof(Meta))));
    mru_.reset(static_cast<std::uint8_t *>(std::calloc(sets_, 1)));
    SIM_ASSERT(tags_ && meta_ && mru_, "cache allocation failed");
}

int
Cache::findWay(std::size_t set, Addr line_addr) const
{
    unsigned m = mru_[set];
    if (m == kCold) [[unlikely]] {
        materialize(set);
        m = mru_[set];
    }
    const Addr key = tagWord(line_addr);
    const Addr *t = &tags_[set * ways_];
    if (t[m] == key)
        return static_cast<int>(m);
    for (unsigned w = 0; w < ways_; ++w)
        if (t[w] == key)
            return static_cast<int>(w);
    return -1;
}

LookupResult
Cache::lookup(Addr line_addr, Tick now, Tick *ready_at, StallTag *home)
{
    const std::size_t set = setIndex(line_addr);
    const int w = findWay(set, line_addr);
    if (w < 0) {
        ++misses_;
        return LookupResult::kMiss;
    }
    mru_[set] = static_cast<std::uint8_t>(w);
    Meta &m = meta_[set * ways_ + static_cast<unsigned>(w)];
    m.lruStamp = ++stamp_;
    if (m.readyAt > now) {
        ++pendingHits_;
        if (ready_at)
            *ready_at = m.readyAt;
        if (home)
            *home = m.home;
        return LookupResult::kPending;
    }
    ++hits_;
    return LookupResult::kHit;
}

bool
Cache::contains(Addr line_addr) const
{
    return findWay(setIndex(line_addr), line_addr) >= 0;
}

Eviction
Cache::insert(Addr line_addr, Tick ready_at, StallTag home, bool dirty)
{
    Eviction ev;
    const std::size_t set = setIndex(line_addr);
    Addr *t = &tags_[set * ways_];
    Meta *mb = &meta_[set * ways_];

    if (const int w = findWay(set, line_addr); w >= 0) {
        // Refill of a present line: refresh fill state.
        Meta &m = mb[w];
        m.readyAt = ready_at;
        m.home = home;
        m.dirty = m.dirty || dirty;
        m.lruStamp = ++stamp_;
        mru_[set] = static_cast<std::uint8_t>(w);
        return ev;
    }

    int victim = -1;
    for (unsigned w = 0; w < ways_; ++w) {
        if (t[w] == 0) {
            victim = static_cast<int>(w);
            break;
        }
        // Plain LRU victim selection (pending fills are treated
        // like any other line: a squashed in-flight prefetch).
        if (victim < 0 || mb[w].lruStamp < mb[victim].lruStamp)
            victim = static_cast<int>(w);
    }

    if (t[victim] != 0) {
        ev.valid = true;
        ev.dirty = mb[victim].dirty;
        ev.lineAddr = t[victim] & ~static_cast<Addr>(1);
    }
    t[victim] = tagWord(line_addr);
    mb[victim].readyAt = ready_at;
    mb[victim].home = home;
    mb[victim].dirty = dirty;
    mb[victim].lruStamp = ++stamp_;
    mru_[set] = static_cast<std::uint8_t>(victim);
    return ev;
}

void
Cache::fill(std::span<const LineRange> ranges, StallTag home)
{
    // No insert() (stamp_) and no lookup() (stamp_ on a hit,
    // misses_ otherwise) yet: every way is empty.
    SIM_ASSERT(stamp_ == 0 && misses_ == 0, "fill() needs a fresh cache");
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
        if (r.lines > 0)
            fills_.push_back({r.base / kCacheLineBytes, r.lines, stamp_});
        stamp_ += r.lines;
    }
    fillHome_ = home;
    std::memset(mru_.get(), kCold, sets_);
}

void
Cache::materialize(std::size_t set) const
{
    // Line i of a fill range lands in set (first + i) % sets_, so
    // the range's lines in this set are i0, i0 + sets_, ...
    const auto firstInSet = [&](const FillRange &r) {
        return (set + sets_ - r.first % sets_) % sets_;
    };
    const auto countInSet = [&](const FillRange &r, std::uint64_t i0) {
        return r.lines > i0 ? (r.lines - 1 - i0) / sets_ + 1 : 0;
    };
    std::uint64_t total = 0;
    for (const FillRange &r : fills_)
        total += countInSet(r, firstInSet(r));

    // The set filled FIFO: its j-th line went to way j % ways_, and
    // only the last ways_ lines survive.
    const std::uint64_t evicted = total > ways_ ? total - ways_ : 0;
    Addr *tg = &tags_[set * ways_];
    Meta *mb = &meta_[set * ways_];
    std::uint64_t j = 0;
    for (const FillRange &r : fills_) {
        const std::uint64_t i0 = firstInSet(r);
        const std::uint64_t n = countInSet(r, i0);
        const std::uint64_t k0 = evicted > j ? evicted - j : 0;
        std::uint64_t w = (j + k0) % ways_;
        for (std::uint64_t k = k0; k < n; ++k) {
            const std::uint64_t i = i0 + k * sets_;
            tg[w] = tagWord((r.first + i) * kCacheLineBytes);
            mb[w] = Meta{0, r.stampBefore + i + 1, fillHome_, false};
            w = w + 1 == ways_ ? 0 : w + 1;
        }
        j += n;
    }
    mru_[set] = static_cast<std::uint8_t>(total > 0 ? (total - 1) % ways_
                                                    : 0);
}

void
Cache::markDirty(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    if (const int w = findWay(set, line_addr); w >= 0)
        meta_[set * ways_ + static_cast<unsigned>(w)].dirty = true;
}

void
Cache::invalidate(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    if (const int w = findWay(set, line_addr); w >= 0)
        tags_[set * ways_ + static_cast<unsigned>(w)] = 0;
}

}  // namespace cxlsim::cpu
