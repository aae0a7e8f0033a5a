#include "tiering_backend.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cxlsim::mem {

TieringBackend::TieringBackend(std::string name, BackendPtr fast,
                               BackendPtr slow, const Config &cfg)
    : name_(std::move(name)), fast_(std::move(fast)),
      slow_(std::move(slow)), cfg_(cfg),
      fastPageBudget_(
          std::max<std::uint64_t>(1, cfg.fastCapacityBytes /
                                         cfg.pageBytes)),
      nextEpoch_(cfg.epoch)
{
    SIM_ASSERT(cfg_.pageBytes >= kCacheLineBytes,
               "page smaller than a line");
}

Tick
TieringBackend::access(Addr addr, ReqType type, Tick now)
{
    note(type);
    if (now >= nextEpoch_) {
        runEpoch(now);
        nextEpoch_ = now + cfg_.epoch;
    }

    const std::uint64_t page = addr / cfg_.pageBytes;
    auto [it, inserted] = pages_.try_emplace(page);
    PageInfo &info = it->second;
    if (inserted && fastPagesUsed_ < fastPageBudget_) {
        // First touch lands on the fast tier while it has room
        // (the allocation behaviour of real tiering systems).
        info.fast = true;
        ++fastPagesUsed_;
    }

    MemoryBackend &target = info.fast ? *fast_ : *slow_;
    const Tick done = target.access(addr, type, now);

    ++info.accesses;
    // Latency cost the core actually suffers: demand stalls
    // directly, and prefetch fetch latency (the timeliness cost
    // that surfaces as delayed hits, Finding #4). RFOs and
    // writebacks are excluded — the store buffer hides them, so
    // their traffic inflates access counts without stalling the
    // core (exactly the distinction Spa draws).
    if (isRead(type) && type != ReqType::kRfo)
        info.stallNs += ticksToNs(done - now);
    if (info.fast)
        ++tstats_.fastAccesses;
    else
        ++tstats_.slowAccesses;
    return done;
}

void
TieringBackend::copyPage(MemoryBackend &from, MemoryBackend &to,
                         std::uint64_t page, Tick now)
{
    // Sampled at 1/8 of the page to keep epoch cost realistic for
    // partially dirty pages. Migration traffic models the page-copy
    // engine's bandwidth cost only, so its completions are unused.
    const Addr base = page * cfg_.pageBytes;
    const std::uint64_t linesPerPage = cfg_.pageBytes / kCacheLineBytes;
    for (std::uint64_t l = 0; l < linesPerPage; l += 128) {
        (void)from.access(base + l * kCacheLineBytes,
                          ReqType::kDemandLoad, now);
        (void)to.access(base + l * kCacheLineBytes,
                        ReqType::kWriteback, now);
    }
}

void
TieringBackend::runEpoch(Tick now)
{
    ++tstats_.epochs;
    if (cfg_.policy == TieringPolicy::kStatic) {
        for (auto &[page, info] : pages_) {
            info.accesses = 0;
            info.stallNs = 0.0;
        }
        return;
    }

    // Rank pages by the policy metric.
    auto score = [&](const PageInfo &p) {
        return cfg_.policy == TieringPolicy::kAccessCount
                   ? static_cast<double>(p.accesses)
                   : p.stallNs;
    };
    std::vector<std::pair<double, std::uint64_t>> ranked;
    ranked.reserve(pages_.size());
    for (const auto &[page, info] : pages_)
        ranked.emplace_back(score(info), page);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;  // deterministic ties
              });

    // The top `fastPageBudget_` pages deserve the fast tier;
    // migrate the highest-ranked slow pages in, evicting the
    // lowest-ranked fast pages, up to the per-epoch migration cap.
    unsigned migrated = 0;
    std::size_t loser = ranked.size();
    for (std::size_t i = 0;
         i < ranked.size() && i < fastPageBudget_ &&
         migrated < cfg_.migrationsPerEpoch;
         ++i) {
        PageInfo &winner = pages_[ranked[i].second];
        if (winner.fast)
            continue;
        // Find the worst-ranked fast page to evict (if the fast
        // tier is full).
        if (fastPagesUsed_ >= fastPageBudget_) {
            while (loser > i + 1 &&
                   !pages_[ranked[loser - 1].second].fast)
                --loser;
            if (loser <= i + 1)
                break;
            --loser;
            PageInfo &victim = pages_[ranked[loser].second];
            victim.fast = false;
            --fastPagesUsed_;
            ++tstats_.demotions;
            // Demotion traffic: read fast, write slow.
            copyPage(*fast_, *slow_, ranked[loser].second, now);
        }
        winner.fast = true;
        ++fastPagesUsed_;
        ++migrated;
        ++tstats_.promotions;
        // Promotion traffic: read slow, write fast.
        copyPage(*slow_, *fast_, ranked[i].second, now);
    }

    // Exponential decay keeps history while favouring recency.
    for (auto &[page, info] : pages_) {
        info.accesses /= 2;
        info.stallNs *= 0.5;
    }
}

}  // namespace cxlsim::mem
