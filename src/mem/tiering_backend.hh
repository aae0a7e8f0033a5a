/**
 * @file
 * Page-granular two-tier memory with online migration — the
 * tiering-system context of §5.7 ("smarter tiering policy designs"
 * and the Pond/Memtis/TPP line of work the paper cites).
 *
 * Pages live on the fast tier (local DRAM, capacity-limited) or
 * the slow tier (CXL). Each epoch the policy re-ranks pages and
 * migrates the winners into the fast tier, paying real migration
 * bandwidth on both tiers. Two ranking metrics are implemented:
 *
 *   kAccessCount - classic hotness (what LLC-miss-count-style
 *                  policies approximate), and
 *   kStallCost   - Spa's argument: rank by the *latency actually
 *                  suffered* on the page, so pages whose accesses
 *                  are prefetched or overlapped rank below pages
 *                  that stall the core.
 *
 * A page full of streamed (prefetch-friendly) lines has a huge
 * access count but costs little; a pointer-chased page costs its
 * full latency per access. Stall-cost ranking tells them apart.
 */

#ifndef CXLSIM_MEM_TIERING_BACKEND_HH
#define CXLSIM_MEM_TIERING_BACKEND_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/backend.hh"

namespace cxlsim::mem {

/** Page-ranking metric for promotion decisions. */
enum class TieringPolicy : std::uint8_t {
    kStatic,       ///< no migration (first-touch stays put)
    kAccessCount,  ///< promote most-accessed pages
    kStallCost,    ///< promote pages with highest latency cost
};

/** Tiering statistics. */
struct TieringStats
{
    std::uint64_t epochs = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t fastAccesses = 0;
    std::uint64_t slowAccesses = 0;

    double
    fastFraction() const
    {
        const auto n = fastAccesses + slowAccesses;
        return n ? static_cast<double>(fastAccesses) /
                       static_cast<double>(n)
                 : 0.0;
    }
};

/** Two-tier backend with epoch-based page migration. */
class TieringBackend : public MemoryBackend
{
  public:
    struct Config
    {
        /** Page granularity. */
        std::uint64_t pageBytes = 512ULL << 10;
        /** Fast-tier capacity in bytes. */
        std::uint64_t fastCapacityBytes = 256ULL << 20;
        /** Epoch length. */
        Tick epoch = 50 * kTicksPerUs;
        TieringPolicy policy = TieringPolicy::kStallCost;
        /** Pages migrated per epoch at most (bounds migration
         *  bandwidth to a few GB/s, as real tiering systems do). */
        unsigned migrationsPerEpoch = 8;
    };

    TieringBackend(std::string name, BackendPtr fast,
                   BackendPtr slow, const Config &cfg);

    /** Serve timed-out slow-tier requests from the fast tier. */
    void enableFailover(bool on = true) { failover_ = on; }

    AccessResult accessEx(Addr addr, ReqType type, Tick now) override;
    void rasReport(std::vector<ras::RasReportEntry> *out)
        const override;
    const std::string &name() const override { return name_; }

    const TieringStats &tieringStats() const { return tstats_; }

  private:
    struct PageInfo
    {
        bool fast = false;
        std::uint64_t accesses = 0;
        double stallNs = 0.0;
    };

    /** Run the migration policy at an epoch boundary. */
    void runEpoch(Tick now);

    std::string name_;
    BackendPtr fast_;
    BackendPtr slow_;
    Config cfg_;

    std::unordered_map<std::uint64_t, PageInfo> pages_;
    std::uint64_t fastPagesUsed_ = 0;
    std::uint64_t fastPageBudget_;
    Tick nextEpoch_;
    TieringStats tstats_;
    bool failover_ = false;
    ras::RasStats rstats_;
};

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_TIERING_BACKEND_HH
