/**
 * @file
 * MemoryHierarchy: per-core L1/L2, shared LLC, hardware
 * prefetchers, and the memory backend (local DRAM / NUMA / CXL).
 *
 * This implements the request-processing flow of paper Figure 2a:
 * demand loads walk L1 -> L2 -> LLC -> backend; the L1 stride
 * prefetcher trains on demand loads and the L2 streamer on L1
 * misses; stores issue RFOs. Every fill installs a *pending* line
 * whose home StallTag determines where a demand load waiting on it
 * is charged — the substrate for Spa's slowdown breakdown.
 */

#ifndef CXLSIM_CPU_HIERARCHY_HH
#define CXLSIM_CPU_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/prefetcher.hh"
#include "cpu/profile.hh"
#include "mem/backend.hh"
#include "sim/types.hh"

namespace cxlsim::cpu {

/** Prefetcher event counts, per core (feeds Figure 12). */
struct PfStats
{
    std::uint64_t l1pfIssued = 0;
    std::uint64_t l1pfL3Miss = 0;
    std::uint64_t l1pfL3Hit = 0;
    std::uint64_t l2pfIssued = 0;
    std::uint64_t l2pfL3Miss = 0;
    std::uint64_t l2pfL3Hit = 0;
    std::uint64_t demandL3Miss = 0;
    /** Store RFOs that fell through to the memory backend. */
    std::uint64_t rfoFetches = 0;
    /** Dirty LLC victims written back to the memory backend. */
    std::uint64_t writebacks = 0;
};

/** Outcome of a demand load. */
struct LoadOutcome
{
    /** Tick at which the data is usable by the core. */
    Tick readyAt;
    /** Attribution level if the core must wait. */
    StallTag tag;
    /** True when served without any wait (ready L1 hit). */
    bool immediate;
};

/** The full cache/memory subsystem for one simulated socket. */
class MemoryHierarchy
{
  public:
    /**
     * @param profile  CPU microarchitecture.
     * @param cores    Number of cores sharing the LLC.
     * @param backend  Memory behind the LLC (not owned).
     * @param prefetchers_on Master enable for HW prefetchers
     *                 (the paper's prefetcher-off experiments).
     */
    MemoryHierarchy(const CpuProfile &profile, unsigned cores,
                    mem::MemoryBackend *backend,
                    bool prefetchers_on = true);

    /** Demand load; trains prefetchers and may issue fills. */
    LoadOutcome demandLoad(unsigned core, Addr addr,
                           unsigned stream_id, Tick now);

    /**
     * Cache pre-warming for steady-state measurements: install
     * @p ranges[c] as resident (ready at tick 0) in core c's L2, and
     * every range, in core order, in the shared LLC. One range per
     * core; call once, before any access (Cache::fill).
     */
    void preload(const std::vector<LineRange> &ranges);

    /**
     * Read-for-ownership for a store; returns the tick at which
     * the store-buffer entry can drain.
     */
    Tick storeRfo(unsigned core, Addr addr, Tick now);

    const PfStats &pfStats(unsigned core) const
    {
        return percore_[core]->pf;
    }

    const Cache &l1(unsigned core) const { return percore_[core]->l1; }
    const Cache &l2(unsigned core) const { return percore_[core]->l2; }
    const Cache &l3() const { return l3_; }

    mem::MemoryBackend &backend() { return *backend_; }

    /** Ticks for one core cycle (derived from the CPU profile). */
    double tickPerCycle() const { return tickPerCycle_; }

  private:
    struct PerCore
    {
        explicit PerCore(const CpuProfile &p);

        Cache l1;
        Cache l2;
        StridePrefetcher l1pf;
        StreamPrefetcher l2pf;
        std::priority_queue<Tick, std::vector<Tick>,
                            std::greater<>> l1pfInflight;
        std::priority_queue<Tick, std::vector<Tick>,
                            std::greater<>> l2pfInflight;
        /** EWMA of L2PF fill latency (ns): the streamer throttles
         *  its depth when its prefetches come back late, as real
         *  feedback-directed prefetchers do — the mechanism behind
         *  the paper's L2PF->L1PF coverage transfer (Fig 12). */
        double l2pfLatEwmaNs = 100.0;
        PfStats pf;
        /** Each prefetcher's nominations, reused across triggers. */
        std::vector<Addr> l1pfCands;
        std::vector<Addr> l2pfCands;
    };

    Tick cyclesToTicks(double cycles) const
    {
        return static_cast<Tick>(cycles * tickPerCycle_ + 0.5);
    }

    /** Handle a (possibly dirty) eviction from level @p from. */
    void handleEviction(PerCore *pc, unsigned from_level,
                        const Eviction &ev, Tick now);

    void runL1Prefetcher(PerCore &pc, unsigned stream_id,
                         Addr line, Tick now);
    void runL2Prefetcher(PerCore &pc, Addr line, Tick now);

    static void purge(std::priority_queue<Tick, std::vector<Tick>,
                                          std::greater<>> *q,
                      Tick now);

    CpuProfile profile_;
    double tickPerCycle_;
    bool prefetchersOn_;
    mem::MemoryBackend *backend_;
    /** Built before the per-core caches, so it is the one that takes
     *  the thread's spare cache mapping (see Cache::Cache). */
    Cache l3_;
    std::vector<std::unique_ptr<PerCore>> percore_;
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_HIERARCHY_HH
