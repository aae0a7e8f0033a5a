/**
 * @file
 * DRAM channel model: banks + shared data bus + refresh.
 *
 * The channel serializes 64B transfers on its data bus, charges
 * read/write turnaround when the transfer direction flips, and
 * injects refresh blocking. Refresh visibility is configurable:
 * mature integrated memory controllers hide almost all refreshes by
 * scheduling them into idle gaps, while the paper finds CXL memory
 * controllers to be less effective at this — one ingredient of
 * CXL's larger tail latencies (Finding #1).
 */

#ifndef CXLSIM_DRAM_CHANNEL_HH
#define CXLSIM_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "dram/bank.hh"
#include "dram/timing.hh"
#include "sim/fixed_divisor.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace cxlsim::dram {

/** Aggregate counters for one channel. */
struct ChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowCold = 0;
    std::uint64_t refreshStalls = 0;
    std::uint64_t turnarounds = 0;

    double
    rowHitRate() const
    {
        const auto n = reads + writes;
        return n ? static_cast<double>(rowHits) /
                       static_cast<double>(n)
                 : 0.0;
    }
};

/** Configuration beyond raw DDR timing. */
struct ChannelConfig
{
    DramTiming timing;
    /**
     * Fraction of refreshes the controller hides in idle gaps.
     * ~0.97 for a tuned iMC; lower for third-party CXL MCs.
     */
    double refreshHiding = 0.97;
    /** RNG seed for address-independent chip effects. */
    std::uint64_t seed = 1;
};

/**
 * One DDR channel. Accesses are processed in call order (FCFS at
 * the channel; per-bank timing provides service-time variation).
 */
class Channel
{
  public:
    explicit Channel(const ChannelConfig &cfg);

    /**
     * Perform a 64B access.
     *
     * @param addr     Line-aligned physical address (within device).
     * @param is_write True for a write (DRAM write burst).
     * @param now      Arrival tick at the channel scheduler.
     * @return Completion tick: data on bus (read) or write retired.
     */
    Tick access(Addr addr, bool is_write, Tick now);

    const ChannelStats &stats() const { return stats_; }
    const DramTiming &timing() const { return cfg_.timing; }

    /** Tick at which the data bus frees; used for utilization. */
    Tick busFreeAt() const { return busFreeAt_; }

    void resetStats() { stats_ = ChannelStats{}; }

  private:
    /** Apply refresh blocking that overlaps [start, ...). */
    void applyRefresh(unsigned bank, Tick start);

    ChannelConfig cfg_;
    // cfg_.timing in ticks and as divisors, computed once: the
    // config never changes after construction.
    RowTickTable rowTicks_;
    Tick refi_;
    Tick rfc_;
    Tick burst_;
    Tick turnaround_;
    FixedDivisor rowSplit_;
    FixedDivisor bankSplit_;

    std::vector<Bank> banks_;
    Rng rng_;
    Tick busFreeAt_ = 0;
    bool lastWasWrite_ = false;
    /** Next scheduled refresh window start, per bank (staggered). */
    std::vector<Tick> nextRefresh_;
    ChannelStats stats_;
};

}  // namespace cxlsim::dram

#endif  // CXLSIM_DRAM_CHANNEL_HH
