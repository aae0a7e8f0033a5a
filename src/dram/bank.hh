/**
 * @file
 * Open-page DRAM bank model.
 *
 * Each bank tracks its open row and the tick at which it next
 * becomes available. An access classifies as a row hit (CAS only),
 * row miss/conflict (precharge + activate + CAS) or cold activate
 * (activate + CAS), producing the per-request latency variation
 * that underlies local/NUMA's small tail (§3.2, "chip-level
 * factors such as row buffer misses").
 */

#ifndef CXLSIM_DRAM_BANK_HH
#define CXLSIM_DRAM_BANK_HH

#include <array>
#include <cstdint>

#include "dram/timing.hh"
#include "sim/types.hh"

namespace cxlsim::dram {

/** Outcome classification of a bank access. */
enum class RowResult : std::uint8_t { kHit, kMiss, kCold };

/** What one access outcome costs, in ticks. */
struct RowTicks
{
    /** Until the requested column's data is ready. */
    Tick latency;
    /** Until the bank takes its next command. */
    Tick occupancy;
};

/** RowTicks for each RowResult, indexed by it. */
using RowTickTable = std::array<RowTicks, 3>;

/**
 * Convert @p t's row timings to ticks. Each sum of nanoseconds is
 * rounded once, exactly as a per-access conversion would round it,
 * so a table built at construction prices every access the same.
 */
RowTickTable rowTickTable(const DramTiming &t);

/** One DRAM bank with an open-row register. */
class Bank
{
  public:
    /**
     * Reserve the bank for an access to @p row starting no earlier
     * than @p earliest and return when the requested line's data
     * transfer may begin on the bus.
     *
     * @param row      Row index being accessed.
     * @param earliest Earliest start tick (arrival / scheduler time).
     * @param ticks    The channel's rowTickTable().
     * @param result   Out: row hit/miss/cold classification.
     * @return Tick at which column data is available for the bus.
     */
    Tick access(std::uint64_t row, Tick earliest,
                const RowTickTable &ticks, RowResult *result);

    /** True if some row is open. */
    bool open() const { return open_; }

    /** Currently open row; only meaningful if open(). */
    std::uint64_t openRow() const { return row_; }

    /** Tick at which the bank is next free. */
    Tick freeAt() const { return freeAt_; }

    /** Force the bank busy through @p until (refresh). */
    void block(Tick until);

    /** Close the open row (e.g. after refresh). */
    void
    close()
    {
        open_ = false;
    }

  private:
    bool open_ = false;
    std::uint64_t row_ = 0;
    Tick freeAt_ = 0;
};

}  // namespace cxlsim::dram

#endif  // CXLSIM_DRAM_BANK_HH
