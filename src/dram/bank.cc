#include "bank.hh"

#include <algorithm>

namespace cxlsim::dram {

RowTickTable
rowTickTable(const DramTiming &t)
{
    // Latency is what the requester waits for; occupancy is how
    // long the bank blocks further commands. Column accesses to an
    // open row pipeline at the burst rate, so a row hit occupies
    // the bank far shorter than its tCL latency.
    RowTickTable table;
    table[static_cast<unsigned>(RowResult::kHit)] = {
        nsToTicks(t.tCL), nsToTicks(t.burst)};
    table[static_cast<unsigned>(RowResult::kMiss)] = {
        nsToTicks(t.tRP + t.tRCD + t.tCL),
        nsToTicks(t.tRP + t.tRCD + t.burst)};
    table[static_cast<unsigned>(RowResult::kCold)] = {
        nsToTicks(t.tRCD + t.tCL), nsToTicks(t.tRCD + t.burst)};
    return table;
}

Tick
Bank::access(std::uint64_t row, Tick earliest,
             const RowTickTable &ticks, RowResult *result)
{
    const Tick start = std::max(earliest, freeAt_);
    const RowResult r = !open_        ? RowResult::kCold
                        : row_ == row ? RowResult::kHit
                                      : RowResult::kMiss;
    open_ = true;
    row_ = row;
    const RowTicks &cost = ticks[static_cast<unsigned>(r)];
    freeAt_ = start + cost.occupancy;
    if (result)
        *result = r;
    return start + cost.latency;
}

void
Bank::block(Tick until)
{
    freeAt_ = std::max(freeAt_, until);
}

}  // namespace cxlsim::dram
