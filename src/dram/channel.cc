#include "channel.hh"

#include <algorithm>

namespace cxlsim::dram {

Channel::Channel(const ChannelConfig &cfg)
    : cfg_(cfg), rowTicks_(rowTickTable(cfg.timing)),
      refi_(nsToTicks(cfg.timing.tREFI)),
      rfc_(nsToTicks(cfg.timing.tRFC)),
      burst_(nsToTicks(cfg.timing.burst)),
      turnaround_(nsToTicks(cfg.timing.turnaround)),
      rowSplit_(cfg.timing.rowBytes), bankSplit_(cfg.timing.banks),
      banks_(cfg.timing.banks), rng_(cfg.seed),
      nextRefresh_(cfg.timing.banks)
{
    // Stagger per-bank refresh windows across the refresh interval
    // so they do not all fire at once.
    for (unsigned b = 0; b < banks_.size(); ++b)
        nextRefresh_[b] = refi_ * (b + 1) / banks_.size();
}

void
Channel::applyRefresh(unsigned bank, Tick start)
{
    // Catch the refresh schedule up to 'start'. Hidden refreshes
    // were absorbed into idle gaps; visible ones block the bank.
    while (nextRefresh_[bank] + rfc_ <= start)
        nextRefresh_[bank] += refi_;
    if (nextRefresh_[bank] <= start) {
        // A refresh window covers 'start'.
        if (!rng_.chance(cfg_.refreshHiding)) {
            banks_[bank].block(nextRefresh_[bank] + rfc_);
            banks_[bank].close();
            ++stats_.refreshStalls;
        }
        nextRefresh_[bank] += refi_;
    }
}

Tick
Channel::access(Addr addr, bool is_write, Tick now)
{
    // Row-contiguous mapping with a hashed bank index: consecutive
    // lines share a row (streams get row hits), while rows scatter
    // pseudo-randomly over banks so independent streams do not
    // convoy on one bank even when their regions are bank-aligned
    // (real controllers hash bank bits for the same reason).
    const std::uint64_t row = rowSplit_.quot(addr);
    const unsigned bank = static_cast<unsigned>(
        bankSplit_.rem((row * 0x9e3779b97f4a7c15ULL) >> 32));

    applyRefresh(bank, now);

    RowResult rr;
    const Tick colReady = banks_[bank].access(row, now, rowTicks_, &rr);
    switch (rr) {
      case RowResult::kHit:
        ++stats_.rowHits;
        break;
      case RowResult::kMiss:
        ++stats_.rowMisses;
        break;
      case RowResult::kCold:
        ++stats_.rowCold;
        break;
    }

    // Serialize the 64B burst on the shared data bus.
    Tick busStart = std::max(colReady, busFreeAt_);
    if (is_write != lastWasWrite_) {
        busStart += turnaround_;
        ++stats_.turnarounds;
        lastWasWrite_ = is_write;
    }
    const Tick done = busStart + burst_;
    busFreeAt_ = done;

    if (is_write) {
        ++stats_.writes;
        // Consecutive writes to an open row pipeline at the burst
        // rate; write recovery (tWR) only gates a subsequent
        // precharge, which the row-miss path already prices in.
    } else {
        ++stats_.reads;
    }
    return done;
}

}  // namespace cxlsim::dram
