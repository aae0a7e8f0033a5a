/**
 * @file
 * TournamentTree: which of n agents acts next.
 *
 * Every closed-loop driver (the MLC probe, the Mio chases, the
 * multicore scheduler) keeps n agents, each with the tick of its next
 * event, and repeatedly advances the earliest one. A tie goes to the
 * lowest index, so the order in which requests reach a shared
 * backend, and with it every result, is fixed by the agents' state
 * alone.
 *
 * This is a winner tree over a power-of-two number of leaves: every
 * internal node holds the smaller of its two children's keys, so the
 * root holds the earliest entry. Setting or retiring an entry replays
 * its one leaf-to-root path, log2(n) minimum operations with no
 * branch on key order. A key packs (tick << indexBits) | index into
 * 64 bits, so comparing two keys compares (tick, index) pairs; a
 * retired entry holds the all-ones key, which sorts after every live
 * one.
 */

#ifndef CXLSIM_SIM_TOURNAMENT_TREE_HH
#define CXLSIM_SIM_TOURNAMENT_TREE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cxlsim {

class TournamentTree
{
  public:
    /** A tree of @p n entries, every one retired. */
    explicit TournamentTree(std::size_t n)
        : shift_(n > 1 ? static_cast<unsigned>(std::bit_width(n - 1)) : 0),
          leaves_(std::bit_ceil(std::max<std::size_t>(n, 1))),
          node_(2 * leaves_, kRetired)
    {
    }

    /** Make entry @p i live with next event at @p t. */
    void
    set(std::size_t i, Tick t)
    {
        replay(i, key(t, i));
    }

    /** Take entry @p i out until the next set(). */
    void retire(std::size_t i) { replay(i, kRetired); }

    /** Whether every entry is retired. */
    bool empty() const { return node_[1] == kRetired; }

    /** The earliest live entry, lowest index first; needs !empty(). */
    std::size_t
    top() const
    {
        return static_cast<std::size_t>(node_[1] & ((Tick{1} << shift_) - 1));
    }

    /** Whether (@p t, @p i) comes before every live entry (always,
     *  when none is live). */
    bool before(Tick t, std::size_t i) const { return key(t, i) < node_[1]; }

  private:
    static constexpr std::uint64_t kRetired = ~std::uint64_t{0};

    std::uint64_t
    key(Tick t, std::size_t i) const
    {
        // The largest index with the largest tick must stay below
        // kRetired.
        SIM_ASSERT(t < kRetired >> shift_, "tick too large to schedule");
        return t << shift_ | i;
    }

    void
    replay(std::size_t i, std::uint64_t k)
    {
        std::size_t j = leaves_ + i;
        node_[j] = k;
        for (; j > 1; j >>= 1) {
            k = std::min(k, node_[j ^ 1]);
            node_[j >> 1] = k;
        }
    }

    /** Bits of the index in a key. */
    unsigned shift_;
    std::size_t leaves_;
    /** node_[1] is the root; node_[leaves_ + i] is entry i. */
    std::vector<std::uint64_t> node_;
};

}  // namespace cxlsim

#endif  // CXLSIM_SIM_TOURNAMENT_TREE_HH
