/**
 * @file
 * FixedDivisor: split an index by a divisor fixed at construction.
 *
 * The memory path splits every request's address by a handful of
 * geometry constants: a channel's row size and bank count, a
 * controller's or socket's channel count, an interleave's device
 * count. Most are powers of two, for which a shift and a mask give
 * the exact quotient and remainder without a 64-bit division; the
 * others (six DDR4 channels on SKX) keep `/` and `%`. Either way the
 * result equals x / d and x % d for every 64-bit x.
 */

#ifndef CXLSIM_SIM_FIXED_DIVISOR_HH
#define CXLSIM_SIM_FIXED_DIVISOR_HH

#include <bit>
#include <cstdint>

#include "sim/logging.hh"

namespace cxlsim {

class FixedDivisor
{
  public:
    /** Divide by @p d, which must be nonzero. */
    explicit FixedDivisor(std::uint64_t d)
        : d_(d), pow2_(std::has_single_bit(d)),
          shift_(pow2_ ? static_cast<unsigned>(std::countr_zero(d)) : 0)
    {
        SIM_ASSERT(d != 0, "FixedDivisor needs a nonzero divisor");
    }

    /** x / d. */
    std::uint64_t
    quot(std::uint64_t x) const
    {
        return pow2_ ? x >> shift_ : x / d_;
    }

    /** x % d. */
    std::uint64_t
    rem(std::uint64_t x) const
    {
        return pow2_ ? x & (d_ - 1) : x % d_;
    }

  private:
    std::uint64_t d_;
    bool pow2_;
    unsigned shift_;
};

}  // namespace cxlsim

#endif  // CXLSIM_SIM_FIXED_DIVISOR_HH
