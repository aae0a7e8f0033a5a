/**
 * @file
 * Point-to-point interconnect models.
 *
 * Three link flavours cover the paper's topologies:
 *  - DuplexLink: two independent directions with separate
 *    serialization capacity — models CXL/PCIe Flex Bus links and
 *    UPI cross-socket links, which sustain simultaneous read and
 *    write traffic (§2, "CXL operates in full duplex").
 *  - HalfDuplexLink: a single shared medium with a turnaround
 *    penalty when the transfer direction flips — models the
 *    FPGA-based CXL-C device, whose unoptimized CXL IP cannot
 *    drive both directions concurrently (§3.2, Finding #1e).
 *
 * A link transfer is charged serialization (bytes at the effective
 * rate) plus fixed propagation (PHY + transaction/link layer
 * processing, single-digit to tens of ns).
 */

#ifndef CXLSIM_LINK_LINK_HH
#define CXLSIM_LINK_LINK_HH

#include <algorithm>
#include <cstdint>

#include "sim/types.hh"

namespace cxlsim::link {

/** Transfer direction relative to the host. */
enum class Dir : std::uint8_t { kToDevice = 0, kFromDevice = 1 };

/** Occupancy/throughput counters per direction. */
struct LinkStats
{
    std::uint64_t transfers[2] = {0, 0};
    std::uint64_t bytes[2] = {0, 0};
};

/** Common link configuration. */
struct LinkConfig
{
    /** Effective per-direction data rate in GB/s (after protocol
     *  framing overheads such as 68B flits carrying 64B payloads). */
    double gbpsPerDir = 32.0;
    /** One-way propagation + protocol processing latency, ns. */
    double propagationNs = 25.0;
    /** Direction turnaround penalty, ns (half-duplex only). */
    double turnaroundNs = 20.0;
};

/** Full-duplex link: independent serialization per direction. */
class DuplexLink
{
  public:
    explicit DuplexLink(const LinkConfig &cfg) : cfg_(cfg) {}

    /**
     * Transfer @p bytes in direction @p dir starting no earlier
     * than @p now; returns the arrival tick at the far end.
     */
    [[nodiscard]] Tick send(unsigned bytes, Dir dir, Tick now);

    /** Tick the direction's serializer frees. */
    Tick freeAt(Dir dir) const { return freeAt_[unsigned(dir)]; }

    const LinkStats &stats() const { return stats_; }
    const LinkConfig &config() const { return cfg_; }

  private:
    LinkConfig cfg_;
    Tick freeAt_[2] = {0, 0};
    LinkStats stats_;
};

/** Half-duplex link: both directions share one medium. */
class HalfDuplexLink
{
  public:
    explicit HalfDuplexLink(const LinkConfig &cfg) : cfg_(cfg) {}

    [[nodiscard]] Tick send(unsigned bytes, Dir dir, Tick now);

    Tick freeAt() const { return freeAt_; }
    const LinkStats &stats() const { return stats_; }
    const LinkConfig &config() const { return cfg_; }

  private:
    LinkConfig cfg_;
    Tick freeAt_ = 0;
    bool lastDirFrom_ = false;
    LinkStats stats_;
};

/** Serialization ticks for @p bytes at @p gbps. */
inline Tick
serializationTicks(unsigned bytes, double gbps)
{
    // bytes / (GB/s) = ns when GB == 1e9 bytes.
    return nsToTicks(static_cast<double>(bytes) / gbps);
}

}  // namespace cxlsim::link

#endif  // CXLSIM_LINK_LINK_HH
