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
 *
 * Fault injection (optional, off by default): a seeded per-flit CRC
 * error process triggers CXL LLR-style replay — each replay round
 * re-occupies the serializer for a configurable latency; when the
 * replay budget is exhausted the flit is lost and sendEx() reports
 * the transfer failed, which the device layer escalates to a
 * link-down health event.
 */

#ifndef CXLSIM_LINK_LINK_HH
#define CXLSIM_LINK_LINK_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "ras/ras.hh"
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

/** Arrival tick plus transport outcome of one transfer. */
struct SendResult
{
    /** Tick the flit (or its loss) is known at the far end. */
    Tick at;
    /** True when LLR replays were exhausted and the flit was lost. */
    bool lost;
};

/** Full-duplex link: independent serialization per direction. */
class DuplexLink
{
  public:
    explicit DuplexLink(const LinkConfig &cfg) : cfg_(cfg) {}

    /**
     * Transfer @p bytes in direction @p dir starting no earlier
     * than @p now; returns arrival tick at the far end.
     */
    Tick send(unsigned bytes, Dir dir, Tick now)
    {
        return sendEx(bytes, dir, now).at;
    }

    /** As send(), but also report transport failure (CRC/LLR). */
    SendResult sendEx(unsigned bytes, Dir dir, Tick now);

    /** Arm the CRC/replay fault process with a dedicated stream. */
    void enableFaults(const ras::LinkFaultParams &p,
                      std::uint64_t seed);

    /** Tick the direction's serializer frees. */
    Tick freeAt(Dir dir) const { return freeAt_[unsigned(dir)]; }

    const LinkStats &stats() const { return stats_; }
    const LinkConfig &config() const { return cfg_; }

    /** Accumulate link-layer fault counters into @p out. */
    void addRasTo(ras::RasStats *out) const;

  private:
    LinkConfig cfg_;
    Tick freeAt_[2] = {0, 0};
    LinkStats stats_;
    /** Null when fault injection is disabled (the default). */
    std::unique_ptr<ras::LinkFaultProcess> faults_;
};

/** Half-duplex link: both directions share one medium. */
class HalfDuplexLink
{
  public:
    explicit HalfDuplexLink(const LinkConfig &cfg) : cfg_(cfg) {}

    Tick send(unsigned bytes, Dir dir, Tick now)
    {
        return sendEx(bytes, dir, now).at;
    }

    SendResult sendEx(unsigned bytes, Dir dir, Tick now);

    void enableFaults(const ras::LinkFaultParams &p,
                      std::uint64_t seed);

    Tick freeAt() const { return freeAt_; }
    const LinkStats &stats() const { return stats_; }
    const LinkConfig &config() const { return cfg_; }

    void addRasTo(ras::RasStats *out) const;

  private:
    LinkConfig cfg_;
    Tick freeAt_ = 0;
    bool lastDirFrom_ = false;
    LinkStats stats_;
    std::unique_ptr<ras::LinkFaultProcess> faults_;
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
