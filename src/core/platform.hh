/**
 * @file
 * Testbed platform builder (paper Table 1).
 *
 * A Platform pairs a CPU profile with a memory-backend factory for
 * a named memory setup. Supported setups:
 *
 *   "Local"                socket-local DRAM (the baseline)
 *   "NUMA"                 one cross-socket hop to remote DRAM
 *   "NUMA-140ns" / "NUMA-190ns" / "NUMA-410ns"
 *                          the SKX-based emulated latency points
 *   "CXL-A".."CXL-D"       the four CXL expanders, direct-attached
 *   "CXL-X+NUMA"           CXL device accessed from a remote socket
 *   "CXL-X+Switch"         one CXL switch between host and device
 *   "CXL-X+Switch2"        two switch hops ("CXL + multi-hops")
 *   "CXL-Dx2"              two CXL-D interleaved (Fig 8f)
 *
 * where X is A..D. No other name is accepted.
 *
 * Servers: "SPR2S", "EMR2S", "EMR2S'", "SKX2S", "SKX8S".
 */

#ifndef MELODY_CORE_PLATFORM_HH
#define MELODY_CORE_PLATFORM_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cpu/profile.hh"
#include "mem/backend.hh"

namespace melody {

/** A (server, memory setup) pair from Table 1. */
class Platform
{
  public:
    /**
     * @param server Server name (see file comment).
     * @param memory Memory setup name (see file comment).
     * @throw cxlsim::ConfigError on an unknown server or setup.
     */
    Platform(std::string server, std::string memory);

    const std::string &server() const { return server_; }
    const std::string &memory() const { return memory_; }

    /** "EMR:CXL-A"-style display name. */
    std::string displayName() const;

    /** CPU profile of the server. */
    const cxlsim::cpu::CpuProfile &cpu() const { return cpu_; }

    /**
     * Build a fresh memory backend for one experiment run.
     * Distinct seeds give independent stochastic behaviour.
     */
    cxlsim::mem::BackendPtr makeBackend(std::uint64_t seed) const;

  private:
    std::string server_;
    std::string memory_;
    cxlsim::cpu::CpuProfile cpu_;
};

/**
 * Paper-measured peak bandwidth (GB/s, Table 1) for a
 * (server, memory setup) pair — the single source for the
 * calibration targets the benches print and for bandwidth
 * normalization (e.g. Fig 3c utilization). CXL devices use the
 * mixed-traffic peak and are server-independent; "NUMA*" setups
 * use the server's remote-socket bandwidth; switch/NUMA-suffixed
 * CXL setups ("CXL-A+Switch", ...) resolve to the base device.
 *
 * @throw cxlsim::ConfigError on an unknown server or setup.
 */
double paperPeakGBps(const std::string &server,
                     const std::string &memory);

}  // namespace melody

#endif  // MELODY_CORE_PLATFORM_HH
