/**
 * @file
 * Socket-local DRAM backend: integrated memory controller (iMC)
 * with N DDR channels behind the CPU uncore.
 */

#ifndef CXLSIM_MEM_LOCAL_BACKEND_HH
#define CXLSIM_MEM_LOCAL_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "mem/backend.hh"
#include "sim/fixed_divisor.hh"

namespace cxlsim::mem {

/** Configuration of a socket's local memory. */
struct LocalDramConfig
{
    std::string name = "Local";
    /** Uncore + iMC pipeline latency (mesh traversal, home agent,
     *  queue, response path), ns. */
    double baseNs = 68.0;
    /** Number of DDR channels on the socket. */
    unsigned channels = 8;
    dram::DramTiming timing;
    /** iMCs hide nearly all refreshes (mature controllers). */
    double refreshHiding = 0.995;
    std::uint64_t seed = 1;
};

/** Socket-local DRAM: the paper's performance baseline. */
class LocalDramBackend : public MemoryBackend
{
  public:
    explicit LocalDramBackend(const LocalDramConfig &cfg);

    Tick access(Addr addr, ReqType type, Tick now) override;
    const std::string &name() const override { return cfg_.name; }

    /** Theoretical peak bandwidth across channels, GB/s. */
    double peakGBps() const;

  private:
    LocalDramConfig cfg_;
    /** cfg_.baseNs in ticks; the config never changes. */
    Tick baseTicks_;
    std::vector<std::unique_ptr<dram::Channel>> channels_;
    FixedDivisor channelSplit_;
};

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_LOCAL_BACKEND_HH
