/**
 * @file
 * Cross-socket (NUMA) hop: a UPI-like duplex link in front of any
 * memory target. Composing it over a LocalDramBackend gives plain
 * NUMA memory; over a CxlBackend it gives the paper's CXL+NUMA
 * configuration, including the rate-coupled jitter responsible for
 * the surprising CXL+NUMA tail-latency slowdowns (§4, Fig 8c/d).
 */

#ifndef CXLSIM_MEM_NUMA_BACKEND_HH
#define CXLSIM_MEM_NUMA_BACKEND_HH

#include <cstdint>
#include <string>

#include "link/link.hh"
#include "mem/backend.hh"
#include "mem/jitter.hh"

namespace cxlsim::mem {

/** Parameters of one socket-to-socket hop. */
struct NumaHopConfig
{
    /** UPI link: per-direction effective GB/s and one-way ns. */
    link::LinkConfig upi{.gbpsPerDir = 97.0,
                         .propagationNs = 32.0,
                         .turnaroundNs = 0.0};
    /** Extra fixed latency beyond the link (remote CHA, snoops). */
    double extraNs = 8.0;
    /** Contention jitter (used for CXL+NUMA; zero for plain NUMA). */
    JitterParams jitter;
    std::uint64_t seed = 2;
};

/** A memory target accessed through one NUMA hop. */
class NumaBackend : public MemoryBackend
{
  public:
    NumaBackend(std::string name, BackendPtr target,
                const NumaHopConfig &cfg);

    Tick access(Addr addr, ReqType type, Tick now) override;
    const std::string &name() const override { return name_; }

    MemoryBackend &target() { return *target_; }

  private:
    std::string name_;
    BackendPtr target_;
    NumaHopConfig cfg_;
    /** cfg_.extraNs in ticks; the config never changes. */
    Tick extraTicks_;
    link::DuplexLink upi_;
    JitterProcess jitter_;
};

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_NUMA_BACKEND_HH
