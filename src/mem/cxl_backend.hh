/**
 * @file
 * CXL expander backend: host root-port overhead + a CxlDevice.
 */

#ifndef CXLSIM_MEM_CXL_BACKEND_HH
#define CXLSIM_MEM_CXL_BACKEND_HH

#include <cstdint>
#include <string>

#include "cxl/device.hh"
#include "mem/backend.hh"

namespace cxlsim::mem {

/** Host-side configuration for a directly attached CXL expander. */
struct CxlBackendConfig
{
    cxl::DeviceProfile profile;
    /** Switch hops between root port and device. */
    unsigned switchHops = 0;
    /** Uncore traversal from LLC miss to the CXL root port and the
     *  response path back, ns. */
    double hostOverheadNs = 40.0;
    std::uint64_t seed = 3;
};

/** A CXL type-3 memory expander as a memory backend. */
class CxlBackend : public MemoryBackend
{
  public:
    explicit CxlBackend(const CxlBackendConfig &cfg);

    Tick access(Addr addr, ReqType type, Tick now) override;
    const std::string &name() const override { return name_; }

    const cxl::CxlDevice &device() const { return device_; }
    cxl::CxlDevice &device() { return device_; }

  private:
    std::string name_;
    CxlBackendConfig cfg_;
    /** cfg_.hostOverheadNs in ticks; the config never changes. */
    Tick hostOverheadTicks_;
    cxl::CxlDevice device_;
};

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_CXL_BACKEND_HH
