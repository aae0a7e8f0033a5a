/**
 * @file
 * CXL expander backend: host root-port overhead + a CxlDevice.
 */

#ifndef CXLSIM_MEM_CXL_BACKEND_HH
#define CXLSIM_MEM_CXL_BACKEND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cxl/device.hh"
#include "mem/backend.hh"
#include "ras/fault_plan.hh"

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
    /** Fault-injection plan (default: everything disabled). */
    ras::FaultPlan faultPlan;
    /** This device's index in the plan's scheduled events. */
    unsigned deviceIndex = 0;
};

/**
 * A CXL type-3 memory expander as a memory backend.
 *
 * With a FaultPlan armed, the backend also models the host's
 * recovery path: a completion timer per request, exponential
 * backoff between re-issues, and a bounded retry budget. A request
 * that exhausts the budget surfaces kTimeout to the caller
 * (RegionRouter/TieringBackend fail over; the CPU records a
 * machine check on demand loads).
 */
class CxlBackend : public MemoryBackend
{
  public:
    explicit CxlBackend(const CxlBackendConfig &cfg);

    AccessResult accessEx(Addr addr, ReqType type, Tick now) override;
    void rasReport(std::vector<ras::RasReportEntry> *out)
        const override;
    const std::string &name() const override { return name_; }

    const cxl::CxlDevice &device() const { return device_; }
    cxl::CxlDevice &device() { return device_; }

  private:
    std::string name_;
    CxlBackendConfig cfg_;
    cxl::CxlDevice device_;
    /** Host-side recovery counters (retries, timeouts). */
    ras::RasStats hostStats_;
};

}  // namespace cxlsim::mem

#endif  // CXLSIM_MEM_CXL_BACKEND_HH
