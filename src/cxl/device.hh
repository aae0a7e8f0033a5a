/**
 * @file
 * Assembled CXL type-3 memory expander: Flex Bus link(s) +
 * controller + DDR channels, optionally behind one or more CXL
 * switches (each switch adds a store-and-forward stage, the
 * "CXL+Switch" and "CXL + multi-hops" points in Figure 1).
 */

#ifndef CXLSIM_CXL_DEVICE_HH
#define CXLSIM_CXL_DEVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cxl/controller.hh"
#include "cxl/device_profile.hh"
#include "link/link.hh"
#include "sim/types.hh"

namespace cxlsim::cxl {

/** Bytes on the wire for each message class (header overheads are
 *  folded into the links' effective rates). */
constexpr unsigned kReadRequestBytes = 16;
constexpr unsigned kDataBytes = 64;
constexpr unsigned kCompletionBytes = 8;

/**
 * One CXL memory expander as seen from a host root port.
 *
 * read()/write() take the tick the request leaves the host's
 * uncore and return the tick the response reaches it.
 */
class CxlDevice
{
  public:
    /**
     * @param profile     Vendor preset (cxlA()..cxlD()).
     * @param seed        Determinism seed.
     * @param switch_hops Number of CXL switches between host and
     *                    device (0 = direct attach).
     */
    CxlDevice(const DeviceProfile &profile, std::uint64_t seed,
              unsigned switch_hops = 0);

    /** 64B read: request down, DRAM access, data back. */
    [[nodiscard]] Tick read(Addr addr, Tick host_issue);

    /** 64B write: data down, DRAM write, completion (NDR) back. */
    [[nodiscard]] Tick write(Addr addr, Tick host_issue);

    const DeviceProfile &profile() const { return profile_; }
    const ControllerStats &controllerStats() const
    {
        return ctrl_.stats();
    }
    double utilization() const { return ctrl_.utilization(); }

    /** Total bytes moved over the device link (both directions). */
    std::uint64_t linkBytes() const;

  private:
    Tick sendLink(unsigned bytes, link::Dir dir, Tick now);
    Tick throughSwitches(unsigned bytes, link::Dir dir, Tick now);

    DeviceProfile profile_;
    // Exactly one of the two links exists, per profile.halfDuplexLink.
    std::unique_ptr<link::DuplexLink> duplex_;
    std::unique_ptr<link::HalfDuplexLink> halfDuplex_;
    /** Store-and-forward switch stages (host-side first). */
    std::vector<std::unique_ptr<link::DuplexLink>> switches_;
    /** A posted write's command path to the controller, in ticks. */
    Tick cmdPropTicks_;
    CxlController ctrl_;
};

}  // namespace cxlsim::cxl

#endif  // CXLSIM_CXL_DEVICE_HH
