#include "platform.hh"

#include "cxl/device_profile.hh"
#include "dram/timing.hh"
#include "mem/cxl_backend.hh"
#include "mem/interleaved_backend.hh"
#include "mem/local_backend.hh"
#include "mem/numa_backend.hh"
#include "mem/region_router.hh"
#include "sim/logging.hh"

namespace melody {

using namespace cxlsim;

namespace {

/** Per-server local-DRAM and UPI parameters (calibrated to the
 *  Table 1 Local/Remote latency and bandwidth columns). */
struct ServerSpec
{
    cpu::CpuProfile cpu;
    mem::LocalDramConfig local;
    /** UPI effective GB/s per direction and one-way ns. */
    double upiGBps;
    double upiPropNs;
};

ServerSpec
serverSpec(const std::string &server)
{
    ServerSpec s;
    if (server == "SPR2S") {
        s.cpu = cpu::spr();
        s.local.baseNs = 66.0;  // -> ~114ns idle random latency
        s.local.channels = 8;
        s.local.timing = dram::ddr5_4800();
        s.upiGBps = 97.0;
        s.upiPropNs = 33.0;     // -> ~191ns remote
    } else if (server == "EMR2S") {
        s.cpu = cpu::emr();
        s.local.baseNs = 63.0;  // -> ~111ns
        s.local.channels = 8;
        s.local.timing = dram::ddr5_4800();
        s.upiGBps = 120.0;
        s.upiPropNs = 36.0;     // -> ~193ns
    } else if (server == "EMR2S'") {
        s.cpu = cpu::emrPrime();
        s.local.baseNs = 69.0;  // -> ~117ns
        s.local.channels = 8;
        s.local.timing = dram::ddr5_4800();
        s.upiGBps = 119.0;
        s.upiPropNs = 43.0;     // -> ~212ns
    } else if (server == "SKX2S") {
        s.cpu = cpu::skx();
        s.local.baseNs = 40.0;  // -> ~90ns
        s.local.channels = 6;
        s.local.timing = dram::ddr4_2933();
        s.upiGBps = 32.0;
        s.upiPropNs = 21.0;     // -> ~140ns
    } else if (server == "SKX8S") {
        s.cpu = cpu::skx();
        s.cpu.name = "SKX8S";
        s.cpu.freqGhz = 2.5;
        s.cpu.l3 = {38500ULL * 1024, 11, 46.0};
        s.local.baseNs = 33.0;  // -> ~81ns
        s.local.channels = 6;
        s.local.timing = dram::ddr4_2933();
        s.upiGBps = 7.0;        // 8-socket multi-hop path
        s.upiPropNs = 160.0;    // -> ~410ns
    } else {
        throw ConfigError("unknown server: " + server);
    }
    s.local.name = "Local";
    return s;
}

/** A memory setup name, parsed (see platform.hh for the list). */
struct MemorySetup
{
    enum class Kind : std::uint8_t { kLocal, kNuma, kCxl, kCxlDx2 };
    Kind kind;
    /** Base device ("CXL-A".."CXL-D") of the CXL kinds. */
    std::string device = {};
    /** One-way UPI propagation of the SKX emulated NUMA points, ns;
     *  0 keeps the server's own. */
    double upiPropNs = 0.0;
    unsigned switchHops = 0;
    /** CXL device reached across one NUMA hop ("CXL-X+NUMA"). */
    bool numaHop = false;
};

/** @throw ConfigError unless @p memory is one of the listed names. */
MemorySetup
parseMemory(const std::string &memory)
{
    using Kind = MemorySetup::Kind;
    if (memory == "Local")
        return {.kind = Kind::kLocal};
    if (memory == "NUMA")
        return {.kind = Kind::kNuma};
    if (memory == "NUMA-140ns")
        return {.kind = Kind::kNuma, .upiPropNs = 21.0};
    if (memory == "NUMA-190ns")
        return {.kind = Kind::kNuma, .upiPropNs = 46.0};  // low uncore clock
    if (memory == "NUMA-410ns")
        return {.kind = Kind::kNuma, .upiPropNs = 160.0};
    if (memory == "CXL-Dx2")
        return {.kind = Kind::kCxlDx2, .device = "CXL-D"};
    if (memory.size() >= 5 && memory.compare(0, 4, "CXL-") == 0 &&
        memory[4] >= 'A' && memory[4] <= 'D') {
        MemorySetup m{.kind = Kind::kCxl, .device = memory.substr(0, 5)};
        const std::string suffix = memory.substr(5);
        if (suffix == "+NUMA")
            m.numaHop = true;
        else if (suffix == "+Switch")
            m.switchHops = 1;
        else if (suffix == "+Switch2")
            m.switchHops = 2;
        if (suffix.empty() || m.numaHop || m.switchHops)
            return m;
    }
    throw ConfigError("unknown memory setup: " + memory);
}

}  // namespace

Platform::Platform(std::string server, std::string memory)
    : server_(std::move(server)), memory_(std::move(memory)),
      cpu_(serverSpec(server_).cpu)
{
    parseMemory(memory_);
}

std::string
Platform::displayName() const
{
    return cpu_.name + ":" + memory_;
}

mem::BackendPtr
Platform::makeBackend(std::uint64_t seed) const
{
    const ServerSpec s = serverSpec(server_);
    const MemorySetup m = parseMemory(memory_);

    auto makeLocal = [&](std::uint64_t sd) {
        mem::LocalDramConfig cfg = s.local;
        cfg.seed = sd;
        return std::make_unique<mem::LocalDramBackend>(cfg);
    };

    switch (m.kind) {
      case MemorySetup::Kind::kLocal:
        return makeLocal(seed);

      case MemorySetup::Kind::kNuma: {
        mem::NumaHopConfig hop;
        hop.upi.gbpsPerDir = s.upiGBps;
        hop.upi.propagationNs =
            m.upiPropNs > 0.0 ? m.upiPropNs : s.upiPropNs;
        hop.seed = seed ^ 0x5bd1e995;
        return std::make_unique<mem::NumaBackend>(
            memory_, makeLocal(seed + 1), hop);
      }

      case MemorySetup::Kind::kCxlDx2: {
        std::vector<mem::BackendPtr> devs;
        for (unsigned i = 0; i < 2; ++i) {
            mem::CxlBackendConfig cfg;
            cfg.profile = cxl::cxlD();
            cfg.seed = seed + 17 * (i + 1);
            devs.push_back(std::make_unique<mem::CxlBackend>(cfg));
        }
        return std::make_unique<mem::InterleavedBackend>(
            "CXL-Dx2", std::move(devs));
      }

      case MemorySetup::Kind::kCxl:
        break;
    }

    mem::CxlBackendConfig cfg;
    cfg.profile = cxl::profileByName(m.device);
    cfg.seed = seed ^ 0x85ebca6b;
    cfg.switchHops = m.switchHops;
    auto device = std::make_unique<mem::CxlBackend>(cfg);
    if (!m.numaHop)
        return device;

    mem::NumaHopConfig hop;
    hop.upi.gbpsPerDir = s.upiGBps;
    hop.upi.propagationNs = s.upiPropNs;
    hop.extraNs = 8.0 + cfg.profile.numaExtraNs;
    // CXL traffic crossing UPI: contention-coupled jitter — the
    // source of the paper's CXL+NUMA tail anomaly.
    hop.jitter.probAtRef = 0.02;
    hop.jitter.refReqPerUs = 1.5;
    hop.jitter.minNs = 150.0;
    hop.jitter.maxNs = 800.0;
    hop.jitter.alpha = 1.1;
    hop.jitter.episodeProb = 0.012;
    hop.jitter.episodeDurUs = 15.0;
    hop.jitter.episodeMinNs = 800.0;
    hop.jitter.episodeMaxNs = 3500.0;
    hop.jitter.episodeAlpha = 1.3;
    hop.seed = seed ^ 0xc2b2ae35;
    return std::make_unique<mem::NumaBackend>(memory_, std::move(device),
                                              hop);
}

double
paperPeakGBps(const std::string &server, const std::string &memory)
{
    // Table 1 calibration targets. CXL rows are the mixed-traffic
    // peaks of the devices themselves, so any server and any
    // switch/NUMA path resolves to the base device's number.
    const MemorySetup m = parseMemory(memory);
    if (!m.device.empty()) {
        if (m.device == "CXL-A")
            return 32.0;
        if (m.device == "CXL-B")
            return 26.0;
        if (m.device == "CXL-C")
            return 21.0;
        return 59.0;  // CXL-D
    }

    struct SrvBw
    {
        const char *server;
        double localGBps;
        double remoteGBps;
    };
    static constexpr SrvBw kServers[] = {
        {"SPR2S", 218.0, 97.0},  {"EMR2S", 246.0, 120.0},
        {"EMR2S'", 236.0, 119.0}, {"SKX2S", 52.0, 32.0},
        {"SKX8S", 109.0, 7.0},
    };
    for (const SrvBw &s : kServers) {
        if (server != s.server)
            continue;
        return m.kind == MemorySetup::Kind::kLocal ? s.localGBps
                                                    : s.remoteGBps;
    }
    throw ConfigError("paperPeakGBps: unknown server: " + server);
}

}  // namespace melody
