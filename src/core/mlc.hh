/**
 * @file
 * MlcProbe: an Intel MLC-style loaded-latency / bandwidth probe.
 *
 * Methodology mirrors §3.2: one foreground latency thread performs
 * a dependent pointer chase while T traffic threads inject
 * read/write streams, each pacing itself with a configurable delay
 * (0-40K cycles) between accesses — sweeping the delay moves the
 * device from idle to saturation. Latency is measured per chase
 * step; bandwidth is total bytes over the measurement window.
 *
 * Every outstanding slot (trafficThreads x slotsPerThread, then the
 * chase) is one closed-loop agent; the slot with the earliest next
 * issue goes next, the lowest index on a tie (a TournamentTree).
 */

#ifndef MELODY_CORE_MLC_HH
#define MELODY_CORE_MLC_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/backend.hh"
#include "stats/histogram.hh"

namespace melody {

/** Probe configuration. */
struct MlcConfig
{
    /** Traffic-generating threads (paper uses 31). */
    unsigned trafficThreads = 31;
    /** Outstanding slots per traffic thread (streaming MLP from
     *  AVX + HW prefetch in real MLC). */
    unsigned slotsPerThread = 24;
    /** Fraction of traffic accesses that are reads. */
    double readFrac = 1.0;
    /** Injected delay between accesses, in 2.1GHz cycles. */
    double delayCycles = 0.0;
    /** Simulated measurement window. */
    double windowUs = 400.0;
    /** Warmup before measuring. */
    double warmupUs = 100.0;
    /** Buffer each thread walks. */
    std::uint64_t regionBytes = 64ULL << 20;
    std::uint64_t seed = 42;
    /** Include the foreground latency (chase) thread. */
    bool latencyThread = true;
};

/** One measured operating point. */
struct MlcPoint
{
    double delayCycles = 0.0;
    double gbps = 0.0;       ///< total achieved bandwidth
    double avgNs = 0.0;      ///< mean chase latency
    double p50Ns = 0.0;
    double p999Ns = 0.0;
    double p9999Ns = 0.0;
    std::uint64_t samples = 0;
};

/** Measure one operating point on @p backend; with no slots (no
 *  traffic threads and no latency thread) nothing is issued and the
 *  point reads zero. */
MlcPoint mlcMeasure(cxlsim::mem::MemoryBackend *backend,
                    const MlcConfig &cfg);

/**
 * Sweep injected delays (descending: light load to saturation)
 * and return the latency-bandwidth curve of Figures 3a and 5.
 * Each point runs against a fresh backend from @p make_backend so
 * queue state never leaks between operating points.
 */
std::vector<MlcPoint> mlcSweep(
    const std::function<cxlsim::mem::BackendPtr()> &make_backend,
    MlcConfig cfg, const std::vector<double> &delays);

/** The paper's standard delay ladder (0..40K cycles). */
std::vector<double> mlcStandardDelays();

}  // namespace melody

#endif  // MELODY_CORE_MLC_HH
