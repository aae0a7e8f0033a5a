/**
 * @file
 * Mio: the paper's custom microbenchmark for cacheline-level
 * request latencies (§3.2), which Intel MLC cannot report.
 *
 * Modes:
 *  - chaseDirect(): N co-located pointer-chase threads against the
 *    device (prefetchers disabled / bypassed) — Figure 3b, and
 *    with background read pressure or read/write noise threads —
 *    Figures 3c and 4.
 *  - chaseViaCpu(): the chase runs through the full CPU cache
 *    hierarchy with hardware prefetchers enabled over a
 *    prefetch-friendly (sequential) pointer layout — Figure 6.
 *
 * In both, the agent (chaser or noise slot) with the earliest next
 * issue goes next, the lowest index on a tie (a TournamentTree);
 * chasers come first, then noise slots. With no samples to take,
 * nothing is issued and the result is empty.
 */

#ifndef MELODY_CORE_MIO_HH
#define MELODY_CORE_MIO_HH

#include <cstdint>
#include <memory>

#include "cpu/profile.hh"
#include "mem/backend.hh"
#include "stats/histogram.hh"

namespace melody {

/** Background traffic specification. */
struct MioNoise
{
    /** Number of bandwidth-generating background threads. */
    unsigned threads = 0;
    /** Fraction of noise accesses that are reads. */
    double readFrac = 1.0;
    /** Pacing delay between accesses per noise slot, ns
     *  (0 = as fast as the device allows). */
    double paceNs = 0.0;
    /** Outstanding slots per noise thread. */
    unsigned slotsPerThread = 4;
};

/** Result: the latency distribution plus achieved load. */
struct MioResult
{
    cxlsim::stats::Histogram latencyNs{1.0, 1e7, 64};
    /** Total achieved backend bandwidth (noise + chase), GB/s. */
    double gbps = 0.0;
    /** Device bandwidth utilization vs @p peak if supplied. */
    double utilization = 0.0;
};

/**
 * Device-level pointer chase (Figures 3b/3c/4).
 *
 * @param backend  Memory under test.
 * @param threads  Co-located chase threads (1-32 in the paper).
 * @param samples_per_thread Latency samples per thread; noise
 *                 stops when the last chaser has taken its last.
 * @param noise    Optional background traffic.
 * @param peak_gbps For the utilization field (0 = skip).
 * @param seed     Determinism seed.
 */
MioResult mioChaseDirect(cxlsim::mem::MemoryBackend *backend,
                         unsigned threads,
                         std::uint64_t samples_per_thread,
                         const MioNoise &noise = {},
                         double peak_gbps = 0.0,
                         std::uint64_t seed = 7);

/**
 * Chase through the CPU caches with prefetchers on/off (Figure 6).
 * The pointer layout is sequential, so the stride prefetcher can
 * (partially) hide the device latency.
 */
MioResult mioChaseViaCpu(const cxlsim::cpu::CpuProfile &profile,
                         cxlsim::mem::MemoryBackend *backend,
                         unsigned threads,
                         std::uint64_t samples_per_thread,
                         bool prefetchers_on);

}  // namespace melody

#endif  // MELODY_CORE_MIO_HH
