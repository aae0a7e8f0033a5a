/**
 * @file
 * Workload descriptions.
 *
 * The paper evaluates 265 real workloads (SPEC CPU 2017, GAPBS,
 * PBBS, PARSEC, CloudSuite, Phoronix, Redis/VoltDB under YCSB,
 * Spark, GPT-2/Llama/MLPerf). Without those binaries, each
 * workload is described by the memory-behaviour parameters that
 * determine its response to CXL: instruction mix, memory
 * intensity, access-pattern composition (sequential / strided /
 * random), pointer-chase dependence, working-set size, store
 * intensity, thread count, and phase structure. The suite in
 * suite.hh instantiates 265 of these with hand-tuned profiles for
 * the workloads the paper discusses individually.
 */

#ifndef CXLSIM_WORKLOADS_PROFILE_HH
#define CXLSIM_WORKLOADS_PROFILE_HH

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.hh"

namespace cxlsim::workloads {

/** One execution phase (for §5.6 period-based analysis). */
struct Phase
{
    /** Fraction of the run spent in this phase. */
    double weight = 1.0;
    /** Multiplier on memory intensity (loads per block). */
    double intensity = 1.0;
    /** Multiplier on the dependent-load fraction. */
    double dependence = 1.0;
    /** Multiplier on store intensity. */
    double stores = 1.0;

    auto operator<=>(const Phase &) const = default;
};

/** Complete description of one workload. */
struct WorkloadProfile
{
    std::string name;
    std::string family;

    unsigned threads = 1;
    /** Blocks emitted per core (sets run length). */
    std::uint64_t blocksPerCore = 60000;

    /** Non-memory uops per block (mean). */
    double uopsPerBlock = 16.0;
    /** Mean demand loads / stores per block. */
    double loadsPerBlock = 1.0;
    double storesPerBlock = 0.15;

    /**
     * Of loads that leave the core (post-L1): pattern mix.
     * seq/stride loads stream through the working set (hardware-
     * prefetchable, cold); hotFrac hit a small cache-resident hot
     * region (L2/LLC hits); the remainder are cold random accesses
     * over the full working set (DRAM misses).
     */
    double seqFrac = 0.3;
    double strideFrac = 0.1;
    double hotFrac = 0.45;
    /** Of cold random loads: fraction that are pointer-chase
     *  dependent (no memory-level parallelism). */
    double dependentFrac = 0.25;
    /** Fraction of stores hitting the cache-resident hot region
     *  (in-place updates); the rest stream or scatter cold. */
    double storeHotFrac = 0.7;
    /**
     * Cold (non-dependent) misses arrive in clusters of this size
     * (spatially grouped fields, SIMD gathers) — this is what
     * gives real workloads their memory-level parallelism.
     */
    unsigned coldBurst = 4;

    /** Bytes touched; > LLC makes the workload memory-bound. */
    std::uint64_t workingSetBytes = 512ULL << 20;
    /** Zipf skew of cold random accesses (0 = uniform). Skewed
     *  workloads have hot objects worth pinning locally (§5.7). */
    double zipfSkew = 0.0;
    /** Hot-region bytes per core (defaults to min(3MB, ws/8)). */
    std::uint64_t hotBytes = 0;

    /** Backend-independent execution character. */
    cpu::CoreExecParams exec;

    /** Phase structure; empty = single uniform phase. */
    std::vector<Phase> phases;

    std::uint64_t seed = 12345;

    /** Field by field, so a memo keyed by the profile tells apart
     *  any two that would run differently. */
    auto operator<=>(const WorkloadProfile &) const = default;

    /** Rough instructions per core (uops + memory ops). */
    std::uint64_t
    instructionsPerCore() const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(blocksPerCore) *
            (uopsPerBlock + loadsPerBlock + storesPerBlock));
    }
};

}  // namespace cxlsim::workloads

#endif  // CXLSIM_WORKLOADS_PROFILE_HH
