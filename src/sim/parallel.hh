/**
 * @file
 * Parallel-for over independent simulation runs.
 *
 * Simulations are deterministic and fully self-contained (each run
 * owns its platform, backend and cores), so suite-wide sweeps are
 * embarrassingly parallel. Results must be written by index into
 * pre-sized storage so output order stays deterministic regardless
 * of scheduling.
 *
 * Each call starts its own threads and joins them before it
 * returns: the calling thread plus `threads - 1` workers claim one
 * index at a time from an atomic cursor. A process makes one
 * top-level call (`melody sweep` over its pending points, or
 * `melody batch` over its workloads) and every nested call runs
 * serially, so thread starts cost microseconds per process, not per
 * run.
 */

#ifndef CXLSIM_SIM_PARALLEL_HH
#define CXLSIM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace cxlsim {

/**
 * Run @p fn(i) for i in [0, n) on up to @p threads threads, the
 * caller among them. @p fn must only touch per-index state (or
 * internally synchronized state). Each index is claimed exactly
 * once. Calls from inside @p fn run serially, and so does the whole
 * call tree under a one-thread request; a lone index (n == 1) runs
 * on the caller and may fan out itself. If bodies throw, the
 * exception of the lowest failing index is rethrown to the caller
 * after every thread has joined.
 *
 * @param threads 0 = hardware concurrency.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 unsigned threads = 0);

}  // namespace cxlsim

#endif  // CXLSIM_SIM_PARALLEL_HH
