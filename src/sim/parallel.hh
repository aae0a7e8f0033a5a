/**
 * @file
 * Parallel-for over independent simulation runs, backed by a
 * lazily-initialized persistent worker pool.
 *
 * Simulations are deterministic and fully self-contained (each run
 * owns its platform, backend and cores), so suite-wide sweeps are
 * embarrassingly parallel. Results must be written by index into
 * pre-sized storage so output order stays deterministic regardless
 * of scheduling.
 *
 * Earlier versions spawned and joined a fresh std::thread set on
 * every call; suite sweeps call parallelFor() hundreds of times, so
 * thread creation dominated small batches. The pool parks workers
 * on a condition variable between jobs and hands out index chunks
 * via an atomic cursor; workers are spawned on first use and grown
 * on demand when a caller requests more concurrency.
 */

#ifndef CXLSIM_SIM_PARALLEL_HH
#define CXLSIM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace cxlsim {

/**
 * Run @p fn(i) for i in [0, n) on up to @p threads workers.
 * @p fn must only touch per-index state (or internally
 * synchronized state). Each index is claimed exactly once; nested
 * calls from inside @p fn degrade to serial execution.
 *
 * @param threads 0 = hardware concurrency.
 * @param grain   Indices claimed per atomic cursor bump. The
 *                default of 1 suits millisecond-scale simulation
 *                runs; raise it for very cheap bodies.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 unsigned threads = 0, std::size_t grain = 1);

}  // namespace cxlsim

#endif  // CXLSIM_SIM_PARALLEL_HH
