#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cxlsim {

namespace {

/** Set while a thread runs parallelFor bodies; nested parallelFor
 *  calls from inside one then run serially on that thread. */
thread_local bool t_inParallel = false;

/** Sets t_inParallel for one scope and restores the outer value,
 *  also when a body throws. */
class NestedScope
{
  public:
    NestedScope() : outer_(t_inParallel) { t_inParallel = true; }
    ~NestedScope() { t_inParallel = outer_; }
    NestedScope(const NestedScope &) = delete;
    NestedScope &operator=(const NestedScope &) = delete;

  private:
    const bool outer_;
};

}  // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned threads)
{
    if (n == 0)
        return;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    // A one-thread request is serial all the way down: `melody sweep
    // --jobs 1` must not let a point's inner calls fan out.
    if (threads == 1 || t_inParallel) {
        const NestedScope nested;
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // A lone index runs on the caller and may fan out in turn, so one
    // pending sweep point still spreads its inner runs over the cores.
    if (n == 1) {
        fn(0);
        return;
    }

    // A throwing body ends only its own index. Once every thread is
    // joined, the lowest failing index's exception reaches the
    // caller, the one a serial loop would have thrown.
    std::atomic<std::size_t> next{0};
    std::mutex errorMu;
    std::size_t errorIndex = n;
    std::exception_ptr error;
    const auto drain = [&] {
        const NestedScope nested;
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lk(errorMu);
                if (i < errorIndex) {
                    errorIndex = i;
                    error = std::current_exception();
                }
            }
        }
    };
    {
        const std::size_t spawned = std::min<std::size_t>(threads, n) - 1;
        std::vector<std::jthread> workers;
        workers.reserve(spawned);
        for (std::size_t t = 0; t < spawned; ++t)
            workers.emplace_back(drain);
        drain();
    }
    if (error)
        std::rethrow_exception(error);
}

}  // namespace cxlsim
