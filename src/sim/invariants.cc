#include "invariants.hh"

#include <mutex>
#include <utility>

namespace cxlsim::sim {

namespace {

/** Per-thread collector; points run on parallelFor workers, so the
 *  installation must be thread-scoped, not global. */
thread_local Invariants *tlsInvariants = nullptr;

std::mutex &
recordMutex()
{
    // A collector may be installed on several threads at once, so
    // recording must be serialized. A single process-wide mutex is
    // fine: record() only runs on actual violations (cold path),
    // and readers (failed()/violations()) run after those threads
    // have joined.
    // lint:allow(det-static-local: cold-path violation collector, mutex-serialized)
    static std::mutex mu;
    return mu;
}

}  // namespace

void
Invariants::record(std::string invariant, std::string where,
                   std::string values)
{
    std::lock_guard<std::mutex> lk(recordMutex());
    if (violations_.size() >= kMaxRecorded) {
        ++dropped_;
        return;
    }
    violations_.push_back({std::move(invariant), std::move(where),
                           std::move(values)});
}

Invariants *
currentInvariants()
{
    return tlsInvariants;
}

InvariantScope::InvariantScope(Invariants *inv) : prev_(tlsInvariants)
{
    tlsInvariants = inv;
}

InvariantScope::~InvariantScope()
{
    tlsInvariants = prev_;
}

}  // namespace cxlsim::sim
