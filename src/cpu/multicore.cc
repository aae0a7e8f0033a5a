#include "multicore.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "sim/invariants.hh"
#include "sim/logging.hh"
#include "sim/tournament_tree.hh"

namespace cxlsim::cpu {

MultiCore::MultiCore(const CpuProfile &profile,
                     const CoreExecParams &exec,
                     mem::MemoryBackend *backend,
                     std::vector<std::unique_ptr<Kernel>> kernels,
                     bool prefetchers_on)
    : kernels_(std::move(kernels)), backend_(backend)
{
    SIM_ASSERT(!kernels_.empty(), "need at least one kernel");
    hier_ = std::make_unique<MemoryHierarchy>(
        profile, static_cast<unsigned>(kernels_.size()), backend,
        prefetchers_on);
    const std::uint64_t budget =
        preloadBudget(profile, kernels_.size());
    std::vector<LineRange> ranges;
    ranges.reserve(kernels_.size());
    for (unsigned c = 0; c < kernels_.size(); ++c) {
        ranges.push_back(kernels_[c]->preloadRange(budget));
        cores_.push_back(std::make_unique<Core>(
            profile, exec, hier_.get(), c, kernels_[c].get()));
    }
    hier_->preload(ranges);
}

std::uint64_t
MultiCore::preloadBudget(const CpuProfile &profile, std::size_t cores)
{
    return static_cast<std::uint64_t>(
        0.7 * static_cast<double>(profile.l3.sizeBytes) /
        static_cast<double>(cores));
}

void
MultiCore::enableSampling(Tick interval)
{
    cores_[0]->enableSampling(interval, &samples_);
}

RunResult
MultiCore::run()
{
    backend_->resetStats();
    runSerial();

    RunResult r;
    for (auto &c : cores_) {
        r.wallTicks = std::max(r.wallTicks, c->now());
        r.counters += c->counters();
    }
    checkInvariants();
    // Normalize counters to a per-core view so Spa's cycle
    // denominators match wall time for symmetric threads.
    r.counters.scale(1.0 / static_cast<double>(cores_.size()));
    r.samples = std::move(samples_);
    r.backendStats = backend_->stats();
    backend_->rasReport(&r.ras);
    return r;
}

void
MultiCore::runSerial()
{
    // Advance the earliest core until all kernels finish; ties go to
    // the lowest core index, so the interleaving of requests at the
    // shared backend, and with it every counter, is fixed. The
    // stepped core's entry stays retired while it runs: it keeps
    // stepping as long as it still comes before every other core.
    TournamentTree next(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i)
        next.set(i, cores_[i]->now());
    while (!next.empty()) {
        const std::size_t idx = next.top();
        next.retire(idx);
        Core *c = cores_[idx].get();
        while (c->step()) {
            if (!next.before(c->now(), idx)) {
                next.set(idx, c->now());
                break;
            }
        }
    }
}

void
MultiCore::checkInvariants() const
{
    sim::Invariants *inv = sim::currentInvariants();
    if (!inv)
        return;

    // End-of-run accounting contracts (DESIGN.md §10); each check
    // was derived from the accounting rules in core.cc /
    // hierarchy.cc and holds on every fault-free run.
    std::uint64_t l3Misses = 0;   // demand + prefetch LLC misses
    std::uint64_t reads = 0;      // expected backend read count
    std::uint64_t writes = 0;     // expected backend write count
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const CounterSet cs = cores_[c]->counters();
        const std::string where = "core " + std::to_string(c);

        // P1 >= P3 >= P4 >= P5 >= 0: the same stall interval is
        // added to each accumulator whose level it is at-or-below,
        // so the chain nests (up to float summation noise).
        if (!(sim::approxGe(cs.p1, cs.p3) &&
              sim::approxGe(cs.p3, cs.p4) &&
              sim::approxGe(cs.p4, cs.p5) &&
              sim::approxGe(cs.p5, 0.0)))
            inv->record("counters/nesting", where,
                        "p1=" + std::to_string(cs.p1) +
                            " p3=" + std::to_string(cs.p3) +
                            " p4=" + std::to_string(cs.p4) +
                            " p5=" + std::to_string(cs.p5));

        // Every prefetch LLC outcome stems from one issued
        // prefetch (exact integer counts).
        const PfStats &pf = hier_->pfStats(c);
        if (pf.l1pfL3Hit + pf.l1pfL3Miss > pf.l1pfIssued ||
            pf.l2pfL3Hit + pf.l2pfL3Miss > pf.l2pfIssued)
            inv->record(
                "counters/pf-subset", where,
                "l1pf=" + std::to_string(pf.l1pfL3Hit) + "+" +
                    std::to_string(pf.l1pfL3Miss) + "/" +
                    std::to_string(pf.l1pfIssued) +
                    " l2pf=" + std::to_string(pf.l2pfL3Hit) +
                    "+" + std::to_string(pf.l2pfL3Miss) + "/" +
                    std::to_string(pf.l2pfIssued));

        l3Misses += pf.demandL3Miss + pf.l1pfL3Miss +
                    pf.l2pfL3Miss;
        reads += pf.demandL3Miss + pf.l1pfL3Miss +
                 pf.l2pfL3Miss + pf.rfoFetches;
        writes += pf.writebacks;
    }

    // Demand/prefetch LLC-miss populations are counted on true LLC
    // lookup misses, so the shared LLC's own miss counter bounds
    // their sum (it additionally counts RFO misses).
    if (l3Misses > hier_->l3().misses())
        inv->record("counters/l3-subset", "llc",
                    "counted=" + std::to_string(l3Misses) +
                        " llcMisses=" +
                        std::to_string(hier_->l3().misses()));

    // Request conservation at the backend: every read it served
    // was a demand L3 miss, a prefetch L3 miss, or an RFO fetch;
    // every write was an LLC writeback.
    const mem::BackendStats bs = backend_->stats();
    if (bs.reads != reads || bs.writes != writes)
        inv->record("counters/conservation", "backend",
                    "reads=" + std::to_string(bs.reads) + "/" +
                        std::to_string(reads) +
                        " writes=" + std::to_string(bs.writes) +
                        "/" + std::to_string(writes));
}

}  // namespace cxlsim::cpu
