/**
 * @file
 * End-to-end determinism: the same seeded workload must produce
 * bit-identical RunResults no matter how the sweep is scheduled —
 * serially, or via parallelFor with 1, 2 or 8 threads. This pins
 * parallelFor's contract (each index claimed exactly once, results
 * written by index) and the indexed multicore
 * scheduler's tie-breaking (lowest core index first).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/platform.hh"
#include "core/slowdown.hh"
#include "ras/fault_plan.hh"
#include "sim/invariants.hh"
#include "sim/parallel.hh"
#include "workloads/suite.hh"

using namespace cxlsim;

namespace {

std::vector<workloads::WorkloadProfile>
smallSuite()
{
    // Mix of 1-, 2-, 6- and 10-thread workloads so the multicore
    // scheduler's heap path is exercised, shrunk for test speed.
    std::vector<workloads::WorkloadProfile> ws;
    for (const char *n :
         {"605.mcf_s", "602.gcc_s", "519.lbm_r", "603.bwaves_s"}) {
        workloads::WorkloadProfile w = workloads::byName(n);
        w.blocksPerCore = 800;
        ws.push_back(w);
    }
    return ws;
}

void
expectSameResult(const cpu::RunResult &a, const cpu::RunResult &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.wallTicks, b.wallTicks);
    // Bit-exact: determinism means equality, not tolerance.
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(a.counters.p1, b.counters.p1);
    EXPECT_EQ(a.counters.p2, b.counters.p2);
    EXPECT_EQ(a.counters.p3, b.counters.p3);
    EXPECT_EQ(a.counters.p4, b.counters.p4);
    EXPECT_EQ(a.counters.p5, b.counters.p5);
    EXPECT_EQ(a.counters.p6, b.counters.p6);
    EXPECT_EQ(a.counters.p7, b.counters.p7);
    EXPECT_EQ(a.counters.p8, b.counters.p8);
    EXPECT_EQ(a.counters.p9, b.counters.p9);
    EXPECT_EQ(a.counters.l1pfIssued, b.counters.l1pfIssued);
    EXPECT_EQ(a.counters.l1pfL3Hit, b.counters.l1pfL3Hit);
    EXPECT_EQ(a.counters.l1pfL3Miss, b.counters.l1pfL3Miss);
    EXPECT_EQ(a.counters.l2pfIssued, b.counters.l2pfIssued);
    EXPECT_EQ(a.counters.l2pfL3Hit, b.counters.l2pfL3Hit);
    EXPECT_EQ(a.counters.l2pfL3Miss, b.counters.l2pfL3Miss);
    EXPECT_EQ(a.counters.demandL3Miss, b.counters.demandL3Miss);
    EXPECT_EQ(a.counters.machineChecks, b.counters.machineChecks);
    EXPECT_EQ(a.counters.demandTimeouts, b.counters.demandTimeouts);
    EXPECT_EQ(a.counters.prefetchDrops, b.counters.prefetchDrops);
    EXPECT_EQ(a.backendStats.reads, b.backendStats.reads);
    EXPECT_EQ(a.backendStats.writes, b.backendStats.writes);

    // RAS reports must agree node-by-node, counter-by-counter.
    ASSERT_EQ(a.ras.size(), b.ras.size());
    for (std::size_t i = 0; i < a.ras.size(); ++i) {
        EXPECT_EQ(a.ras[i].name, b.ras[i].name);
        const ras::RasStats &x = a.ras[i].stats;
        const ras::RasStats &y = b.ras[i].stats;
        EXPECT_EQ(x.crcErrors, y.crcErrors);
        EXPECT_EQ(x.linkReplays, y.linkReplays);
        EXPECT_EQ(x.linkDownEvents, y.linkDownEvents);
        EXPECT_EQ(x.corrected, y.corrected);
        EXPECT_EQ(x.uncorrected, y.uncorrected);
        EXPECT_EQ(x.poisonedReturns, y.poisonedReturns);
        EXPECT_EQ(x.patrolScrubs, y.patrolScrubs);
        EXPECT_EQ(x.refusedRequests, y.refusedRequests);
        EXPECT_EQ(x.hostRetries, y.hostRetries);
        EXPECT_EQ(x.hostTimeouts, y.hostTimeouts);
        EXPECT_EQ(x.failovers, y.failovers);
        EXPECT_EQ(x.failoverExtraNs, y.failoverExtraNs);
        EXPECT_EQ(x.degradedEntries, y.degradedEntries);
        EXPECT_EQ(x.offlineEntries, y.offlineEntries);
    }
}

}  // namespace

TEST(Determinism, ParallelForThreadCountMatchesSerial)
{
    const auto ws = smallSuite();
    const melody::Platform plat("EMR2S", "CXL-A");

    // Serial reference: plain loop, no parallelFor involved.
    std::vector<cpu::RunResult> ref(ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i)
        ref[i] = melody::runWorkload(ws[i], plat, /*seed=*/1);

    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<cpu::RunResult> out(ws.size());
        parallelFor(
            ws.size(),
            [&](std::size_t i) {
                out[i] = melody::runWorkload(ws[i], plat, /*seed=*/1);
            },
            threads);
        for (std::size_t i = 0; i < ws.size(); ++i)
            expectSameResult(ref[i], out[i],
                             ws[i].name + " @" +
                                 std::to_string(threads) +
                                 " threads");
    }
}

TEST(Determinism, FaultPlanStableAcrossThreadCounts)
{
    // The determinism contract extends to fault injection: every
    // fault process draws from its own seeded stream, so a fixed
    // FaultPlan yields identical results (counters AND RasStats) no
    // matter how many parallelFor workers schedule the runs.
    const auto ws = smallSuite();
    melody::Platform plat("EMR2S", "CXL-B");
    plat.setFaultPlan(ras::parseFaultPlan(
        "crc=3e-4,ce=2e-4,ue=5e-5,scrub=50us,failover"));

    std::vector<cpu::RunResult> ref(ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i)
        ref[i] = melody::runWorkload(ws[i], plat, /*seed=*/3);

    // The plan must actually perturb the runs, or this test proves
    // nothing.
    ras::RasStats injected;
    for (const auto &r : ref)
        injected += r.rasTotal();
    EXPECT_GT(injected.injected(), 0u);

    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<cpu::RunResult> out(ws.size());
        parallelFor(
            ws.size(),
            [&](std::size_t i) {
                out[i] = melody::runWorkload(ws[i], plat, /*seed=*/3);
            },
            threads);
        for (std::size_t i = 0; i < ws.size(); ++i)
            expectSameResult(ref[i], out[i],
                             ws[i].name + " faulted @" +
                                 std::to_string(threads) +
                                 " threads");
    }
}

TEST(Determinism, RepeatedParallelRunsAreStable)
{
    // Back-to-back parallel sweeps must not leak state from one
    // call into the next.
    const auto ws = smallSuite();
    const melody::Platform plat("SPR2S", "CXL-B");
    std::vector<cpu::RunResult> first(ws.size()),
        second(ws.size());
    for (auto *out : {&first, &second}) {
        parallelFor(
            ws.size(),
            [&](std::size_t i) {
                (*out)[i] =
                    melody::runWorkload(ws[i], plat, /*seed=*/7);
            },
            4);
    }
    for (std::size_t i = 0; i < ws.size(); ++i)
        expectSameResult(first[i], second[i], ws[i].name);
}

TEST(Determinism, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<int> hits(1000, 0);
        parallelFor(
            hits.size(), [&](std::size_t i) { ++hits[i]; }, threads);
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i << " @" << threads
                                  << "t";
    }
}

TEST(Determinism, BackToBackJobsNeverReuseAStaleWorker)
{
    // parallelFor starts its threads per call and joins them before
    // it returns. Back-to-back tiny calls from one thread, with more
    // threads than some calls have indices, must each cover their own
    // indices exactly once, and no body of a call may still run once
    // it has returned: a late body would touch the next call's
    // freshly built `hits` (which ThreadSanitizer also reports). A
    // few hundred calls of each shape cover the spawn counts 2 and
    // 3; each call starts its own threads, so more calls only repeat
    // the same check.
    for (int job = 0; job < 500; ++job) {
        const std::size_t n = job % 2 ? 3 : 5;
        std::vector<int> hits(n, 0);
        std::atomic<int> running{0};
        parallelFor(
            n,
            [&](std::size_t i) {
                running.fetch_add(1);
                ++hits.at(i);
                running.fetch_sub(1);
            },
            4);
        ASSERT_EQ(running.load(), 0) << "job " << job;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i], 1) << "job " << job << " index " << i;
    }
}

TEST(Determinism, NestedParallelForFallsBackToSerial)
{
    std::vector<int> outer(16, 0);
    parallelFor(
        outer.size(),
        [&](std::size_t i) {
            int inner = 0;
            parallelFor(
                8, [&](std::size_t) { ++inner; }, 8);
            outer[i] = inner;
        },
        4);
    for (int v : outer)
        EXPECT_EQ(v, 8);
}

TEST(Determinism, CounterScaleMatchesHandDivision)
{
    cpu::CounterSet c;
    c.cycles = 1234.5;
    c.instructions = 999.25;
    c.p1 = 10;
    c.p2 = 20;
    c.p3 = 30;
    c.p4 = 40;
    c.p5 = 50;
    c.p6 = 60;
    c.p7 = 70;
    c.p8 = 80;
    c.p9 = 90;
    c.l2pfIssued = 17;
    cpu::CounterSet d = c;
    d.scale(1.0 / 2.0);
    EXPECT_EQ(d.cycles, c.cycles / 2.0);
    EXPECT_EQ(d.instructions, c.instructions / 2.0);
    EXPECT_EQ(d.p1, c.p1 / 2.0);
    EXPECT_EQ(d.p5, c.p5 / 2.0);
    EXPECT_EQ(d.p9, c.p9 / 2.0);
    // Integral prefetch populations are totals, never scaled.
    EXPECT_EQ(d.l2pfIssued, c.l2pfIssued);
}

// ---------------------------------------------------------------
// The serial MultiCore engine is the only execution path for one
// run, so its own repeatability is the base every byte-equality
// test above stands on.
// ---------------------------------------------------------------

TEST(Determinism, SerialEngineRepeatsBitForBit)
{
    // A 10-core run repeated in one process must carry no state
    // (scheduler heap, shared LLC, backend queues) between runs.
    workloads::WorkloadProfile w = workloads::byName("603.bwaves_s");
    w.blocksPerCore = 300;
    const melody::Platform plat("EMR2S", "CXL-A");
    const cpu::RunResult first =
        melody::runWorkload(w, plat, /*seed=*/5);
    for (int rep = 1; rep < 3; ++rep)
        expectSameResult(first,
                         melody::runWorkload(w, plat, /*seed=*/5),
                         "rep " + std::to_string(rep));
}

TEST(Determinism, WorkloadSeedReachesTheRun)
{
    // Guards the equality tests against a fingerprint that could
    // never differ: another address-stream seed must change the
    // result.
    workloads::WorkloadProfile w = workloads::byName("605.mcf_s");
    w.blocksPerCore = 800;
    workloads::WorkloadProfile other = w;
    other.seed = w.seed + 1;
    const melody::Platform plat("EMR2S", "CXL-A");
    const cpu::RunResult a = melody::runWorkload(w, plat, /*seed=*/1);
    const cpu::RunResult b =
        melody::runWorkload(other, plat, /*seed=*/1);
    EXPECT_TRUE(a.wallTicks != b.wallTicks ||
                a.counters.cycles != b.counters.cycles ||
                a.backendStats.reads != b.backendStats.reads);
}

TEST(Determinism, SerialRunsRecordNoInvariantViolations)
{
    const melody::Platform plat("EMR2S", "CXL-A");
    sim::Invariants inv;
    {
        sim::InvariantScope scope(&inv);
        for (const auto &w : smallSuite())
            (void)melody::runWorkload(w, plat, /*seed=*/1);
    }
    EXPECT_FALSE(inv.failed());
    for (const auto &v : inv.violations())
        ADD_FAILURE() << v.invariant << " at " << v.where << ": "
                      << v.values;
}

TEST(Determinism, FaultedSerialRunsRecordNoInvariantViolations)
{
    // Retries, poison and failover reorder backend completions;
    // the counter and event-queue invariants must still hold.
    melody::Platform plat("EMR2S", "CXL-B");
    plat.setFaultPlan(ras::parseFaultPlan(
        "crc=3e-4,ce=2e-4,ue=5e-5,scrub=50us,failover"));
    sim::Invariants inv;
    ras::RasStats injected;
    {
        sim::InvariantScope scope(&inv);
        for (const auto &w : smallSuite())
            injected +=
                melody::runWorkload(w, plat, /*seed=*/3).rasTotal();
    }
    EXPECT_GT(injected.injected(), 0u);
    EXPECT_FALSE(inv.failed());
    for (const auto &v : inv.violations())
        ADD_FAILURE() << v.invariant << " at " << v.where << ": "
                      << v.values;
}

// ---------------------------------------------------------------
// parallelFor edge cases: it is the one dispatch path for sweep
// points and suite runs.
// ---------------------------------------------------------------

TEST(ParallelFor, EmptyRangeNeverCallsBody)
{
    int calls = 0;
    for (unsigned threads : {0u, 1u, 4u})
        parallelFor(
            0, [&](std::size_t) { ++calls; }, threads);
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleThreadRunsInlineInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool onCaller = true;
    parallelFor(
        9,
        [&](std::size_t i) {
            order.push_back(i);
            onCaller =
                onCaller && std::this_thread::get_id() == caller;
        },
        1);
    EXPECT_TRUE(onCaller);
    EXPECT_EQ(order,
              (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(ParallelFor, OneThreadKeepsNestedCallsOnTheCaller)
{
    // `melody sweep --jobs 1` is serial all the way down: an inner
    // call in a point (SlowdownStudy::slowdownBatch) stays on the
    // calling thread whatever it asks for. Only a lone index under a
    // wider request may fan out, as one pending point under --jobs 4.
    const auto offCallerRuns = [](std::size_t n, unsigned threads) {
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<int> off{0};
        parallelFor(
            n,
            [&](std::size_t) {
                parallelFor(
                    64,
                    [&](std::size_t) {
                        if (std::this_thread::get_id() != caller)
                            ++off;
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                    },
                    4);
            },
            threads);
        return off.load();
    };
    EXPECT_EQ(offCallerRuns(2, 1), 0);
    EXPECT_GT(offCallerRuns(1, 4), 0);
}

TEST(ParallelFor, BodyExceptionReachesTheCaller)
{
    // A throw on a worker thread must not end the process (`melody
    // batch` with an unknown memory name exits with its usage
    // error): every index still runs, and the caller gets the lowest
    // failing index's exception, as from a serial loop.
    for (unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(64);
        try {
            parallelFor(
                hits.size(),
                [&](std::size_t i) {
                    ++hits[i];
                    if (i % 10 == 3)
                        throw std::runtime_error(std::to_string(i));
                },
                threads);
            ADD_FAILURE() << "no exception @" << threads << "t";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "3") << threads << "t";
        }
        for (std::size_t i = 0; threads > 1 && i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, ThreadCapHoldsAfterThePoolGrew)
{
    // A wide call followed by one that asks for 2: the second
    // call's own request, not any earlier one, bounds its
    // concurrency.
    parallelFor(
        64, [](std::size_t) {}, 8);
    std::atomic<int> active{0};
    std::atomic<int> peak{0};
    parallelFor(
        24,
        [&](std::size_t) {
            const int now = ++active;
            int seen = peak.load();
            while (now > seen &&
                   !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            --active;
        },
        2);
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), 2);
}

TEST(ParallelFor, ConcurrentCallersBothComplete)
{
    // Two threads calling at once (say, two sweeps run from
    // different threads) each start their own workers; neither loses
    // or duplicates an index.
    std::vector<int> a(500, 0), b(500, 0);
    auto fill = [](std::vector<int> *v) {
        for (int rep = 0; rep < 20; ++rep)
            parallelFor(
                v->size(), [v](std::size_t i) { ++(*v)[i]; }, 4);
    };
    std::thread ta(fill, &a);
    std::thread tb(fill, &b);
    ta.join();
    tb.join();
    EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                            [](int h) { return h == 20; }));
    EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                            [](int h) { return h == 20; }));
}
