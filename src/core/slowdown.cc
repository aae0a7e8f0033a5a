#include "slowdown.hh"

#include "sim/parallel.hh"

#include "workloads/synthetic_kernel.hh"

namespace melody {

using namespace cxlsim;

cpu::RunResult
runWorkload(const workloads::WorkloadProfile &w,
            const Platform &platform, std::uint64_t seed,
            bool prefetchers_on, Tick sampling_interval)
{
    mem::BackendPtr backend = platform.makeBackend(seed ^ w.seed);
    cpu::MultiCore mc(platform.cpu(), w.exec, backend.get(),
                      workloads::makeKernels(w), prefetchers_on);
    if (sampling_interval)
        mc.enableSampling(sampling_interval);
    return mc.run();
}

double
slowdownPct(const cpu::RunResult &baseline,
            const cpu::RunResult &test)
{
    if (baseline.wallTicks == 0)
        return 0.0;
    return (static_cast<double>(test.wallTicks) /
                static_cast<double>(baseline.wallTicks) -
            1.0) *
           100.0;
}

const cpu::RunResult &
SlowdownStudy::baseline(const workloads::WorkloadProfile &w,
                        const std::string &server)
{
    // Include run length and thread count: callers may run scaled
    // variants of the same named workload.
    const std::string key = server + "/" + w.name + "/" +
                            std::to_string(w.blocksPerCore) + "/" +
                            std::to_string(w.threads);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = baselines_.find(key);
        if (it != baselines_.end())
            return it->second;
    }
    Platform p(server, "Local");
    cpu::RunResult r = runWorkload(w, p, seed_);
    std::lock_guard<std::mutex> lock(mu_);
    // Another thread may have inserted meanwhile; emplace keeps
    // the first (identical, deterministic) result.
    return baselines_.emplace(key, std::move(r)).first->second;
}

double
SlowdownStudy::slowdown(const workloads::WorkloadProfile &w,
                        const std::string &server,
                        const std::string &memory)
{
    return slowdownWithRun(w, server, memory, nullptr);
}

double
SlowdownStudy::slowdownWithRun(const workloads::WorkloadProfile &w,
                               const std::string &server,
                               const std::string &memory,
                               cpu::RunResult *test_out)
{
    const cpu::RunResult &base = baseline(w, server);
    Platform p(server, memory);
    cpu::RunResult test = runWorkload(w, p, seed_);
    const double s = slowdownPct(base, test);
    if (test_out)
        *test_out = std::move(test);
    return s;
}

std::vector<double>
SlowdownStudy::slowdownBatch(
    const std::vector<workloads::WorkloadProfile> &ws,
    const std::string &server, const std::string &memory)
{
    std::vector<double> out(ws.size());
    parallelFor(
        ws.size(),
        [&](std::size_t i) {
            out[i] = slowdown(ws[i], server, memory);
        },
        0);
    return out;
}

}  // namespace melody
