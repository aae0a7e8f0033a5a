#include "io_fault.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "sim/logging.hh"

namespace cxlsim::sim::iofault {

namespace {

/** One parsed `<op>:<fault>@<trigger>` item. */
struct Rule
{
    int err = 0;        // errno to inject; 0 with shortIo set = short
    bool shortIo = false;
    double prob = 0.0;  // @p trigger; used when nth == 0
    std::uint64_t nth = 0;  // @#N / @#N+ trigger (1-based)
    bool fromNthOn = false;
};

struct Plan
{
    std::uint64_t seed = 1;
    std::vector<Rule> rules[static_cast<unsigned>(Op::kOpCount)];
    std::string spec;
};

/** Active plan; swapped atomically so hot-path readers never take
 *  a lock. Retired plans are parked (not freed): a reader may
 *  still be inside one, and installs are rare one-shot events. */
std::atomic<const Plan *> g_plan{nullptr};
std::mutex g_installMu;
std::vector<std::unique_ptr<Plan>> g_retired;

/** Per-op call counters (1-based after the bump). */
std::atomic<std::uint64_t>
    g_calls[static_cast<unsigned>(Op::kOpCount)];

std::atomic<std::uint64_t> g_injected{0};

/** Injected-failure log: bounded, mutex-guarded (injections are
 *  failure events, never a hot path). */
constexpr std::size_t kLogCap = 4096;
std::mutex g_logMu;
std::vector<std::string> g_log;
std::uint64_t g_logDropped = 0;

constexpr const char *kOpNames[] = {
    "open", "read", "write", "close",
    "rename", "pipe", "fork", "poll",
};
static_assert(sizeof(kOpNames) / sizeof(kOpNames[0]) ==
              static_cast<unsigned>(Op::kOpCount));

struct FaultName
{
    const char *name;
    int err;
};

/** The injectable errno vocabulary (parse + log formatting). */
constexpr FaultName kFaults[] = {
    {"enospc", ENOSPC},       {"emfile", EMFILE},
    {"enfile", ENFILE},       {"eio", EIO},
    {"eagain", EAGAIN},       {"enomem", ENOMEM},
    {"epipe", EPIPE},         {"eintr", EINTR},
};

/** SplitMix64: the per-call fault decision is a pure function of
 *  (seed, op, call#, rule#), so a seed fixes the failing call
 *  indices for every op — the replay guarantee. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
unitHash(std::uint64_t seed, unsigned op, std::uint64_t call,
         std::size_t rule)
{
    std::uint64_t h = splitmix64(seed ^ 0x6d656c6f64790000ULL);
    h = splitmix64(h ^ (static_cast<std::uint64_t>(op) << 32) ^
                   call);
    h = splitmix64(h ^ rule);
    // 53 high bits -> [0, 1).
    return static_cast<double>(h >> 11) / 9007199254740992.0;
}

void
note(Op op, std::uint64_t call, const Rule &r)
{
    g_injected.fetch_add(1, std::memory_order_relaxed);
    std::string line = "io-fault: ";
    line += kOpNames[static_cast<unsigned>(op)];
    line += " call#" + std::to_string(call) + " -> ";
    line += r.shortIo ? "short" : errnoName(r.err);
    std::lock_guard<std::mutex> lk(g_logMu);
    if (g_log.size() >= kLogCap)
        ++g_logDropped;
    else
        g_log.push_back(std::move(line));
}

bool
parseOp(const std::string &name, Op *op)
{
    for (unsigned i = 0; i < static_cast<unsigned>(Op::kOpCount);
         ++i) {
        if (name == kOpNames[i]) {
            *op = static_cast<Op>(i);
            return true;
        }
    }
    return false;
}

/** strtoull skips leading whitespace and accepts a sign ("-1"
 *  wraps to 2^64-1), so a count must start with a digit. */
bool
startsWithDigit(const std::string &num)
{
    return !num.empty() && num[0] >= '0' && num[0] <= '9';
}

[[noreturn]] void
bad(const std::string &item, const std::string &why)
{
    throw ConfigError("io-faults: bad item '" + item + "': " + why);
}

/** Parse one `<op>:<fault>@<trigger>` item into @p plan. */
void
parseItem(const std::string &item, Plan *plan)
{
    const std::size_t colon = item.find(':');
    const std::size_t at = item.find('@');
    if (colon == std::string::npos || at == std::string::npos ||
        at < colon)
        bad(item, "expected <op>:<fault>@<trigger>");

    Op op;
    if (!parseOp(item.substr(0, colon), &op))
        bad(item, "unknown op '" + item.substr(0, colon) + "'");

    Rule r;
    const std::string fault =
        item.substr(colon + 1, at - colon - 1);
    if (fault == "short") {
        if (op != Op::kRead && op != Op::kWrite)
            bad(item, "'short' applies to read/write only");
        r.shortIo = true;
    } else {
        bool known = false;
        for (const FaultName &f : kFaults) {
            if (fault == f.name) {
                r.err = f.err;
                known = true;
                break;
            }
        }
        if (!known)
            bad(item, "unknown fault '" + fault + "'");
    }
    // A hard poll error would panic the event loops by design;
    // only the EINTR the wrappers absorb is injectable there.
    if (op == Op::kPoll && r.err != EINTR)
        bad(item, "poll accepts only 'eintr'");

    const std::string trig = item.substr(at + 1);
    if (trig.empty())
        bad(item, "empty trigger");
    if (trig[0] == '#') {
        std::string num = trig.substr(1);
        if (!num.empty() && num.back() == '+') {
            r.fromNthOn = true;
            num.pop_back();
        }
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(num.c_str(), &end, 10);
        if (!startsWithDigit(num) || *end != '\0' || n == 0)
            bad(item, "trigger '#N' needs a positive call index");
        r.nth = n;
    } else {
        char *end = nullptr;
        const double p = std::strtod(trig.c_str(), &end);
        if (end == trig.c_str() || *end != '\0' || !(p > 0.0) ||
            p > 1.0)
            bad(item, "probability must be in (0, 1]");
        r.prob = p;
    }
    // An unconditionally recurring EINTR would spin the retry
    // loops forever; probabilistic/one-shot EINTR terminates.
    if (r.err == EINTR && r.fromNthOn)
        bad(item, "'eintr' cannot use '#N+' (the retry loop "
                  "would never terminate)");
    plan->rules[static_cast<unsigned>(op)].push_back(r);
}

void
clearCountersAndLog()
{
    for (auto &c : g_calls)
        c.store(0, std::memory_order_relaxed);
    g_injected.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(g_logMu);
    g_log.clear();
    g_logDropped = 0;
}

/** Arm from the environment at process start, so tests, bench
 *  binaries and forked workers pick injection up without CLI
 *  plumbing. A malformed value warns instead of aborting every
 *  binary on the machine. */
const bool g_envArmed = [] {
    const char *spec = std::getenv("MELODY_IO_FAULTS");
    if (!spec || !*spec)
        return false;
    try {
        install(spec);
    } catch (const ConfigError &e) {
        SIM_WARN(std::string("MELODY_IO_FAULTS ignored: ") +
                 e.what());
        return false;
    }
    return true;
}();

}  // namespace

namespace detail {

std::atomic<bool> g_active{false};

Decision
inject(Op op)
{
    const Plan *plan = g_plan.load(std::memory_order_acquire);
    if (!plan)
        return {};
    const unsigned oi = static_cast<unsigned>(op);
    const std::uint64_t call =
        g_calls[oi].fetch_add(1, std::memory_order_relaxed) + 1;
    const std::vector<Rule> &rules = plan->rules[oi];
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
        const Rule &r = rules[ri];
        const bool fire =
            r.nth > 0 ? (r.fromNthOn ? call >= r.nth : call == r.nth)
                      : unitHash(plan->seed, oi, call, ri) < r.prob;
        if (!fire)
            continue;
        note(op, call, r);
        return {r.err, r.shortIo};
    }
    return {};
}

}  // namespace detail

void
install(const std::string &spec)
{
    auto plan = std::make_unique<Plan>();
    plan->spec = spec;
    std::size_t pos = 0;
    bool any = false;
    while (pos < spec.size()) {
        const std::size_t ws = spec.find_first_not_of(" \t", pos);
        if (ws == std::string::npos)
            break;
        std::size_t end = spec.find_first_of(" \t", ws);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(ws, end - ws);
        pos = end;
        if (item.rfind("seed=", 0) == 0) {
            const std::string num = item.substr(5);
            char *e = nullptr;
            const unsigned long long v =
                std::strtoull(num.c_str(), &e, 10);
            if (!startsWithDigit(num) || *e != '\0')
                bad(item, "seed needs a non-negative integer");
            plan->seed = v;
            continue;
        }
        parseItem(item, plan.get());
        any = true;
    }
    std::lock_guard<std::mutex> lk(g_installMu);
    clearCountersAndLog();
    if (const Plan *old =
            g_plan.exchange(nullptr, std::memory_order_acq_rel))
        g_retired.emplace_back(const_cast<Plan *>(old));
    if (!any) {
        detail::g_active.store(false, std::memory_order_release);
        return;
    }
    g_plan.store(plan.release(), std::memory_order_release);
    detail::g_active.store(true, std::memory_order_release);
}

void
reset()
{
    install("");
}

std::string
activeSpec()
{
    const Plan *plan = g_plan.load(std::memory_order_acquire);
    return plan ? plan->spec : std::string();
}

std::uint64_t
injectedCount()
{
    return g_injected.load(std::memory_order_relaxed);
}

std::vector<std::string>
logLines()
{
    std::lock_guard<std::mutex> lk(g_logMu);
    return g_log;
}

std::uint64_t
droppedLogLines()
{
    std::lock_guard<std::mutex> lk(g_logMu);
    return g_logDropped;
}

std::string
errnoName(int err)
{
    for (const FaultName &f : kFaults) {
        if (err == f.err) {
            std::string up = f.name;
            for (char &c : up)
                c = static_cast<char>(c - 'a' + 'A');
            return up;
        }
    }
    return "errno " + std::to_string(err);
}

// ----------------------------------------------------------------
// FILE*/path helpers.
// ----------------------------------------------------------------

std::FILE *
xfopen(const char *path, const char *mode)
{
    if (const Decision d = check(Op::kOpen)) {
        errno = d.err;
        return nullptr;
    }
    return std::fopen(path, mode);
}

std::size_t
xfread(void *p, std::size_t size, std::size_t n, std::FILE *f)
{
    if (const Decision d = check(Op::kRead)) {
        if (d.shortIo)
            return 0;  // reads nothing: looks like truncation
        errno = d.err;
        return 0;
    }
    return std::fread(p, size, n, f);
}

std::size_t
xfwrite(const void *p, std::size_t size, std::size_t n,
        std::FILE *f)
{
    if (const Decision d = check(Op::kWrite)) {
        if (d.shortIo) {
            // Genuinely write half: torn-output handling must see
            // real torn bytes on disk, not a clean no-op.
            const std::size_t half = n / 2;
            if (half > 0)
                std::fwrite(p, size, half, f);
            return half;
        }
        errno = d.err;
        return 0;
    }
    return std::fwrite(p, size, n, f);
}

int
xfclose(std::FILE *f)
{
    // Always really close: an injected close failure must model
    // lost writeback, never leak the descriptor (which would turn
    // the simulation of fd exhaustion into the real thing).
    const Decision d = check(Op::kClose);
    const int real = std::fclose(f);
    if (d) {
        errno = d.err;
        return EOF;
    }
    return real;
}

int
xopen(const char *path, int flags, unsigned mode)
{
    if (const Decision d = check(Op::kOpen)) {
        errno = d.err;
        return -1;
    }
    return ::open(path, flags, static_cast<mode_t>(mode));
}

int
xrename(const char *from, const char *to)
{
    if (const Decision d = check(Op::kRename)) {
        errno = d.err;
        return -1;
    }
    return std::rename(from, to);
}

}  // namespace cxlsim::sim::iofault
