#include "sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <utility>

#include "sim/interrupt.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/run_cache.hh"

namespace cxlsim::sweep {

/**
 * --progress status line: "\r"-refreshed on stderr only, so stdout
 * stays byte-clean for redirection and the byte-compare harnesses.
 * Redraws are rate-limited to one per 500 ms (plus the final
 * state), per the flag's contract of at most two updates a second.
 *
 * The ETA is the mean wall time of the points finished so far,
 * divided by the jobs running them side by side, times the points
 * left. With every job busy, that mean is jobs * elapsed / finished,
 * so the ETA reduces to elapsed / finished * remaining; before the
 * first point finishes it reads "--". Timing here is steady_clock (a
 * monotonic duration source) and never feeds simulation — it only
 * decides what to print and when to repaint.
 */
class Sweep::ProgressMeter
{
  public:
    /** @p done points are already resolved from the cache. */
    ProgressMeter(std::size_t total, std::size_t done)
        : total_(total), done_(done), start_(Clock::now()),
          last_(start_)
    {
        draw(start_);
    }

    /** One point resolved. Called from pool workers —
     *  mutex-serialized. */
    void
    tick()
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++done_;
        ++finished_;
        const Clock::time_point now = Clock::now();
        if (done_ != total_ &&
            now - last_ < std::chrono::milliseconds(500))
            return;
        last_ = now;
        draw(now);
    }

    /** Terminate the status line so later stderr output starts
     *  clean. */
    void
    finish()
    {
        std::lock_guard<std::mutex> lk(mu_);
        draw(Clock::now());
        std::fputc('\n', stderr);
        std::fflush(stderr);
    }

  private:
    using Clock = std::chrono::steady_clock;

    void
    draw(Clock::time_point now)
    {
        char eta[32];
        if (done_ < total_ && finished_ > 0) {
            const double elapsedS =
                std::chrono::duration<double>(now - start_).count();
            std::snprintf(eta, sizeof(eta), "ETA %.0fs",
                          elapsedS / static_cast<double>(finished_) *
                              static_cast<double>(total_ - done_));
        } else {
            std::snprintf(eta, sizeof(eta), "ETA --");
        }
        // lint:allow(err-stray-stream: opt-in progress meter IS a stderr status line; stdout stays byte-clean)
        std::fprintf(stderr,
                     "\r[melody] sweep: %zu/%zu points, %s   ",
                     done_, total_, eta);
        std::fflush(stderr);
    }

    std::mutex mu_;
    std::size_t total_;
    std::size_t done_;
    /** Points resolved by this run's workers (not cache hits). */
    std::size_t finished_ = 0;
    Clock::time_point start_;
    Clock::time_point last_;
};

// -----------------------------------------------------------------
// Emit
// -----------------------------------------------------------------

void
Emit::vappend(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    char small[512];
    const int n = std::vsnprintf(small, sizeof(small), fmt, ap);
    SIM_ASSERT(n >= 0, "vsnprintf failed in sweep::Emit");
    if (static_cast<std::size_t>(n) < sizeof(small)) {
        buf_.append(small, static_cast<std::size_t>(n));
    } else {
        const std::size_t old = buf_.size();
        buf_.resize(old + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(&buf_[old], static_cast<std::size_t>(n) + 1,
                       fmt, ap2);
        buf_.resize(old + static_cast<std::size_t>(n));
    }
    va_end(ap2);
}

void
Emit::hexDoubles(const std::vector<double> &vs)
{
    for (std::size_t i = 0; i < vs.size(); ++i)
        this->printf("%s%a", i ? " " : "", vs[i]);
    text("\n");
}

std::vector<double>
parseHexDoubles(std::string_view s)
{
    std::vector<double> out;
    const char *p = s.data();
    const char *end = p + s.size();
    while (p < end) {
        char *next = nullptr;
        // The slot is NUL-free and strtod stops at whitespace, so
        // a bounded copy is unnecessary; s comes from Emit and is
        // '\n'-terminated by hexDoubles.
        const double v = std::strtod(p, &next);
        if (next == p)
            break;
        out.push_back(v);
        p = next;
    }
    return out;
}

// -----------------------------------------------------------------
// Sweep
// -----------------------------------------------------------------

struct Sweep::Item
{
    enum class Kind { kText, kSlot, kGather };
    Kind kind;
    std::string text;     // kText
    SlotRef slot{0, 0};   // kSlot
    std::size_t gather = 0;  // kGather
};

struct Sweep::Point
{
    std::string key;  // scoped, as fed to the cache
    std::size_t nSlots;
    PointFn fn;
    std::vector<std::string> slots;
};

struct Sweep::Gather
{
    std::vector<SlotRef> inputs;
    GatherFn fn;
};

Sweep::Sweep(std::string name, Options opts)
    : scope_(std::move(name)), opts_(std::move(opts))
{
    if (opts_.cache)
        cache_ = std::make_unique<RunCache>(
            opts_.cacheDir,
            opts_.salt.empty() ? kSweepSalt : opts_.salt);
}

Sweep::~Sweep() = default;

void
Sweep::scope(std::string scope)
{
    scope_ = std::move(scope);
}

void
Sweep::text(std::string s)
{
    Item it;
    it.kind = Item::Kind::kText;
    it.text = std::move(s);
    items_.push_back(std::move(it));
}

void
Sweep::textf(const char *fmt, ...)
{
    Emit e;
    std::va_list ap;
    va_start(ap, fmt);
    e.vappend(fmt, ap);
    va_end(ap);
    text(e.take());
}

std::size_t
Sweep::point(std::string key, std::size_t slots, PointFn fn)
{
    SIM_ASSERT(slots > 0, "sweep point needs at least one slot");
    SIM_ASSERT(key.find('\n') == std::string::npos,
               "sweep point key must be single-line: " + key);
    Point p;
    p.key = scope_ + "|" + key;
    p.nSlots = slots;
    p.fn = std::move(fn);
    points_.push_back(std::move(p));
    return points_.size() - 1;
}

void
Sweep::point(std::string key, std::function<void(Emit &)> fn)
{
    const std::size_t id =
        point(std::move(key), 1,
              [fn = std::move(fn)](Emit *slots) { fn(slots[0]); });
    place(id, 0);
}

void
Sweep::place(std::size_t id, std::size_t slot)
{
    SIM_ASSERT(id < points_.size(), "place(): unknown point");
    SIM_ASSERT(slot < points_[id].nSlots,
               "place(): slot out of range for point " +
                   points_[id].key);
    Item it;
    it.kind = Item::Kind::kSlot;
    it.slot = {id, slot};
    items_.push_back(std::move(it));
}

void
Sweep::gather(std::vector<SlotRef> inputs, GatherFn fn)
{
    for (const auto &in : inputs) {
        SIM_ASSERT(in.point < points_.size(),
                   "gather(): unknown point");
        SIM_ASSERT(in.slot < points_[in.point].nSlots,
                   "gather(): slot out of range");
    }
    gathers_.push_back(Gather{std::move(inputs), std::move(fn)});
    Item it;
    it.kind = Item::Kind::kGather;
    it.gather = gathers_.size() - 1;
    items_.push_back(std::move(it));
}

std::vector<Sweep::SlotRef>
Sweep::slotsOf(std::size_t id) const
{
    SIM_ASSERT(id < points_.size(), "slotsOf(): unknown point");
    std::vector<SlotRef> out;
    out.reserve(points_[id].nSlots);
    for (std::size_t s = 0; s < points_[id].nSlots; ++s)
        out.push_back({id, s});
    return out;
}

void
Sweep::compute(Report *report)
{
    SIM_ASSERT(!ran_, "Sweep::run() called twice");
    ran_ = true;
    report->points = points_.size();

    // Phase 1: satisfy points from the cache, serially (cheap file
    // reads); the misses go to the simulator. This is also how a
    // crashed, failed or interrupted run resumes: rerunning the
    // same command finds every point it finished already stored.
    std::vector<std::size_t> pending;
    pending.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
        Point &p = points_[i];
        if (!cache_ || !cache_->lookup(p.key, p.nSlots, &p.slots))
            pending.push_back(i);
    }

    std::unique_ptr<ProgressMeter> progress;
    if (opts_.progress)
        progress = std::make_unique<ProgressMeter>(
            points_.size(), points_.size() - pending.size());

    // Phase 2: compute and store the misses.
    computePending(pending, progress.get(), report);
    if (progress)
        progress->finish();

    if (cache_) {
        report->cacheHits = cache_->stats().hits;
        report->cacheStores = cache_->stats().stores;
        report->corruptEntries = cache_->stats().corrupt;
        report->cacheDegraded = cache_->degraded();
    }
}

void
Sweep::computePending(const std::vector<std::size_t> &pending,
                      ProgressMeter *progress, Report *report)
{
    // Fan out over parallelFor in declaration order. Each
    // closure writes only into its own pre-sized slot storage, so
    // which worker runs a point cannot affect the rendered bytes. A
    // throwing closure is captured and re-thrown from the lowest
    // point index so the failure is deterministic too.
    //
    // Each point is stored the moment it finishes, so a crash, a
    // throw or a ^C later in the run loses only unfinished points.
    // RunCache is not thread-safe (unsynchronized counters, temp
    // names unique per process, not per thread): stores serialize
    // on storeMu. After an interrupt, claimed points return without
    // running, which drains the remaining indices quickly.
    std::vector<std::exception_ptr> errors(pending.size());
    std::vector<sim::Invariants> invs(
        opts_.checkInvariants ? pending.size() : 0);
    std::mutex storeMu;
    std::atomic<bool> cut{false};
    parallelFor(
        pending.size(),
        [&](std::size_t i) {
            if (sim::interruptRequested()) {
                cut = true;
                return;
            }
            Point &p = points_[pending[i]];
            std::vector<Emit> slots(p.nSlots);
            try {
                sim::InvariantScope scope(
                    opts_.checkInvariants ? &invs[i] : nullptr);
                p.fn(slots.data());
                p.slots.reserve(p.nSlots);
                for (auto &s : slots)
                    p.slots.push_back(s.take());
                if (cache_) {
                    std::lock_guard<std::mutex> lk(storeMu);
                    cache_->store(p.key, p.slots);
                }
            } catch (...) {
                errors[i] = std::current_exception();
            }
            if (progress)
                progress->tick();
        },
        opts_.jobs);
    for (const auto &err : errors)
        if (err)
            std::rethrow_exception(err);
    report->interrupted = cut;
    for (std::size_t i = 0; i < invs.size(); ++i)
        for (const auto &v : invs[i].violations())
            report->invariantDiags.push_back(
                {points_[pending[i]].key, v.invariant, v.where,
                 v.values});
}

void
Sweep::render(std::FILE *out, std::string *str)
{
    auto put = [&](const std::string &s) {
        if (str)
            str->append(s);
        else if (!s.empty())
            std::fwrite(s.data(), 1, s.size(), out);
    };
    for (const Item &it : items_) {
        switch (it.kind) {
          case Item::Kind::kText:
            put(it.text);
            break;
          case Item::Kind::kSlot:
            put(points_[it.slot.point].slots[it.slot.slot]);
            break;
          case Item::Kind::kGather: {
            const Gather &g = gathers_[it.gather];
            std::vector<std::string> inputs;
            inputs.reserve(g.inputs.size());
            for (const auto &in : g.inputs)
                inputs.push_back(
                    points_[in.point].slots[in.slot]);
            Emit e;
            g.fn(inputs, e);
            put(e.str());
            break;
          }
        }
    }
    if (!str)
        std::fflush(out);
}

Sweep::Report
Sweep::run(std::FILE *out)
{
    Report report;
    compute(&report);
    if (!report.interrupted)
        render(out, nullptr);
    return report;
}

std::string
Sweep::renderToString(Report *report)
{
    Report local;
    compute(&local);
    std::string s;
    if (!local.interrupted)
        render(nullptr, &s);
    if (report)
        *report = local;
    return s;
}

}  // namespace cxlsim::sweep
