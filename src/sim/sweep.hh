/**
 * @file
 * Deterministic parallel sweep engine for the figure suite.
 *
 * Every figure/table bench is hundreds of independent simulation
 * runs whose formatted rows are printed in a fixed narrative
 * order. Instead of a serial `for (setup) for (config)` nest with
 * printf interleaved, a bench *declares* its output as a sequence
 * of items on a Sweep:
 *
 *   - text  — literal bytes emitted verbatim (headers, captions);
 *   - point — one independent simulation closure producing one or
 *             more output slots (formatted row blocks);
 *   - gather — a serial transform over already-computed point
 *             slots (table assembly, suite-wide statistics),
 *             evaluated in declaration order at render time.
 *
 * run() executes all points over the persistent parallelFor worker
 * pool, buffering each point's slots out-of-band, then walks the
 * item sequence and streams it to stdout — so the bytes are
 * identical to the serial program for any --jobs value. Points are
 * also the unit of caching: each one's slots are persisted in a
 * content-addressed RunCache keyed by (salt, scope, point key) the
 * moment the point finishes, so re-running a figure — including
 * after a crash, a thrown point or a ^C — recomputes only points
 * that are not stored yet.
 *
 * Contract for point closures: capture everything by value (the
 * declaring frame is gone by run()-time; share heavyweight state
 * via shared_ptr), construct platforms/backends inside the
 * closure, touch nothing but the Emit slots handed in (or
 * internally synchronized state such as SlowdownStudy's memo), and
 * derive all randomness from fixed seeds. The point key must name
 * every input the slots depend on — label, config, seed — since
 * equal keys are assumed to yield equal bytes.
 *
 * Gathers that need full-precision values from a point (not just
 * its printed rows) read them from a hidden slot the point fills
 * with hexfloats (Emit::hexDoubles / parseHexDoubles): exact
 * round-trip, so cached and live runs stay bit-identical.
 */

#ifndef CXLSIM_SIM_SWEEP_HH
#define CXLSIM_SIM_SWEEP_HH

#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/invariants.hh"

namespace cxlsim::sweep {

class RunCache;

/**
 * Cache-invalidation salt: names the current simulator behaviour
 * version. Bump it in any PR that intentionally changes simulation
 * results or row formatting, which orphans all prior cache entries
 * at once (DESIGN.md §9's invalidation policy).
 */
inline constexpr const char *kSweepSalt = "melody-sweep-v1";

/** Append-only output buffer handed to point/gather closures. */
class Emit
{
  public:
    /** printf-style formatted append. */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(__printf__, 2, 3)))
#endif
    // The member is *named* printf so migrated benches keep their
    // familiar idiom; it appends to a string, streams stay closed.
    // lint:allow(err-stray-stream: member named printf appends to a string, no stream I/O)
    void printf(const char *fmt, ...)
    {
        std::va_list ap;
        va_start(ap, fmt);
        vappend(fmt, ap);
        va_end(ap);
    }

    /** Append raw bytes. */
    void text(std::string_view s) { buf_.append(s); }

    /**
     * Append doubles as space-separated hexfloats + '\n': exact
     * round-trip for hidden slots feeding gathers.
     */
    void hexDoubles(const std::vector<double> &vs);

    const std::string &str() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    friend class Sweep;  // textf() routes through vappend

    void vappend(const char *fmt, std::va_list ap);

    std::string buf_;
};

/** Decode an Emit::hexDoubles slot (whitespace-separated floats). */
std::vector<double> parseHexDoubles(std::string_view s);

/** Execution knobs; `melody sweep` sets them from its flags. */
struct Options
{
    /** Worker threads for the point fan-out; 0 = hardware. */
    unsigned jobs = 0;
    /** Use the persistent run cache. */
    bool cache = true;
    /** Cache directory. */
    std::string cacheDir = "results/.runcache";
    /** Cache salt; empty means kSweepSalt. */
    std::string salt;
    /**
     * Install the runtime invariant checker (sim::Invariants)
     * around every point. Default-on in Debug builds.
     */
    bool checkInvariants = sim::invariantsDefaultOn();
    /**
     * One stderr status line (done/total points and an ETA from
     * the points finished so far) refreshed at most twice a
     * second. stdout stays byte-clean.
     */
    bool progress = false;
};

/** Declared output sequence + point set of one bench (or suite). */
class Sweep
{
  public:
    /** Closure of a point: fills its declared slots. */
    using PointFn = std::function<void(Emit *slots)>;
    /** Serial render-time transform over point-slot strings. */
    using GatherFn = std::function<void(
        const std::vector<std::string> &inputs, Emit &out)>;

    /** Reference to one output slot of a declared point. */
    struct SlotRef
    {
        std::size_t point;
        std::size_t slot;
    };

    struct Report
    {
        /** One invariant violation attributed to a point. */
        struct InvariantDiag
        {
            std::string pointKey;
            std::string invariant;
            std::string where;
            std::string values;
        };

        std::size_t points = 0;
        std::size_t cacheHits = 0;
        std::size_t cacheStores = 0;
        std::size_t corruptEntries = 0;
        /** Invariant violations, grouped by point in index order. */
        std::vector<InvariantDiag> invariantDiags;
        /** The run cache flipped read-only mid-run (persistent
         *  store failure). Results stay correct — they are just
         *  recomputed next time. */
        bool cacheDegraded = false;
        /** A SIGINT/SIGTERM (sim::interruptRequested()) cut the run
         *  short: points not yet started were skipped and nothing
         *  was rendered. The points that finished are stored. */
        bool interrupted = false;

        /** Not interrupted and no invariant violations.
         *  (cacheDegraded deliberately does not flip this: outputs
         *  are still complete and correct.) */
        bool
        clean() const
        {
            return !interrupted && invariantDiags.empty();
        }
    };

    explicit Sweep(std::string name, Options opts = Options());
    ~Sweep();

    Sweep(const Sweep &) = delete;
    Sweep &operator=(const Sweep &) = delete;

    /**
     * Set the cache-key scope for subsequently declared points.
     * `melody sweep` sets this to each figure's Figure::binary, so
     * a figure's entries are shared by every selection that
     * includes it. Defaults to the sweep name.
     */
    void scope(std::string scope);

    /** Literal bytes at this position. */
    void text(std::string s);

    /** printf-style literal. */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(__printf__, 2, 3)))
#endif
    void textf(const char *fmt, ...);

    /**
     * Declare a point with @p slots output slots; place none.
     * @p key must be unique within the current scope, single-line,
     * and must encode every input the output depends on.
     */
    std::size_t point(std::string key, std::size_t slots,
                      PointFn fn);

    /** Common case: one slot, placed right here. */
    void point(std::string key, std::function<void(Emit &)> fn);

    /** Emit slot @p slot of point @p id at this position. */
    void place(std::size_t id, std::size_t slot = 0);

    /** Declaration-order transform over @p inputs, emitted here. */
    void gather(std::vector<SlotRef> inputs, GatherFn fn);

    /** Slot refs for all slots of @p id, in order. */
    std::vector<SlotRef> slotsOf(std::size_t id) const;

    /**
     * Execute all points (cache-aware, parallel) and stream the
     * item sequence to @p out. An interrupted run streams nothing:
     * a partial figure is not a figure.
     */
    Report run(std::FILE *out = stdout);

    /** run() into a string — tests and byte-compare harnesses. */
    std::string renderToString(Report *report = nullptr);

  private:
    struct Item;
    struct Point;
    struct Gather;
    /** --progress status line; defined in sweep.cc. */
    class ProgressMeter;

    void compute(Report *report);
    void computePending(const std::vector<std::size_t> &pending,
                        ProgressMeter *progress, Report *report);
    void render(std::FILE *out, std::string *str);

    std::string scope_;
    Options opts_;
    std::unique_ptr<RunCache> cache_;
    std::vector<Item> items_;
    std::vector<Point> points_;
    std::vector<Gather> gathers_;
    bool ran_ = false;
};

}  // namespace cxlsim::sweep

#endif  // CXLSIM_SIM_SWEEP_HH
