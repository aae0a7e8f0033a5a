/**
 * @file
 * Span recording for the benchmark's traced runs.
 *
 * A span covers one call the driver makes into a layer's public
 * function and records its name, start, end, parent span and run id.
 * Each worker thread owns one SpanLog, so recording takes no lock.
 * Spans stay in memory and are written out when the benchmark ends.
 *
 * Spans of one log open and close in stack order, so children nest
 * strictly inside their parent. A span's self time is therefore its
 * duration minus the durations of its direct children.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host nanoseconds on the steady clock. */
std::int64_t nowNs();

/** One recorded interval. */
struct Span
{
    /** Layer call, e.g. "cpu.warmup" (a string literal). */
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the same log; -1 for a root. */
    std::int32_t parent = -1;
    /** Run the span belongs to; -1 outside any run. */
    std::int32_t run = -1;
};

/** The spans of one worker thread. */
class SpanLog
{
  public:
    explicit SpanLog(unsigned worker) : worker_(worker) {}

    /** Open a span under the innermost open one; returns its id. */
    std::int32_t open(const char *name, std::int32_t run);
    /** Close span @p id, which must be the innermost open one. */
    void close(std::int32_t id);

    const std::vector<Span> &spans() const { return spans_; }
    unsigned worker() const { return worker_; }

  private:
    unsigned worker_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** RAII span; a null log records nothing (the untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::int32_t run)
        : log_(log), id_(log ? log->open(name, run) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    std::int32_t id_;
};

/** Per-name sums over every span of that name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalS = 0.0;
    /** Total minus the time covered by direct children. */
    double selfS = 0.0;
};

std::map<std::string, SpanTotals>
totalsByName(const std::vector<const SpanLog *> &logs);

/**
 * Write every span as one JSON object per line: name, start_ns,
 * end_ns, parent (index within its worker, -1 for roots), run and
 * worker. Returns false if the file cannot be written.
 */
bool writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HH
