#include "trace.hh"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int32_t
SpanLog::open(const char *name, std::int32_t run)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(id);
    // Stamp last so the bookkeeping above is not inside the span.
    spans_.back().startNs = nowNs();
    return id;
}

void
SpanLog::close(std::int32_t id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    open_.pop_back();
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<const SpanLog *> &logs)
{
    std::map<std::string, SpanTotals> out;
    for (const SpanLog *log : logs) {
        const auto &spans = log->spans();
        std::vector<double> childS(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childS[static_cast<std::size_t>(s.parent)] +=
                    1e-9 * static_cast<double>(s.endNs - s.startNs);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double d =
                1e-9 * static_cast<double>(spans[i].endNs -
                                           spans[i].startNs);
            SpanTotals &t = out[spans[i].name];
            ++t.count;
            t.totalS += d;
            t.selfS += d - childS[i];
        }
    }
    return out;
}

bool
writeSpans(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const SpanLog *log : logs)
        for (const Span &s : log->spans())
            std::fprintf(f,
                         "{\"name\":\"%s\",\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"parent\":%d,\"run\":%d,"
                         "\"worker\":%u}\n",
                         s.name, static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs), s.parent,
                         s.run, log->worker());
    return std::fclose(f) == 0;
}

}  // namespace perfbench
