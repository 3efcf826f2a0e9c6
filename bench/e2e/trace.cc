#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hh"

namespace duplexity::e2e
{

namespace
{

/** JSON string body with the two characters JSON requires escaping
 *  (span names and details are plain ASCII otherwise). */
std::string
escaped(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

int
Tracer::begin(const std::string &name, int parent,
              const std::string &detail)
{
    if (!enabled_)
        return -1;
    const double now = wallNow();
    return push(name, parent, now, now, detail, false);
}

void
Tracer::end(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end = wallNow();
}

void
Tracer::addTask(const std::string &name, int parent, double start,
                double end, const std::string &detail)
{
    if (enabled_)
        push(name, parent, start, end, detail, true);
}

int
Tracer::push(const std::string &name, int parent, double start,
             double end, const std::string &detail, bool task)
{
    Span span;
    span.name = name;
    span.detail = detail;
    span.start = start;
    span.end = end;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.task = task;
    spans_.push_back(span);
    return span.id;
}

std::vector<std::vector<int>>
Tracer::children() const
{
    std::vector<std::vector<int>> kids(spans_.size());
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            kids[static_cast<std::size_t>(span.parent)].push_back(span.id);
    }
    return kids;
}

double
Tracer::selfSeconds(const Span &span,
                    const std::vector<std::vector<int>> &kids) const
{
    // Pool tasks overlap, so subtract the union of the children's
    // intervals (clipped to the parent), not their summed durations.
    std::vector<std::pair<double, double>> cover;
    for (int k : kids[static_cast<std::size_t>(span.id)]) {
        const Span &child = spans_[static_cast<std::size_t>(k)];
        cover.emplace_back(std::max(child.start, span.start),
                           std::min(child.end, span.end));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto &[lo, hi] : cover) {
        const double from = std::max(lo, reach);
        if (hi > from) {
            covered += hi - from;
            reach = hi;
        }
    }
    return (span.end - span.start) - covered;
}

std::map<std::string, double>
Tracer::selfSecondsByName() const
{
    const auto kids = children();
    std::map<std::string, double> self;
    for (const Span &span : spans_)
        self[span.name] += selfSeconds(span, kids);
    return self;
}

std::string
Tracer::checkNesting() const
{
    const auto kids = children();
    for (const Span &span : spans_) {
        std::ostringstream why;
        if (span.end < span.start) {
            why << span.name << " ends before it starts";
            return why.str();
        }
        if (span.parent >= 0) {
            const Span &up = spans_[static_cast<std::size_t>(span.parent)];
            if (span.start < up.start || span.end > up.end) {
                why << span.name << " lies outside its parent "
                    << up.name;
                return why.str();
            }
        }
        if (selfSeconds(span, kids) < 0.0) {
            why << span.name << " has negative self time";
            return why.str();
        }
    }
    return "";
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    // Main-thread spans nest on row 0. Pool-task spans overlap, so
    // they are packed greedily onto the first row that is free again.
    std::vector<std::size_t> order(spans_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return spans_[a].start < spans_[b].start;
                     });
    const double origin = spans_.empty() ? 0.0 : spans_[order[0]].start;
    std::vector<int> row(spans_.size(), 0);
    std::vector<double> row_free; // rows 1.. for pool tasks
    for (std::size_t i : order) {
        const Span &span = spans_[i];
        if (!span.task)
            continue;
        std::size_t r = 0;
        while (r < row_free.size() && row_free[r] > span.start)
            ++r;
        if (r == row_free.size())
            row_free.push_back(0.0);
        row_free[r] = span.end;
        row[i] = static_cast<int>(r) + 1;
    }
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(out,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %d, \"parent\": %d, "
                     "\"detail\": \"%s\"}}%s\n",
                     escaped(span.name).c_str(), row[i],
                     1e6 * (span.start - origin),
                     1e6 * (span.end - span.start), span.id, span.parent,
                     escaped(span.detail).c_str(),
                     i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

} // namespace duplexity::e2e
