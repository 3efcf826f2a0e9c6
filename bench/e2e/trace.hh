/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans sit around the calls the benchmark makes into the simulator:
 * each set-up call, each rep, each pool task of a rep, each probe.
 * They are kept in memory and written once, at exit, as a Chrome
 * trace-event file (loads in chrome://tracing and Perfetto). Only the
 * main thread opens and closes spans; pool tasks record their own
 * start/end into caller-owned slots and are adopted afterwards, so the
 * recorder needs no lock.
 */

#ifndef DPX_BENCH_E2E_TRACE_HH
#define DPX_BENCH_E2E_TRACE_HH

#include <map>
#include <string>
#include <vector>

namespace duplexity::e2e
{

struct Span
{
    /** Aggregation key (the called entry point). */
    std::string name;
    /** Free-form detail: service, load, design... */
    std::string detail;
    double start = 0.0;
    double end = 0.0;
    int id = 0;
    /** Id of the enclosing span; -1 for a root. */
    int parent = -1;
    /** Recorded by a pool task: may overlap its siblings. */
    bool task = false;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span now; returns its id (-1 when disabled). */
    int begin(const std::string &name, int parent,
              const std::string &detail = "");

    /** Close span @p id now. */
    void end(int id);

    /** Record a finished pool-task span measured by the task. */
    void addTask(const std::string &name, int parent, double start,
                 double end, const std::string &detail = "");

    /** Span duration minus the union of its children's intervals,
     *  summed per span name. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Empty when every child lies inside its parent and every self
     *  time is non-negative; otherwise the first violation. */
    std::string checkNesting() const;

    /** Write the Chrome trace-event JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int push(const std::string &name, int parent, double start,
             double end, const std::string &detail, bool task);
    double selfSeconds(const Span &span,
                       const std::vector<std::vector<int>> &kids) const;
    std::vector<std::vector<int>> children() const;

    bool enabled_;
    std::vector<Span> spans_;
};

/** Closes its span when it goes out of scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, int parent,
               const std::string &detail = "")
        : tracer_(tracer), id_(tracer.begin(name, parent, detail))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace duplexity::e2e

#endif // DPX_BENCH_E2E_TRACE_HH
