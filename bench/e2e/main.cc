/**
 * @file
 * dpx_bench: the end-to-end benchmark program.
 *
 *   dpx_bench --workload <fig5|smt_scaling|tail_mg1>
 *             --seed <n> [--seconds <s>] [--trace <0|1>]
 *             [--trace-out <file>] [--out <file>]
 *             [--setup-extra <s,s,...>] [--setup-only]
 *   dpx_bench --smoke --out <file>
 *
 * One process, one closed-loop client: set-up runs once, then the
 * workload builds its inputs, then timed reps of fixed work run back
 * to back until the next rep would end past --seconds (at least one
 * rep). Every end-to-end metric is printed by name with its unit; with
 * --trace 1 the reps run traced and a probe phase prices each layer,
 * and the per-layer metrics are printed instead. The last stdout line
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * The exit code is non-zero when an output check fails.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "core/calibration.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

using namespace duplexity;
using namespace duplexity::e2e;

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by untraced runs. compare.py
 *  --check-spec holds this list and the next to BENCHMARK.json. */
const std::vector<MetricSpec> kEndToEnd{
    {"setup_s", "s"},
    {"wall_ns_per_event", "ns"},
    {"cpu_ns_per_event", "ns"},
    {"max_rss_mb", "MB"},
};

/** Per-layer metrics, reported by traced runs. */
const std::vector<MetricSpec> kPerLayer{
    {"core.calib_probes", "count"},
    {"core.calib_hit_ratio", "ratio"},
    {"trace.wall_ns_per_event", "ns"},
    {"model.ref_err_pct", "%"},
    {"cpu.ooo_ns_per_op", "ns"},
    {"cpu.ino_ns_per_op", "ns"},
    {"cpu.hsmt_ns_per_op", "ns"},
    {"workload.fill_ns_per_op.master", "ns"},
    {"workload.fill_ns_per_op.batch", "ns"},
    {"mem.load_ns", "ns"},
    {"mem.fetch_ns", "ns"},
    {"mem.filler_load_ns", "ns"},
    {"branch.ns_per_branch.tournament", "ns"},
    {"branch.ns_per_branch.gshare", "ns"},
    {"sim.rng_fill_ns_per_word", "ns"},
    {"sim.sample_ns.exponential", "ns"},
    {"sim.sample_ns.empirical", "ns"},
    {"sim.stats_add_ns", "ns"},
    {"sim.p99_select_ns_per_sample", "ns"},
    {"queueing.ns_per_req.k1", "ns"},
    {"cpu.ipc.ooo", "ratio"},
    {"cpu.ipc.ino", "ratio"},
    {"cpu.ipc.hsmt", "ratio"},
    {"cpu.hsmt_swaps_per_kop", "count"},
    {"mem.l1d_miss_rate", "ratio"},
    {"mem.l1i_miss_rate", "ratio"},
    {"mem.llc_miss_rate", "ratio"},
    {"branch.mispredict_rate", "ratio"},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A run never measures longer than this, whatever --seconds says. */
constexpr double kMaxMeasureSeconds = 120.0;

/**
 * Host-speed sampler. Shared hosts drift by tens of percent within
 * seconds, for wall and CPU time alike, and the drift is invisible to
 * the guest (no steal time, no hardware counters). So while timed work
 * runs, one extra thread repeats a fixed round of work in code no
 * repository change touches: random reads and writes over a private
 * 4 MiB table, integer hashing, data-dependent branches (the mix a
 * cache-model simulator runs), timed in thread CPU time, with a pause
 * after each round so it takes about a fifth of one core. The median
 * round measures how fast the host ran during the work, and times are
 * reported scaled to a host whose round takes kNominalRoundSeconds.
 */
class HostSampler
{
  public:
    /** This host's median round (4 vCPU Xeon, 2.1 GHz). */
    static constexpr double kNominalRoundSeconds = 3.2e-3;

    HostSampler() : table_(1u << 19)
    {
        for (std::size_t i = 0; i < table_.size(); ++i)
            table_[i] = i * 0x9e3779b97f4a7c15ull;
    }

    void
    start()
    {
        rounds_.clear();
        stop_ = false;
        pool_.submit([this] { sample(); });
    }

    /** Stop sampling; returns the host-speed factor of the interval
     *  since start(): nominal over measured round time. */
    double
    stop()
    {
        stop_ = true;
        pool_.wait();
        return kNominalRoundSeconds / median(rounds_);
    }

    /** CPU seconds the sampler used between start() and stop(). */
    double cpuSeconds() const { return cpu_; }

  private:
    void
    sample()
    {
        const double c0 = threadCpuNow();
        // A set-up can take only tens of milliseconds: then the rounds
        // that make up the minimum run just after it, when the host
        // runs at much the same speed.
        while (!stop_ || rounds_.size() < 8) {
            const double r0 = threadCpuNow();
            sink_ += round();
            rounds_.push_back(threadCpuNow() - r0);
            std::this_thread::sleep_for(std::chrono::milliseconds(12));
        }
        cpu_ = threadCpuNow() - c0;
    }

    std::uint64_t
    round()
    {
        const std::size_t mask = table_.size() - 1;
        std::uint64_t x = 0x2545f4914f6cdd1dull;
        std::uint64_t acc = 0;
        for (int i = 0; i < 250'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::uint64_t v = table_[x & mask];
            acc = (v & 1) ? acc + (x >> 3) : acc ^ v;
            table_[(x >> 24) & mask] = acc;
        }
        return acc;
    }

    std::vector<std::uint64_t> table_;
    std::vector<double> rounds_;
    std::uint64_t sink_ = 0;
    double cpu_ = 0.0;
    std::atomic<bool> stop_{false};
    /** Last member: destroyed first, joining the sampling thread. */
    ThreadPool pool_{1};
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    std::string trace_out;
    std::string out;
    unsigned threads = 0;
    double probe_seconds = 0.2;
    std::vector<double> setup_extra;
    bool setup_only = false;
    bool smoke = false;
};

struct Outcome
{
    /** Set-up seconds at nominal host speed, one per process. */
    std::vector<double> setup_s;
    double input_s = 0.0;
    /** Per rep: wall and CPU seconds, host-speed factor, events. */
    std::vector<double> rep_s;
    std::vector<double> rep_cpu_s;
    std::vector<double> speed;
    std::vector<double> events;
    std::uint64_t fnv = 0;
    bool fnv_stable = true;
    double ref_err_pct = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Emitted metrics in table order. */
    std::vector<std::pair<MetricSpec, double>> metrics;
    std::map<std::string, double> self_s;
    std::string nesting_error;

    bool correct() const { return failed == 0 && fnv_stable; }
};

unsigned
defaultThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const unsigned n =
        sched_getaffinity(0, sizeof(set), &set) == 0
            ? static_cast<unsigned>(CPU_COUNT(&set))
            : ThreadPool::hardwareThreads();
    return std::clamp(n, 1u, 4u);
}

double
maxRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
emit(Outcome &o, const std::vector<MetricSpec> &table,
     const std::map<std::string, double> &values)
{
    for (const MetricSpec &m : table) {
        auto it = values.find(m.name);
        DPX_CHECK(it != values.end()) << " — metric " << m.name
                                      << " was not measured";
        DPX_CHECK(std::isfinite(it->second))
            << " — metric " << m.name << " is not finite";
        o.metrics.emplace_back(m, it->second);
    }
}

Outcome
runWorkload(const Options &opt)
{
    std::unique_ptr<Workload> workload =
        makeWorkload(opt.workload, opt.seed, opt.smoke);
    if (!workload)
        fatal("unknown workload '" + opt.workload + "'");
    Tracer trace(opt.trace);
    Outcome o;

    HostSampler host;
    const double t0 = wallNow();
    host.start();
    {
        ScopedSpan span(trace, "setup", -1, opt.workload);
        workload->setup(opt.threads, trace, span.id());
    }
    const double setup_wall = wallNow() - t0;
    o.setup_s.push_back(setup_wall * host.stop());
    if (opt.setup_only)
        return o;
    o.setup_s.insert(o.setup_s.end(), opt.setup_extra.begin(),
                     opt.setup_extra.end());
    const CalibrationMemoStats calib_setup = calibrationMemoStats();

    const double t1 = wallNow();
    {
        ScopedSpan span(trace, "inputs", -1, opt.workload);
        workload->makeInputs(opt.threads, trace, span.id());
    }
    o.input_s = wallNow() - t1;

    std::vector<RepResult> reps;
    const double start = wallNow();
    for (;;) {
        const int span =
            trace.begin("rep", -1, "rep " + std::to_string(reps.size()));
        host.start();
        const double w0 = wallNow();
        const double c0 = cpuNow();
        reps.push_back(workload->rep(opt.threads, trace, span));
        const double c1 = cpuNow();
        const double w1 = wallNow();
        o.speed.push_back(host.stop());
        o.rep_cpu_s.push_back(c1 - c0 - host.cpuSeconds());
        o.rep_s.push_back(w1 - w0);
        o.events.push_back(reps.back().events);
        trace.end(span);
        const double elapsed = wallNow() - start;
        if (elapsed > kMaxMeasureSeconds ||
            elapsed + median(o.rep_s) > opt.seconds)
            break;
    }
    const CalibrationMemoStats calib_end = calibrationMemoStats();

    o.fnv = reps.front().fnv;
    for (const RepResult &r : reps) {
        o.fnv_stable = o.fnv_stable && r.fnv == o.fnv;
        o.attempted += r.attempted;
        o.failed += r.failed;
        for (const std::string &f : r.failures) {
            if (o.failures.size() < 5)
                o.failures.push_back(f);
        }
    }
    if (!o.fnv_stable)
        o.failures.push_back("outputs differ between reps");
    o.ref_err_pct = reps.front().ref_err_pct;

    // Nanoseconds per simulated event at nominal host speed.
    std::vector<double> wall_ns, cpu_ns;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const double per_event = 1e9 * o.speed[i] / o.events[i];
        wall_ns.push_back(o.rep_s[i] * per_event);
        cpu_ns.push_back(o.rep_cpu_s[i] * per_event);
    }
    if (!opt.trace) {
        emit(o, kEndToEnd,
             {{"setup_s", median(o.setup_s)},
              {"wall_ns_per_event", median(wall_ns)},
              {"cpu_ns_per_event", median(cpu_ns)},
              {"max_rss_mb", maxRssMb()}});
        return o;
    }

    ProbeValues values;
    {
        ScopedSpan span(trace, "probes", -1, opt.workload);
        values = runProbes(workload->probeInputs(), opt.seed,
                           opt.probe_seconds, trace, span.id());
    }
    const double lookups =
        static_cast<double>(calib_end.probes + calib_end.wide_hits);
    values["core.calib_probes"] = static_cast<double>(calib_setup.probes);
    values["core.calib_hit_ratio"] =
        lookups > 0.0 ? static_cast<double>(calib_end.wide_hits) / lookups
                      : 0.0;
    values["trace.wall_ns_per_event"] = median(wall_ns);
    values["model.ref_err_pct"] = o.ref_err_pct;
    emit(o, kPerLayer, values);

    o.self_s = trace.selfSecondsByName();
    o.nesting_error = trace.checkNesting();
    if (!opt.trace_out.empty() && !trace.writeChromeTrace(opt.trace_out))
        fatal("cannot write trace file " + opt.trace_out);
    return o;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** JSON number with every digit of the double. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

std::string
metricsJson(const Outcome &o)
{
    std::string out = "{";
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
        const auto &[m, v] = o.metrics[i];
        out += std::string(i ? ", " : "") + "\"" + m.name +
               "\": {\"value\": " + num(v) + ", \"unit\": \"" + m.unit +
               "\"}";
    }
    return out + "}";
}

/** The full result record compare.py reads. */
std::string
recordJson(const Options &opt, const Outcome &o)
{
    std::ostringstream f;
    f << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
      << opt.seed << ", \"threads\": " << opt.threads
      << ", \"trace\": " << (opt.trace ? "true" : "false")
      << ", \"seconds\": " << num(opt.seconds)
      << ",\n \"setup_samples_s\": " << jsonList(o.setup_s)
      << ", \"input_s\": " << num(o.input_s)
      << ",\n \"rep_s\": " << jsonList(o.rep_s)
      << ",\n \"rep_cpu_s\": " << jsonList(o.rep_cpu_s)
      << ",\n \"speed\": " << jsonList(o.speed)
      << ",\n \"events\": " << jsonList(o.events)
      << ",\n \"ref_err_pct\": " << num(o.ref_err_pct)
      << ", \"outputs_fnv\": \"" << hex(o.fnv)
      << "\", \"correct\": " << (o.correct() ? "true" : "false")
      << ", \"attempted\": " << o.attempted
      << ", \"failed\": " << o.failed << ",\n \"metrics\": "
      << metricsJson(o) << "}";
    return f.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text << "\n";
    if (!f)
        fatal("cannot write result file " + path);
}

void
report(const Options &opt, const Outcome &o)
{
    std::printf("workload %s seed %llu threads %u reps %zu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.threads,
                o.rep_s.size());
    std::printf("outputs_fnv %s%s\n", hex(o.fnv).c_str(),
                o.fnv_stable ? "" : " (differs between reps)");
    std::printf("ref_err_pct %.6g %%\n", o.ref_err_pct);
    // Raw times are reported next to the gated host-relative ones.
    std::printf("input_s %.6g s, run_s %.6g s, cpu_s %.6g s (median "
                "rep), host speed %.4g of nominal\n",
                o.input_s, median(o.rep_s), median(o.rep_cpu_s),
                median(o.speed));
    std::printf("fail_frac %.6g (%llu of %llu operations)\n",
                o.attempted ? static_cast<double>(o.failed) /
                                  static_cast<double>(o.attempted)
                            : 0.0,
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted));
    for (const std::string &f : o.failures)
        std::printf("check failed: %s\n", f.c_str());
    for (const auto &[m, v] : o.metrics)
        std::printf("metric %-34s %14.6g %s\n", m.name, v, m.unit);
    for (const auto &[name, s] : o.self_s)
        std::printf("self_s %-34s %14.6f s\n", name.c_str(), s);
    if (!o.nesting_error.empty())
        std::printf("trace nesting error: %s\n", o.nesting_error.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                o.correct() ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                metricsJson(o).c_str());
    std::fflush(stdout);
}

/**
 * Every workload at a tiny size, untraced on one worker and traced on
 * four: no output check fails, both give the same fingerprint, and the
 * trace spans nest. The records of all runs go to @p out, where
 * compare.py --check-spec holds their metrics to BENCHMARK.json.
 */
int
runSmoke(const std::string &out)
{
    int failures = 0;
    auto fail = [&](const std::string &msg) {
        std::printf("FAIL %s\n", msg.c_str());
        ++failures;
    };
    std::string records = "[";
    for (const std::string &name : workloadNames()) {
        const double t0 = wallNow();
        Options opt;
        opt.workload = name;
        opt.seed = 7;
        opt.smoke = true;
        opt.seconds = 0.0;
        opt.probe_seconds = 0.002;
        opt.threads = 1;
        const Outcome serial = runWorkload(opt);
        records += (records.size() > 1 ? ",\n" : "") +
                   recordJson(opt, serial);
        opt.threads = 4;
        opt.trace = true;
        const Outcome traced = runWorkload(opt);
        records += ",\n" + recordJson(opt, traced);

        if (serial.fnv != traced.fnv)
            fail(name + ": fingerprint differs between 1 and 4 threads");
        if (!serial.correct() || !traced.correct())
            fail(name + ": fail_frac != 0");
        for (const Outcome *o : {&serial, &traced})
            for (const std::string &f : o->failures)
                fail(name + ": " + f);
        if (!traced.nesting_error.empty())
            fail(name + ": " + traced.nesting_error);
        std::printf("smoke %-12s fnv %s  %.1fs\n", name.c_str(),
                    hex(serial.fnv).c_str(), wallNow() - t0);
    }
    writeFile(out, records + "]");
    std::printf("smoke: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

double
parseDouble(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v))
        fatal("bad value '" + text + "' for " + flag);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (flag == "--setup-only") {
            opt.setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = static_cast<std::uint64_t>(
                parseDouble(flag, value));
        } else if (flag == "--seconds") {
            opt.seconds = parseDouble(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                fatal("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--trace-out") {
            opt.trace_out = value;
        } else if (flag == "--out") {
            opt.out = value;
        } else if (flag == "--setup-extra") {
            std::stringstream list(value);
            for (std::string item; std::getline(list, item, ',');)
                opt.setup_extra.push_back(parseDouble(flag, item));
        } else {
            fatal("unknown flag " + flag);
        }
    }
    opt.threads = defaultThreads();
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.smoke) {
        if (opt.out.empty())
            fatal("--smoke needs --out <file> for its records");
        return runSmoke(opt.out);
    }
    if (opt.workload.empty())
        fatal("usage: dpx_bench --workload <name> --seed <n> "
              "[--seconds <s>] [--trace <0|1>] [--out <file>]");

    const Outcome o = runWorkload(opt);
    if (opt.setup_only) {
        std::printf("setup_s %s\n", num(o.setup_s.front()).c_str());
        return 0;
    }
    if (!opt.out.empty())
        writeFile(opt.out, recordJson(opt, o));
    report(opt, o);
    return o.correct() ? 0 : 1;
}
