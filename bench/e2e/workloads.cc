/**
 * @file
 * The three benchmark workloads. Each builds its inputs from the seed,
 * runs one fixed unit of work per rep through the simulator's public
 * entry points, fingerprints every simulated result field, and checks
 * the outputs.
 *
 *  - fig5: the Figure 5 grid through runGrid (5 services x 3 loads x
 *    7 designs). The only workload that runs HSMT units, morph windows,
 *    filler memory paths and the scenario event loop.
 *  - smt_scaling: the Figure 1(c) and Figure 2(a) SMT sweeps through
 *    runSmtSweepMany. The same core/memory/branch modules, used without
 *    HSMT, scenarios or microservice calibration: a core-engine gain
 *    shows in both, an HSMT or scenario-loop gain only in fig5.
 *  - tail_mg1: the BigHouse stage of Figures 5(d) and 5(e): every
 *    queuedP99Us call those figures make, each replaying one cell's
 *    measured service times through an M/G/1 queue until the p99's
 *    95 % CI is within 5 % (at most 60 batches). Its inputs are the
 *    fig5 grid of the same seed, so the queue sees exactly the
 *    populations the figures hand it.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <ctime>
#include <functional>

#include "bench.hh"
#include "core/calibration.hh"
#include "core/grid.hh"
#include "core/smt_sweep.hh"
#include "fig5_common.hh"
#include "queueing/queue_sim.hh"
#include "sim/parallel_sweep.hh"
#include "workload/catalog.hh"

namespace duplexity::e2e
{

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

void
Fingerprint::mixDouble(double value)
{
    mix(std::bit_cast<std::uint64_t>(value));
}

namespace
{

/** Output checks of one operation (cell, sweep point or queue run). */
class OpCheck
{
  public:
    explicit OpCheck(std::string what) : what_(std::move(what)) {}

    void
    expect(bool ok, const char *check)
    {
        if (!ok && failed_.empty())
            failed_ = what_ + ": " + check;
    }

    void
    finite(double value, const char *field)
    {
        expect(std::isfinite(value), field);
    }

    /** Count the operation, and its failure if any, into @p out. */
    void
    record(RepResult &out) const
    {
        ++out.attempted;
        if (failed_.empty())
            return;
        ++out.failed;
        if (out.failures.size() < 5)
            out.failures.push_back(failed_);
    }

  private:
    std::string what_;
    std::string failed_;
};

double
meanAbsErrPct(const std::vector<double> &rel_errors)
{
    double sum = 0.0;
    for (double e : rel_errors)
        sum += std::abs(e);
    return rel_errors.empty()
               ? 0.0
               : 100.0 * sum / static_cast<double>(rel_errors.size());
}

std::string
loadLabel(double load)
{
    return std::to_string(static_cast<int>(std::lround(100.0 * load))) +
           "%";
}

std::string
cellLabel(const GridCell &cell)
{
    return std::string(toString(cell.service)) + "@" +
           loadLabel(cell.load) + "/" + toString(cell.design);
}

/** Mean of @p f over the cells of @p design where it is defined
 *  (finite), as the Figure 5 binaries average a panel. */
double
designAverage(const Grid &grid, DesignKind design,
              const std::function<double(std::size_t)> &f)
{
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const double v = f(i);
        if (grid.cells[i].design == design && std::isfinite(v)) {
            sum += v;
            ++n;
        }
    }
    return n > 0 ? sum / n : 0.0;
}

/* ---------------- fig5 ---------------- */

/** A cell may complete no request only when it expects fewer than this
 *  many: at 30 % load the slowest services expect about 9 in the
 *  default 1.5M-cycle window, so zero is rare but legitimate there. */
constexpr double kMinExpectedRequests = 20.0;

/** queuedP99Us replays a cell only when it holds this many samples. */
constexpr std::uint64_t kMinQueuedSamples = 16;

/** Paper averages (EXPERIMENTS.md, Figure 5 sections). */
constexpr double kPaperUtilVsBaseline = 4.8;
constexpr double kPaperUtilVsSmt = 1.9;
constexpr double kPaperStpVsBaseline = 1.52;
constexpr double kPaperDensityVsBaseline = 1.49;
constexpr double kPaperWorstP99VsBaseline = 1.19;
constexpr double kPaperIsoP99VsBaseline = 1.0 / 1.8;
constexpr double kPaperIsoP99VsSmt = 1.0 / 2.7;

/** The fig05a grid: every service, load and design at GridSpec's
 *  default horizon (400k warm-up, 1.5M measured cycles). */
GridSpec
gridSpec(std::uint64_t seed, bool smoke)
{
    GridSpec spec;
    spec.base_seed = seed;
    if (smoke) {
        // Long enough for FLANN-LL at 70 % load to complete the 16
        // requests the queueing stage needs.
        spec.services = {MicroserviceKind::FlannLL};
        spec.loads = {0.7};
        spec.warmup_cycles = 20'000;
        spec.measure_cycles = 300'000;
    }
    return spec;
}

std::vector<MicroserviceKind>
gridServices(const GridSpec &spec)
{
    return spec.services.empty() ? allMicroservices() : spec.services;
}

constexpr std::array<BatchKind, 2> kBatchKinds{BatchKind::PageRank,
                                               BatchKind::Sssp};

/**
 * The calibration a grid depends on: one pool task per service
 * (calibrated spec, then the measured baseline capacity) and per batch
 * kind (calibrated spec, then its alone-run IPC). Distinct probes
 * calibrate concurrently, as runGrid's own pre-warm pass would.
 */
void
calibrateGrid(const GridSpec &spec, unsigned threads, Tracer &trace,
              int parent)
{
    const std::vector<MicroserviceKind> services = gridServices(spec);
    const std::size_t ns = services.size();
    const std::size_t n = ns + kBatchKinds.size();
    std::vector<std::array<double, 3>> t(n);
    SweepOptions options;
    options.threads = threads;
    options.label = "setup";
    parallelSweep(
        n,
        [&](std::size_t i) {
            t[i][0] = wallNow();
            if (i < ns)
                calibratedMicroservice(services[i]);
            else
                calibratedBatch(kBatchKinds[i - ns], 1);
            t[i][1] = wallNow();
            if (i < ns)
                baselineServiceUs(services[i]);
            else
                aloneBatchIpc(kBatchKinds[i - ns]);
            t[i][2] = wallNow();
        },
        options);
    for (std::size_t i = 0; i < n; ++i) {
        const bool svc = i < ns;
        const char *what =
            svc ? toString(services[i]) : toString(kBatchKinds[i - ns]);
        trace.addTask(svc ? "calibratedMicroservice" : "calibratedBatch",
                      parent, t[i][0], t[i][1], what);
        trace.addTask(svc ? "baselineServiceUs" : "aloneBatchIpc", parent,
                      t[i][1], t[i][2], what);
    }
}

Grid
runGridSpan(const GridSpec &spec, unsigned threads, Tracer &trace,
            int parent)
{
    GridSpec run = spec;
    run.threads = threads;
    ScopedSpan span(trace, "runGrid", parent);
    return runGrid(run);
}

void
mixStats(Fingerprint &fp, const SampleStats &stats)
{
    fp.mix(stats.count());
    fp.mixDouble(stats.mean());
    fp.mixDouble(stats.empty() ? 0.0 : stats.p99());
}

void
mixScenario(Fingerprint &fp, const ScenarioResult &r)
{
    fp.mix(static_cast<std::uint64_t>(r.design));
    fp.mix(static_cast<std::uint64_t>(r.service));
    fp.mixDouble(r.load);
    fp.mixDouble(r.frequency_ghz);
    fp.mixDouble(r.seconds);
    fp.mixDouble(r.utilization);
    mixStats(fp, r.service_us);
    mixStats(fp, r.sojourn_us);
    mixStats(fp, r.wait_us);
    fp.mix(r.requests);
    fp.mixDouble(r.batch_stp);
    fp.mixDouble(r.batch_ops_per_sec);
    fp.mixDouble(r.remote_ops_per_sec);
    const ActivityCounters &a = r.activity;
    fp.mixDouble(a.seconds);
    for (std::uint64_t v : {a.ooo_ops, a.ino_ops, a.l1_accesses,
                            a.llc_accesses, a.dram_accesses,
                            a.l0_accesses, a.link_traversals})
        fp.mix(v);
    fp.mixDouble(r.offered_rps);
    fp.mixDouble(r.filler_window_fraction);
    for (std::uint64_t v :
         {r.filler_ops, r.lender_ops, r.master_ops, r.filler_swaps})
        fp.mix(v);
}

void
checkScenario(OpCheck &check, const ScenarioResult &r)
{
    for (double v : {r.utilization, r.batch_stp, r.batch_ops_per_sec,
                     r.remote_ops_per_sec, r.offered_rps,
                     r.filler_window_fraction, r.service_us.mean(),
                     r.sojourn_us.mean(), r.wait_us.mean()})
        check.finite(v, "non-finite result field");
    check.expect(r.utilization >= 0.0 && r.utilization <= 1.0,
                 "utilization outside [0,1]");
    check.expect(r.filler_window_fraction >= 0.0 &&
                     r.filler_window_fraction <= 1.0,
                 "filler window fraction outside [0,1]");
    check.expect(r.batch_stp >= 0.0, "batch_stp < 0");
    check.expect(r.requests > 0 ||
                     r.offered_rps * r.seconds < kMinExpectedRequests,
                 "no request completed");
    // The co-runner designs retire co-runner ops the result does not
    // break out; every other design must account for each op.
    if (r.design != DesignKind::Smt && r.design != DesignKind::SmtPlus) {
        check.expect(r.activity.totalOps() ==
                         r.master_ops + r.filler_ops + r.lender_ops,
                     "retired ops != master + filler + lender ops");
    }
}

/** Index of each cell's Baseline cell at the same service and load. */
std::vector<std::size_t>
baselineIndex(const Grid &grid)
{
    std::vector<std::size_t> out(grid.cells.size());
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const GridCell &c = grid.cells[i];
        for (std::size_t j = 0; j < grid.cells.size(); ++j) {
            const GridCell &b = grid.cells[j];
            if (b.design == DesignKind::Baseline &&
                b.service == c.service && b.load == c.load)
                out[i] = j;
        }
    }
    return out;
}

/** Mean |error| of the grid's headline averages vs the paper's. */
double
fig5RefErrPct(const Grid &grid)
{
    const std::vector<std::size_t> base = baselineIndex(grid);
    auto result = [&](std::size_t i) -> const ScenarioResult & {
        return grid.cells[i].result;
    };
    auto util = [&](std::size_t i) { return result(i).utilization; };
    auto vs_base = [&](const std::function<double(
                           const ScenarioResult &)> &f) {
        return [&, f](std::size_t i) {
            return f(result(i)) / f(result(base[i]));
        };
    };
    const double dup_util =
        designAverage(grid, DesignKind::Duplexity, util);
    const double stp = designAverage(
        grid, DesignKind::Duplexity,
        vs_base([](const ScenarioResult &r) { return r.batch_stp; }));
    const double density =
        designAverage(grid, DesignKind::Duplexity,
                      vs_base(bench::performanceDensity));
    return meanAbsErrPct({
        dup_util / designAverage(grid, DesignKind::Baseline, util) /
                kPaperUtilVsBaseline -
            1.0,
        dup_util / designAverage(grid, DesignKind::Smt, util) /
                kPaperUtilVsSmt -
            1.0,
        stp / kPaperStpVsBaseline - 1.0,
        density / kPaperDensityVsBaseline - 1.0,
    });
}

/** 32 filler contexts alternating the two graph kernels, as the
 *  scenario's shared dyad pool does. */
template <class MakeBatch>
std::vector<BatchSpec>
hsmtPool(MakeBatch &&make)
{
    std::vector<BatchSpec> out;
    for (ThreadId uid = 1; uid <= 32; ++uid)
        out.push_back(make(uid));
    return out;
}

/** Probe inputs of the grid workloads: the calibrated streams the
 *  cells run, and each queued cell's M/G/1 stage as queuedP99Us builds
 *  it (arrivals at the cell's load of the baseline capacity). */
ProbeInputs
gridProbeInputs(const GridSpec &spec, const Grid &grid)
{
    ProbeInputs in;
    for (MicroserviceKind kind : gridServices(spec))
        in.ooo_services.push_back(calibratedMicroservice(kind));
    in.ino_batches = {calibratedBatch(BatchKind::PageRank, 1),
                      calibratedBatch(BatchKind::Sssp, 2)};
    in.hsmt_contexts = hsmtPool([](ThreadId uid) {
        return calibratedBatch(
            uid % 2 ? BatchKind::PageRank : BatchKind::Sssp, uid);
    });
    for (const GridCell &cell : grid.cells) {
        const ScenarioResult &r = cell.result;
        if (r.service_us.count() < kMinQueuedSamples)
            continue;
        in.queues.push_back(
            {makeExponential(fromMicros(baselineServiceUs(r.service)) /
                             cell.load),
             makeScaled(makeEmpirical(r.service_us.samples()), 1e-6)});
    }
    return in;
}

class Fig5 : public Workload
{
  public:
    Fig5(std::uint64_t seed, bool smoke) : spec_(gridSpec(seed, smoke)) {}

    void
    setup(unsigned threads, Tracer &trace, int parent) override
    {
        calibrateGrid(spec_, threads, trace, parent);
    }

    void makeInputs(unsigned, Tracer &, int) override {}

    RepResult
    rep(unsigned threads, Tracer &trace, int parent) override
    {
        grid_ = runGridSpan(spec_, threads, trace, parent);
        RepResult out;
        Fingerprint fp;
        for (const GridCell &cell : grid_.cells) {
            mixScenario(fp, cell.result);
            OpCheck check(cellLabel(cell));
            checkScenario(check, cell.result);
            check.record(out);
            out.events +=
                static_cast<double>(cell.result.activity.totalOps());
        }
        out.fnv = fp.value();
        out.ref_err_pct = fig5RefErrPct(grid_);
        return out;
    }

    ProbeInputs
    probeInputs() const override
    {
        return gridProbeInputs(spec_, grid_);
    }

  private:
    GridSpec spec_;
    /** The last rep's grid: its populations feed the queue probes. */
    Grid grid_;
};

/* ---------------- smt_scaling ---------------- */

constexpr Cycle kSweepWarmup = 100'000;
constexpr Cycle kSweepMeasure = 400'000;

/** Figure 1(c) FLANN-X-Y variants (compute µs : stall µs). */
struct Variant
{
    const char *name;
    double compute_us;
    double stall_us;
};
constexpr std::array<Variant, 4> kVariants{{{"baseline", 10.0, 0.0},
                                            {"FLANN-9-1", 9.0, 1.0},
                                            {"FLANN-10-10", 10.0, 10.0},
                                            {"FLANN-1-1", 1.0, 1.0}}};

/** Figure 1(c) / 2(a) shape references (EXPERIMENTS.md). */
constexpr double kPaperBaselinePeakThreads = 8.0;
constexpr double kPaperFlann11PeakThreads = 15.0;
constexpr double kPaperOooOverInoAt8 = 1.0;

class SmtScaling : public Workload
{
  public:
    SmtScaling(std::uint64_t seed, bool smoke) : seed_(seed)
    {
        max_threads_ = smoke ? 4 : 16;
        max_ino_threads_ = smoke ? 2 : 10;
        warmup_ = smoke ? 20'000 : kSweepWarmup;
        measure_ = smoke ? 50'000 : kSweepMeasure;
        variants_ = smoke ? std::vector<Variant>{kVariants[0], kVariants[3]}
                          : std::vector<Variant>(kVariants.begin(),
                                                 kVariants.end());
    }

    void
    setup(unsigned, Tracer &trace, int parent) override
    {
        specs_.clear();
        for (const Variant &v : variants_) {
            ScopedSpan span(trace, "calibratedFlannXY", parent, v.name);
            specs_.push_back(
                calibratedFlannXY(v.compute_us, v.stall_us, 0));
        }
    }

    void
    makeInputs(unsigned, Tracer &, int) override
    {
        points_.clear();
        for (std::uint32_t n = 1; n <= max_threads_; ++n) {
            for (std::size_t v = 0; v < variants_.size(); ++v) {
                SmtSweepConfig cfg;
                cfg.mode = IssueMode::OutOfOrder;
                cfg.threads = n;
                // Concurrent requests of one FLANN instance share the
                // LSH tables: one data region for every thread.
                cfg.workload = [spec = specs_[v]](ThreadId) {
                    return spec;
                };
                cfg.seed = deriveCellSeed(
                    seed_, {n, coordKey(variants_[v].compute_us),
                            coordKey(variants_[v].stall_us)});
                points_.push_back(cfg);
            }
        }
        fig2a_begin_ = points_.size();
        for (std::uint32_t n = 1; n <= max_ino_threads_; ++n) {
            for (IssueMode mode :
                 {IssueMode::OutOfOrder, IssueMode::InOrder}) {
                SmtSweepConfig cfg;
                cfg.mode = mode;
                cfg.threads = n;
                cfg.workload = [](ThreadId uid) {
                    return makeSpecBatch(static_cast<SpecProfile>(uid % 3),
                                         uid);
                };
                cfg.seed = deriveCellSeed(
                    seed_, {0xf2a, n, static_cast<std::uint64_t>(mode)});
                points_.push_back(cfg);
            }
        }
        for (SmtSweepConfig &cfg : points_) {
            cfg.warmup_cycles = warmup_;
            cfg.measure_cycles = measure_;
        }
    }

    RepResult
    rep(unsigned threads, Tracer &trace, int parent) override
    {
        std::vector<SmtSweepResult> results;
        {
            ScopedSpan span(trace, "runSmtSweepMany", parent);
            results = runSmtSweepMany(points_, threads);
        }
        RepResult out;
        Fingerprint fp;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const SmtSweepResult &r = results[i];
            fp.mixDouble(r.total_ipc);
            fp.mixDouble(r.l1d_miss_rate);
            fp.mixDouble(r.mispredict_rate);
            OpCheck check(pointLabel(i));
            for (double v : {r.total_ipc, r.l1d_miss_rate,
                             r.mispredict_rate})
                check.finite(v, "non-finite result field");
            // One 4-wide core: aggregate IPC is at most its width.
            check.expect(r.total_ipc > 0.0 && r.total_ipc <= 4.0,
                         "total_ipc outside (0,4]");
            check.expect(r.l1d_miss_rate >= 0.0 && r.l1d_miss_rate <= 1.0,
                         "l1d miss rate outside [0,1]");
            check.expect(r.mispredict_rate >= 0.0 &&
                             r.mispredict_rate <= 1.0,
                         "mispredict rate outside [0,1]");
            check.record(out);
            out.events += r.total_ipc * static_cast<double>(measure_);
        }
        out.fnv = fp.value();
        out.ref_err_pct = refErrPct(results);
        return out;
    }

    /** No queue runs here: the queueing probes price one Figure 1(b)
     *  M/G/1 queue (lognormal σ = 0.8 service, 10 µs mean, at 70 %
     *  load) replayed from 128 draws, the size of a busy fig5 cell. */
    ProbeInputs
    probeInputs() const override
    {
        ProbeInputs in;
        in.ooo_batches = specs_;
        for (ThreadId uid = 0; uid < 3; ++uid) {
            in.ino_batches.push_back(
                makeSpecBatch(static_cast<SpecProfile>(uid), uid));
        }
        in.hsmt_contexts = hsmtPool([](ThreadId uid) {
            return uid % 2 ? calibratedFlannXY(1.0, 1.0, uid)
                           : calibratedFlannXY(10.0, 10.0, uid);
        });
        Rng rng(Rng::deriveStreamSeed(seed_, {0x1b}));
        const DistributionPtr lognormal =
            makeLogNormal(fromMicros(10.0), 0.8);
        std::vector<double> draws(128);
        for (double &d : draws)
            d = lognormal->sample(rng);
        in.queues.push_back({makeExponential(fromMicros(10.0) / 0.7),
                             makeEmpirical(std::move(draws))});
        return in;
    }

  private:
    std::string
    pointLabel(std::size_t i) const
    {
        const SmtSweepConfig &cfg = points_[i];
        if (i < fig2a_begin_) {
            return std::string(variants_[i % variants_.size()].name) +
                   " x" + std::to_string(cfg.threads);
        }
        return std::string(cfg.mode == IssueMode::OutOfOrder ? "OoO"
                                                             : "InO") +
               " mix x" + std::to_string(cfg.threads);
    }

    /** Thread count at which variant @p v's throughput peaks. */
    double
    peakThreads(const std::vector<SmtSweepResult> &r, std::size_t v) const
    {
        std::size_t best = v;
        for (std::size_t i = v; i < fig2a_begin_; i += variants_.size()) {
            if (r[i].total_ipc > r[best].total_ipc)
                best = i;
        }
        return static_cast<double>(points_[best].threads);
    }

    double
    refErrPct(const std::vector<SmtSweepResult> &r) const
    {
        const std::uint32_t at = std::min<std::uint32_t>(8, max_ino_threads_);
        const std::size_t ooo = fig2a_begin_ + 2 * (at - 1);
        return meanAbsErrPct({
            peakThreads(r, 0) / kPaperBaselinePeakThreads - 1.0,
            peakThreads(r, variants_.size() - 1) /
                    kPaperFlann11PeakThreads -
                1.0,
            r[ooo].total_ipc / r[ooo + 1].total_ipc /
                    kPaperOooOverInoAt8 -
                1.0,
        });
    }

    std::uint64_t seed_;
    std::uint32_t max_threads_ = 16;
    std::uint32_t max_ino_threads_ = 10;
    Cycle warmup_ = kSweepWarmup;
    Cycle measure_ = kSweepMeasure;
    std::vector<Variant> variants_;
    std::vector<BatchSpec> specs_;
    std::vector<SmtSweepConfig> points_;
    std::size_t fig2a_begin_ = 0;
};

/* ---------------- tail_mg1 ---------------- */

/** The fields of one queue run the benchmark keeps (the full result
 *  holds up to 1.2M samples per statistic). */
struct QueueSummary
{
    double sojourn_p50 = 0.0, sojourn_p99 = 0.0, sojourn_mean = 0.0;
    double wait_p50 = 0.0, wait_p99 = 0.0, wait_mean = 0.0;
    double utilization = 0.0;
    std::uint64_t completed = 0;
    bool converged = false;
};

class Tail : public Workload
{
  public:
    Tail(std::uint64_t seed, bool smoke)
        : spec_(gridSpec(seed, smoke)), smoke_(smoke)
    {
    }

    void
    setup(unsigned threads, Tracer &trace, int parent) override
    {
        calibrateGrid(spec_, threads, trace, parent);
    }

    /**
     * The fig5 grid of the same seed, then every queuedP99Us call the
     * Figure 5(d) and 5(e) binaries make on it: each cell at its own
     * load, and at its iso-throughput load (scaled by the Baseline
     * cell's performance density over its own, at most 0.95).
     */
    void
    makeInputs(unsigned threads, Tracer &trace, int parent) override
    {
        // Nothing may read a cell's percentiles before the queue stage:
        // that sorts its samples, and the stage draws them by index.
        grid_ = runGridSpan(spec_, threads, trace, parent);
        base_ = baselineIndex(grid_);
        calls_.clear();
        for (std::size_t i = 0; i < grid_.cells.size(); ++i) {
            const GridCell &cell = grid_.cells[i];
            const double iso = std::min(
                0.95, cell.load *
                          bench::performanceDensity(
                              grid_.cells[base_[i]].result) /
                          bench::performanceDensity(cell.result));
            calls_.push_back({i, cell.load});
            calls_.push_back({i, iso});
        }
    }

    /**
     * The calls one after another, as the figure binaries make them.
     * Each builds the M/G/1 stage exactly as queuedP99Us does, so the
     * rep can count requests and keep every result field; the smoke
     * test checks each p99 against queuedP99Us itself.
     */
    RepResult
    rep(unsigned, Tracer &trace, int parent) override
    {
        RepResult out;
        Fingerprint fp;
        std::vector<double> p99(calls_.size());
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            const ScenarioResult &cell =
                grid_.cells[calls_[i].cell].result;
            QueueSummary q;
            {
                ScopedSpan span(trace, "runQueueSim", parent,
                                callLabel(i));
                q = queued(cell, calls_[i].load);
            }
            p99[i] = toMicros(q.sojourn_p99);
            for (double v : {q.sojourn_p50, q.sojourn_p99, q.sojourn_mean,
                             q.wait_p50, q.wait_p99, q.wait_mean,
                             q.utilization})
                fp.mixDouble(v);
            fp.mix(q.completed);
            fp.mix(q.converged);
            out.events += static_cast<double>(q.completed);

            OpCheck check(callLabel(i));
            const SampleStats &service = cell.service_us;
            if (service.count() >= kMinQueuedSamples) {
                for (double v : {q.sojourn_p50, q.sojourn_p99,
                                 q.sojourn_mean, q.wait_mean})
                    check.finite(v, "non-finite result field");
                check.expect(q.completed > 0, "no request completed");
                check.expect(p99[i] >= service.min(),
                             "p99 sojourn below the shortest service time");
                check.expect(q.sojourn_p50 <= q.sojourn_p99,
                             "sojourn p50 above p99");
                check.expect(q.wait_mean >= 0.0, "negative mean wait");
                check.expect(q.utilization > 0.0 && q.utilization <= 1.0,
                             "utilization outside (0,1]");
            }
            if (smoke_) {
                check.expect(p99[i] == bench::queuedP99Us(cell,
                                                          calls_[i].load),
                             "p99 differs from queuedP99Us");
            }
            check.record(out);
        }
        out.fnv = fp.value();
        out.ref_err_pct = refErrPct(p99);
        return out;
    }

    ProbeInputs
    probeInputs() const override
    {
        return gridProbeInputs(spec_, grid_);
    }

  private:
    struct Call
    {
        std::size_t cell;
        double load;
    };

    /** queuedP99Us's M/G/1 stage (bench/fig5_common.cc): the cell's
     *  service population at @p load of the baseline capacity, at most
     *  60 batches, seed 1234. Cells with fewer than 16 samples are not
     *  queued. */
    static QueueSummary
    queued(const ScenarioResult &cell, double load)
    {
        QueueSummary s;
        if (cell.service_us.count() < kMinQueuedSamples)
            return s;
        const double lambda =
            load / fromMicros(baselineServiceUs(cell.service));
        QueueSimConfig cfg;
        cfg.interarrival = makeExponential(1.0 / lambda);
        cfg.service =
            makeScaled(makeEmpirical(cell.service_us.samples()), 1e-6);
        cfg.max_batches = 60;
        cfg.seed = 1234;
        const QueueSimResult r = runQueueSim(cfg);
        s.sojourn_p50 = r.sojourn.percentile(0.5);
        s.sojourn_p99 = r.p99Sojourn();
        s.sojourn_mean = r.sojourn.mean();
        s.wait_p50 = r.wait.percentile(0.5);
        s.wait_p99 = r.wait.p99();
        s.wait_mean = r.wait.mean();
        s.utilization = r.utilization;
        s.completed = r.completed;
        s.converged = r.converged;
        return s;
    }

    std::string
    callLabel(std::size_t i) const
    {
        return cellLabel(grid_.cells[calls_[i].cell]) + " queued at " +
               loadLabel(calls_[i].load);
    }

    /**
     * Figure 5(d): Duplexity's worst p99 over Baseline's. Figure 5(e):
     * Duplexity's mean iso-throughput p99 over Baseline's, and over
     * SMT's. Cells whose Baseline has no p99 are skipped, as there.
     */
    double
    refErrPct(const std::vector<double> &p99) const
    {
        // Calls 2i and 2i+1 are cell i at its load and its iso load.
        auto ratio = [&](std::size_t i, std::size_t which) {
            const double base = p99[2 * base_[i] + which];
            return base > 0.0 ? p99[2 * i + which] / base : NAN;
        };
        double worst = 0.0;
        for (std::size_t i = 0; i < grid_.cells.size(); ++i) {
            if (grid_.cells[i].design == DesignKind::Duplexity &&
                std::isfinite(ratio(i, 0)))
                worst = std::max(worst, ratio(i, 0));
        }
        auto iso = [&](std::size_t i) { return ratio(i, 1); };
        const double dup = designAverage(grid_, DesignKind::Duplexity, iso);
        const double smt = designAverage(grid_, DesignKind::Smt, iso);
        return meanAbsErrPct({
            worst / kPaperWorstP99VsBaseline - 1.0,
            dup / kPaperIsoP99VsBaseline - 1.0,
            dup / smt / kPaperIsoP99VsSmt - 1.0,
        });
    }

    GridSpec spec_;
    bool smoke_;
    Grid grid_;
    std::vector<std::size_t> base_;
    std::vector<Call> calls_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"fig5", "smt_scaling",
                                                "tail_mg1"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "fig5")
        return std::make_unique<Fig5>(seed, smoke);
    if (name == "smt_scaling")
        return std::make_unique<SmtScaling>(seed, smoke);
    if (name == "tail_mg1")
        return std::make_unique<Tail>(seed, smoke);
    return nullptr;
}

} // namespace duplexity::e2e
