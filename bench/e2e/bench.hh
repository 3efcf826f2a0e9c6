/**
 * @file
 * Shared types of the end-to-end benchmark (bench/e2e): clocks, the
 * output fingerprint, the per-rep record every workload returns, and
 * the workload interface main.cc runs.
 *
 * The benchmark measures from outside: it calls only the simulator's
 * public entry points (runGrid, runSmtSweepMany, runQueueSim, the
 * calibration functions, the Figure 5 harness's performanceDensity
 * and queuedP99Us, CoreEngine::processBlock, HsmtUnit::runUntil,
 * MemPath, BranchPredictor, FastSampler, SampleStats) and never flips
 * a forced-legacy switch, so the simulator can change underneath it
 * without the benchmark changing.
 */

#ifndef DPX_BENCH_E2E_BENCH_HH
#define DPX_BENCH_E2E_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"
#include "workload/microservice.hh"

namespace duplexity::e2e
{

/** Monotonic wall clock, seconds. */
double wallNow();

/** CPU time of the whole process (all threads), seconds. */
double cpuNow();

/** CPU time of the calling thread, seconds. */
double threadCpuNow();

/** FNV-1a over 64-bit words: the bit-exact output fingerprint. */
class Fingerprint
{
  public:
    void
    mix(std::uint64_t word)
    {
        hash_ = (hash_ ^ word) * 1099511628211ull;
    }

    /** Raw-bit encoding: any change in any bit changes the hash. */
    void mixDouble(double value);

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

/** What one timed rep produced besides its timing. */
struct RepResult
{
    /** Fingerprint over every simulated result field of the rep. */
    std::uint64_t fnv = 0;
    /** Operations attempted: grid cells, sweep points or queue runs. */
    std::uint64_t attempted = 0;
    /** Operations whose outputs failed a check. */
    std::uint64_t failed = 0;
    /** First few failed checks, for the report. */
    std::vector<std::string> failures;
    /** Mean |relative error| against the workload's reference, %. */
    double ref_err_pct = 0.0;
    /** Simulated events: micro-ops retired in the measured windows
     *  (fig5, smt_scaling) or requests completed (tail_mg1). */
    double events = 0.0;
};

/** One M/G/1 queue the queueing probes drive (seconds). */
struct QueueInput
{
    DistributionPtr interarrival;
    DistributionPtr service;
};

/** Inputs the layer probes drive, taken from the workload itself. */
struct ProbeInputs
{
    /** Streams an OoO lane runs (master threads, OoO SMT threads). */
    std::vector<MicroserviceSpec> ooo_services;
    std::vector<BatchSpec> ooo_batches;
    /** Streams an InO lane runs (lender-style single threads). */
    std::vector<BatchSpec> ino_batches;
    /** The 32 contexts an HSMT unit time-multiplexes. */
    std::vector<BatchSpec> hsmt_contexts;
    /** Exponential arrivals and empirical service populations. */
    std::vector<QueueInput> queues;
};

/** One benchmark workload: a set of inputs made from a seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Calibration the reps depend on, on @p threads pool workers;
     *  timed as setup_s. */
    virtual void setup(unsigned threads, Tracer &trace, int parent) = 0;

    /** Build the reps' inputs from the seed; runs once after setup()
     *  and is timed apart from it (input_s). */
    virtual void makeInputs(unsigned threads, Tracer &trace,
                            int parent) = 0;

    /** One timed unit of fixed work on @p threads pool workers. */
    virtual RepResult rep(unsigned threads, Tracer &trace,
                          int parent) = 0;

    /** Inputs for the layer probes (valid after a rep). */
    virtual ProbeInputs probeInputs() const = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** @p smoke shrinks every workload to a seconds-long self-test. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool smoke);

/** Per-layer probe results keyed by metric name. */
using ProbeValues = std::map<std::string, double>;

/** Run every layer probe for at least @p min_seconds each. */
ProbeValues runProbes(const ProbeInputs &inputs, std::uint64_t seed,
                      double min_seconds, Tracer &trace, int parent);

} // namespace duplexity::e2e

#endif // DPX_BENCH_E2E_BENCH_HH
