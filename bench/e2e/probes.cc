/**
 * @file
 * Layer probes: each drives one layer's public function on the
 * workload's own inputs (its calibrated specs and service
 * distributions, seed-derived streams) for at least min_seconds of
 * wall time and reports host ns per unit of work. Inputs are produced
 * untimed in chunks and consumed timed, so a probe prices only its
 * layer.
 *
 * Model-state metrics (simulated IPC, miss and mispredict rates, swap
 * rates) come from a fixed-length prefix of each probe, so they are
 * bit-identical across runs and must stay so under any change that
 * only makes the simulator faster.
 */

#include <cstdio>
#include <limits>

#include "bench.hh"
#include "branch/predictor.hh"
#include "cpu/core_engine.hh"
#include "cpu/hsmt.hh"
#include "mem/memory_system.hh"
#include "queueing/queue_sim.hh"
#include "sim/check.hh"
#include "sim/stats.hh"

namespace duplexity::e2e
{

namespace
{

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
/** Blocks produced per untimed chunk (16 x 256 ops, ~100 KiB). */
constexpr std::size_t kChunkBlocks = 16;
/** Chunks in the fixed prefix the model-state metrics are read at. */
constexpr std::size_t kPrefixChunks = 40;
constexpr std::size_t kWords = 4096;

/** A probe keeps going until its wall-time budget is spent. */
class Deadline
{
  public:
    explicit Deadline(double seconds) : end_(wallNow() + seconds) {}
    bool pending() const { return wallNow() < end_; }

  private:
    double end_;
};

/** Timed seconds and work units accumulated by one probe. */
struct Timed
{
    double seconds = 0.0;
    double units = 0.0;

    double
    nsPer() const
    {
        return units > 0.0 ? 1e9 * seconds / units : 0.0;
    }

    /** Time @p body, which performs @p n units. */
    template <class F>
    void
    time(double n, F &&body)
    {
        const double t0 = wallNow();
        body();
        seconds += wallNow() - t0;
        units += n;
    }
};

/** Keeps results observable so timed loops are not optimized away. */
struct Sink
{
    double value = 0.0;
    ~Sink()
    {
        if (value == -1.0)
            std::fprintf(stderr, "probe checksum %g\n", value);
    }
};

std::unique_ptr<InstrSource>
makeSource(const MicroserviceSpec &spec, Rng rng)
{
    return std::make_unique<MicroserviceSource>(spec, rng);
}

std::unique_ptr<InstrSource>
makeSource(const BatchSpec &spec, Rng rng)
{
    return std::make_unique<BatchSource>(spec, rng);
}

/** One core running one stream, wired as the simulator wires a master
 *  (OoO, tournament, master path) or a lender thread (InO, gshare,
 *  lender path). */
struct LaneRig
{
    DyadMemorySystem mem{MemSystemConfig::makeDefault()};
    CoreEngine engine{CoreEngineConfig{}};
    std::unique_ptr<BranchPredictor> pred;
    Btb btb{2048, 4};
    ReturnAddressStack ras{32};
    std::unique_ptr<InstrSource> source;
    Lane lane;
    Frequency freq{3.4e9};
    std::uint64_t ops = 0;

    LaneRig(IssueMode mode, std::unique_ptr<InstrSource> src)
        : pred(makePredictor(mode == IssueMode::OutOfOrder
                                 ? PredictorConfig::Kind::Tournament
                                 : PredictorConfig::Kind::GshareSmall)),
          source(std::move(src))
    {
        LaneConfig cfg = engine.defaultLaneConfig(mode);
        cfg.path = mode == IssueMode::OutOfOrder ? mem.masterPath()
                                                 : mem.lenderPath();
        cfg.branch = {pred.get(), &btb, &ras};
        lane.configure(cfg);
    }

    void
    fill(std::vector<OpBlock> &blocks)
    {
        for (OpBlock &b : blocks) {
            b.clear();
            source->fillBlock(b, kOpBlockCapacity);
        }
    }

    /** processBlock over @p blocks, applying µs stalls like the
     *  simulator's single-lane loops do. */
    void
    process(const std::vector<OpBlock> &blocks)
    {
        for (const OpBlock &b : blocks) {
            std::uint32_t head = 0;
            while (head < b.size()) {
                BlockOutcome blk = engine.processBlock(lane, b, head,
                                                       kNever, 0, kNever);
                head += blk.processed;
                ops += blk.processed;
                if (blk.stopped_remote) {
                    lane.stallUntil(blk.last.commit_time +
                                    freq.microsToCycles(blk.last.stall_us));
                }
            }
        }
    }
};

template <class Spec>
void
addRigs(std::vector<std::unique_ptr<LaneRig>> &rigs, IssueMode mode,
        const std::vector<Spec> &specs, Rng &rng)
{
    for (const Spec &spec : specs) {
        rigs.push_back(std::make_unique<LaneRig>(
            mode, makeSource(spec, rng.fork(rigs.size() + 1))));
    }
}

double
missRate(const std::vector<const Cache *> &caches)
{
    std::uint64_t hits = 0, misses = 0;
    for (const Cache *c : caches) {
        hits += c->stats().hits;
        misses += c->stats().misses;
    }
    return hits + misses > 0 ? static_cast<double>(misses) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
}

/** cpu.<mode>_ns_per_op and workload.fill_ns_per_op.<stream>, plus
 *  the lane's simulated state at the fixed prefix. */
void
probeLanes(std::vector<std::unique_ptr<LaneRig>> rigs, bool ooo,
           double min_s, ProbeValues &out)
{
    DPX_CHECK(!rigs.empty()) << " — probe needs at least one stream";
    std::vector<OpBlock> blocks(kChunkBlocks);
    Timed fill, step;
    const Deadline budget(min_s);
    const double chunk_ops =
        static_cast<double>(kChunkBlocks * kOpBlockCapacity);
    for (std::size_t c = 0; c < kPrefixChunks || budget.pending(); ++c) {
        LaneRig &rig = *rigs[c % rigs.size()];
        fill.time(chunk_ops, [&] { rig.fill(blocks); });
        step.time(chunk_ops, [&] { rig.process(blocks); });
        if (c + 1 != kPrefixChunks)
            continue;
        double ops = 0.0, cycles = 0.0;
        std::vector<const Cache *> l1d, l1i, llc;
        std::uint64_t lookups = 0, mispredicts = 0;
        for (const auto &r : rigs) {
            ops += static_cast<double>(r->ops);
            cycles += static_cast<double>(r->lane.nextFetch());
            l1d.push_back(ooo ? &r->mem.masterL1d() : &r->mem.lenderL1d());
            l1i.push_back(ooo ? &r->mem.masterL1i() : &r->mem.lenderL1i());
            llc.push_back(&r->mem.llc());
            lookups += r->pred->stats().lookups;
            mispredicts += r->pred->stats().mispredicts;
        }
        if (ooo) {
            out["cpu.ipc.ooo"] = ops / cycles;
            out["mem.l1d_miss_rate"] = missRate(l1d);
            out["mem.l1i_miss_rate"] = missRate(l1i);
            out["mem.llc_miss_rate"] = missRate(llc);
            out["branch.mispredict_rate"] =
                lookups > 0 ? static_cast<double>(mispredicts) /
                                  static_cast<double>(lookups)
                            : 0.0;
        } else {
            out["cpu.ipc.ino"] = ops / cycles;
        }
    }
    out[ooo ? "cpu.ooo_ns_per_op" : "cpu.ino_ns_per_op"] = step.nsPer();
    out[ooo ? "workload.fill_ns_per_op.master"
            : "workload.fill_ns_per_op.batch"] = fill.nsPer();
}

class OpCounter : public CommitSink
{
  public:
    void
    onCommit(const VirtualContext &, const OpOutcome &) override
    {
        ++ops;
    }
    std::uint64_t ops = 0;
};

/** HsmtUnit::runUntil on a lender-style unit with the workload's 32
 *  batch contexts (op draws included: the unit pulls its own ops). */
void
probeHsmt(const std::vector<BatchSpec> &contexts, Rng rng, double min_s,
          ProbeValues &out)
{
    DyadMemorySystem mem(MemSystemConfig::makeDefault());
    CoreEngine engine{CoreEngineConfig{}};
    auto pred = makePredictor(PredictorConfig::Kind::GshareSmall);
    Btb btb(2048, 4);
    ReturnAddressStack ras(16);
    VirtualContextPool pool;
    std::vector<std::unique_ptr<BatchSource>> sources;
    std::vector<std::unique_ptr<VirtualContext>> ctxs;
    for (const BatchSpec &spec : contexts) {
        sources.push_back(
            std::make_unique<BatchSource>(spec, rng.fork(sources.size())));
        ctxs.push_back(std::make_unique<VirtualContext>(
            static_cast<ThreadId>(ctxs.size() + 1), sources.back().get()));
        pool.add(ctxs.back().get());
    }
    HsmtUnit unit(engine, pool, HsmtConfig{}, Frequency(3.4e9));
    LaneConfig proto = engine.defaultLaneConfig(IssueMode::InOrder);
    proto.path = mem.lenderPath();
    proto.branch = {pred.get(), &btb, &ras};
    unit.configureLanes(proto);
    unit.openWindow(0, HsmtUnit::never);

    OpCounter sink;
    Timed run;
    const Deadline budget(min_s);
    const Cycle step = 250'000;
    const Cycle prefix = 4 * step;
    Cycle until = 0;
    while (until < prefix || budget.pending()) {
        const std::uint64_t before = sink.ops;
        until += step;
        run.time(0.0, [&] { unit.runUntil(until, &sink); });
        run.units += static_cast<double>(sink.ops - before);
        if (until == prefix) {
            out["cpu.ipc.hsmt"] = static_cast<double>(sink.ops) /
                                  static_cast<double>(prefix);
            out["cpu.hsmt_swaps_per_kop"] =
                1e3 * static_cast<double>(unit.contextSwaps()) /
                static_cast<double>(sink.ops);
        }
    }
    out["cpu.hsmt_ns_per_op"] = run.nsPer();
}

/** Addresses one chunk of a stream touches. */
struct AddrChunk
{
    std::vector<Addr> loads;
    std::vector<Addr> fetch_lines;
    std::vector<std::pair<Addr, bool>> branches;
};

void
collect(InstrSource &source, std::vector<OpBlock> &blocks, AddrChunk &out)
{
    out.loads.clear();
    out.fetch_lines.clear();
    out.branches.clear();
    Addr last_line = ~Addr(0);
    for (OpBlock &b : blocks) {
        b.clear();
        source.fillBlock(b, kOpBlockCapacity);
        for (std::size_t i = 0; i < b.size(); ++i) {
            const Addr line = b.pc()[i] >> 6;
            // The engine fetches once per new line, not once per op.
            if (line != last_line)
                out.fetch_lines.push_back(b.pc()[i]);
            last_line = line;
            if (b.cls()[i] == OpClass::Load)
                out.loads.push_back(b.memAddr()[i]);
            else if (b.cls()[i] == OpClass::Branch)
                out.branches.emplace_back(b.pc()[i], b.taken()[i]);
        }
    }
}

/** MemPath::load / fetch and BranchPredictor::predictAndUpdate over
 *  the address and branch streams of the workload's threads. */
void
probeMemAndBranch(std::vector<std::unique_ptr<InstrSource>> master,
                  std::vector<std::unique_ptr<InstrSource>> batch,
                  double min_s, ProbeValues &out)
{
    std::vector<OpBlock> blocks(kChunkBlocks);
    AddrChunk chunk;
    Sink sink;

    auto over = [&](std::vector<std::unique_ptr<InstrSource>> &sources,
                    auto &&consume) {
        Timed t;
        const Deadline budget(min_s);
        for (std::size_t c = 0; budget.pending(); ++c) {
            collect(*sources[c % sources.size()], blocks, chunk);
            consume(t);
        }
        return t.nsPer();
    };

    {
        DyadMemorySystem mem(MemSystemConfig::makeDefault());
        const MemPath path = mem.masterPath();
        Cycle now = 0;
        out["mem.load_ns"] = over(master, [&](Timed &t) {
            t.time(static_cast<double>(chunk.loads.size()), [&] {
                for (Addr a : chunk.loads)
                    sink.value += static_cast<double>(path.load(a, now++));
            });
        });
        out["mem.fetch_ns"] = over(master, [&](Timed &t) {
            t.time(static_cast<double>(chunk.fetch_lines.size()), [&] {
                for (Addr a : chunk.fetch_lines)
                    sink.value += static_cast<double>(path.fetch(a, now++));
            });
        });
    }
    {
        DyadMemorySystem mem(MemSystemConfig::makeDefault());
        const MemPath path = mem.fillerRemotePath();
        Cycle now = 0;
        out["mem.filler_load_ns"] = over(batch, [&](Timed &t) {
            t.time(static_cast<double>(chunk.loads.size()), [&] {
                for (Addr a : chunk.loads)
                    sink.value += static_cast<double>(path.load(a, now++));
            });
        });
    }
    auto branches = [&](PredictorConfig::Kind kind,
                        std::vector<std::unique_ptr<InstrSource>> &src) {
        auto pred = makePredictor(kind);
        return over(src, [&](Timed &t) {
            t.time(static_cast<double>(chunk.branches.size()), [&] {
                for (const auto &[pc, taken] : chunk.branches)
                    sink.value += pred->predictAndUpdate(pc, taken);
            });
        });
    };
    out["branch.ns_per_branch.tournament"] =
        branches(PredictorConfig::Kind::Tournament, master);
    out["branch.ns_per_branch.gshare"] =
        branches(PredictorConfig::Kind::GshareSmall, batch);
}

/** Rng::fillBlock, FastSampler::sampleN (arrivals and services) and
 *  the stopping rule's per-batch SampleStats work. */
void
probeSampling(const std::vector<QueueInput> &queues, Rng rng, double min_s,
              ProbeValues &out)
{
    DPX_CHECK(!queues.empty()) << " — probe needs at least one queue";
    Sink sink;
    {
        std::vector<std::uint64_t> words(kWords);
        Timed t;
        for (const Deadline budget(min_s); budget.pending();) {
            t.time(static_cast<double>(kWords), [&] {
                rng.fillBlock(words.data(), kWords);
            });
            sink.value += static_cast<double>(words[0] & 1);
        }
        out["sim.rng_fill_ns_per_word"] = t.nsPer();
    }
    std::vector<double> buf(kWords);
    auto sampleNs = [&](const char *family, auto &&dist) {
        std::vector<FastSampler> samplers;
        for (const QueueInput &q : queues)
            samplers.emplace_back(dist(q));
        Timed t;
        const Deadline budget(min_s);
        for (std::size_t c = 0; budget.pending(); ++c) {
            const FastSampler &s = samplers[c % samplers.size()];
            t.time(static_cast<double>(kWords),
                   [&] { s.sampleN(rng, buf.data(), kWords); });
            sink.value += buf[0];
        }
        out[std::string("sim.sample_ns.") + family] = t.nsPer();
    };
    sampleNs("exponential",
             [](const QueueInput &q) { return q.interarrival; });
    sampleNs("empirical", [](const QueueInput &q) { return q.service; });

    // A batch of the stopping rule's size: 20k sojourn-like values.
    const std::size_t batch_size = QueueSimConfig{}.batch_size;
    std::vector<double> values(batch_size);
    FastSampler(queues.front().service)
        .sampleN(rng, values.data(), values.size());
    SampleStats batch(batch_size);
    Timed add, select;
    for (const Deadline budget(2.0 * min_s); budget.pending();) {
        batch.reset();
        add.time(static_cast<double>(batch_size), [&] {
            for (double v : values)
                batch.add(v);
        });
        select.time(static_cast<double>(batch_size), [&] {
            sink.value += batch.percentileSelect(0.99);
        });
    }
    out["sim.stats_add_ns"] = add.nsPer();
    out["sim.p99_select_ns_per_sample"] = select.nsPer();
}

/** Whole runQueueSim runs (k = 1) over the workload's queues, each a
 *  fixed ten batches so every run does the same work. */
void
probeQueueing(const std::vector<QueueInput> &queues, Rng rng, double min_s,
              ProbeValues &out)
{
    Sink sink;
    QueueSimConfig cfg;
    // Fixed work: ten batches, a target no run can meet.
    cfg.min_batches = cfg.max_batches = 10;
    cfg.relative_error = 1e-12;
    Timed t;
    const Deadline budget(min_s);
    for (std::size_t c = 0; budget.pending(); ++c) {
        const QueueInput &q = queues[c % queues.size()];
        cfg.interarrival = q.interarrival;
        cfg.service = q.service;
        cfg.seed = rng.next();
        QueueSimResult r;
        t.time(0.0, [&] { r = runQueueSim(cfg); });
        t.units += static_cast<double>(r.completed + cfg.warmup_requests);
        sink.value += r.p99Sojourn();
    }
    out["queueing.ns_per_req.k1"] = t.nsPer();
}

} // namespace

ProbeValues
runProbes(const ProbeInputs &in, std::uint64_t seed, double min_s,
          Tracer &trace, int parent)
{
    ProbeValues out;
    Rng rng(Rng::deriveStreamSeed(seed, {0x9e0be}));
    {
        ScopedSpan span(trace, "probe", parent, "CoreEngine::processBlock OoO");
        std::vector<std::unique_ptr<LaneRig>> rigs;
        addRigs(rigs, IssueMode::OutOfOrder, in.ooo_services, rng);
        addRigs(rigs, IssueMode::OutOfOrder, in.ooo_batches, rng);
        probeLanes(std::move(rigs), true, min_s, out);
    }
    {
        ScopedSpan span(trace, "probe", parent, "CoreEngine::processBlock InO");
        std::vector<std::unique_ptr<LaneRig>> rigs;
        addRigs(rigs, IssueMode::InOrder, in.ino_batches, rng);
        probeLanes(std::move(rigs), false, min_s, out);
    }
    {
        ScopedSpan span(trace, "probe", parent, "HsmtUnit::runUntil");
        probeHsmt(in.hsmt_contexts, rng.fork(1), min_s, out);
    }
    {
        ScopedSpan span(trace, "probe", parent,
                        "MemPath, BranchPredictor");
        std::vector<std::unique_ptr<InstrSource>> master, batch;
        for (const MicroserviceSpec &s : in.ooo_services)
            master.push_back(makeSource(s, rng.fork(master.size() + 10)));
        for (const BatchSpec &s : in.ooo_batches)
            master.push_back(makeSource(s, rng.fork(master.size() + 10)));
        for (const BatchSpec &s : in.ino_batches)
            batch.push_back(makeSource(s, rng.fork(batch.size() + 50)));
        probeMemAndBranch(std::move(master), std::move(batch), min_s, out);
    }
    {
        ScopedSpan span(trace, "probe", parent, "FastSampler, SampleStats");
        probeSampling(in.queues, rng.fork(2), min_s, out);
    }
    {
        ScopedSpan span(trace, "probe", parent, "runQueueSim");
        probeQueueing(in.queues, rng.fork(3), min_s, out);
    }
    return out;
}

} // namespace duplexity::e2e
