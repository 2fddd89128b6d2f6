/**
 * @file
 * The two sweep workloads.
 *
 *  - fig9_timing: Figure 9's grid, 18 programs at full length x the
 *    five CellConfigMsg machines of bench_fig9_speedup (90 OooCpu
 *    cells).
 *  - accuracy_grid: the functional experiments, no timing model: per
 *    program Figure 5's seven DDT sizes (bench_fig5_ddt_sweep's sink)
 *    and Figure 6's two confidence configs (CloakingEngine), 162
 *    cells.
 *
 * A round is one grid on a fresh SimJobRunner, so every trace is
 * recorded lazily inside the grid, as the bench binaries do. An
 * untraced round makes the bench binaries' own call:
 * driver::runCellSweep for fig9_timing (as bench_fig9_speedup) and
 * driver::runSweep with the benchmark's cell closures for
 * accuracy_grid (as bench_fig5_ddt_sweep). A traced round runs the grid
 * through runSweep with a timed cell body; fig9's traced body mirrors
 * runCellSweep's, so a change to runCellSweep's cell must be mirrored
 * in fig9Cell (trace.overhead_frac jumps when the two drift apart).
 */

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include "core/cloaking.hh"
#include "core/ddt.hh"
#include "cpu/ooo_cpu.hh"
#include "driver/sim_snapshot.hh"
#include "driver/stats_merger.hh"
#include "driver/sweep.hh"
#include "perfbench.hh"
#include "service/proto.hh"
#include "vm/recorded_trace.hh"

namespace perfbench {

namespace {

using rarpred::CpuStats;
using rarpred::TraceSource;
using rarpred::Workload;
using rarpred::service::CellConfigMsg;

// ------------------------------------------------------------ cells

std::vector<CellConfigMsg>
fig9Configs()
{
    using rarpred::CloakingMode;
    using rarpred::RecoveryModel;
    const auto mechanism = [](CloakingMode mode, RecoveryModel recovery) {
        CellConfigMsg cfg;
        cfg.cloakEnabled = 1;
        cfg.mode = (uint8_t)mode;
        cfg.recovery = (uint8_t)recovery;
        return cfg;
    };
    CellConfigMsg base;
    base.cloakEnabled = 0;
    return {base,
            mechanism(CloakingMode::RawOnly, RecoveryModel::Selective),
            mechanism(CloakingMode::RawPlusRar, RecoveryModel::Selective),
            mechanism(CloakingMode::RawOnly, RecoveryModel::Squash),
            mechanism(CloakingMode::RawPlusRar, RecoveryModel::Squash)};
}

constexpr size_t kDdtSizes[] = {32, 64, 128, 256, 512, 1024, 2048};
constexpr size_t kNumDdtSizes = std::size(kDdtSizes);

/** bench_fig5_ddt_sweep's sink: loads by detected dependence type. */
class DdtSweepSink : public rarpred::TraceSink
{
  public:
    explicit DdtSweepSink(size_t entries)
        : detector_({entries, true, true, false, 3})
    {}

    void
    onInst(const rarpred::DynInst &di) override
    {
        if (di.isStore()) {
            detector_.onStore(di.pc, di.eaddr);
            return;
        }
        if (!di.isLoad())
            return;
        ++loads;
        if (auto dep = detector_.onLoad(di.pc, di.eaddr)) {
            if (dep->type == rarpred::DepType::Raw)
                ++raw;
            else
                ++rar;
        }
    }

    const rarpred::DependenceDetector &detector() const
    {
        return detector_;
    }

    uint64_t loads = 0;
    uint64_t raw = 0;
    uint64_t rar = 0;

  private:
    rarpred::DependenceDetector detector_;
};

/** bench_fig6_cloaking_accuracy's mechanism for one confidence kind. */
rarpred::CloakingConfig
fig6Config(rarpred::ConfidenceKind conf)
{
    rarpred::CloakingConfig config;
    config.mode = rarpred::CloakingMode::RawPlusRar;
    config.ddt.entries = 128;
    config.dpnt.geometry = {0, 0}; // infinite
    config.dpnt.confidence = conf;
    config.sf = {0, 0}; // infinite
    return config;
}

/**
 * One accuracy cell's counts, laid out as CloakingStats' nine fields.
 * A DDT cell fills loads, detectedRaw and detectedRar.
 */
struct AccuracyStats
{
    uint64_t v[9] = {};
};

/** Host-time measurements of one cell; one worker writes each slot. */
struct CellMeasure
{
    int64_t startNs = 0;
    int64_t endNs = 0;
    int worker = -1;
    int64_t gapNs = 0;    ///< since the worker's previous cell ended
    int64_t gapCpuNs = 0; ///< thread CPU inside that gap
    int64_t decodeNs = 0;
    int64_t sinkNs = 0;
    uint64_t records = 0;
    rarpred::ProbeStats probeA; ///< SRT (fig9) or DDT table (accuracy)
    rarpred::ProbeStats probeB; ///< issue bandwidth limiter (fig9)
    uint64_t arenaBytes = 0;
};

/**
 * Pump @p trace into @p sink the way the sweeps do; with @p m, time
 * the decode and the sink per block.
 */
void
pumpCell(TraceSource &trace, rarpred::TraceSink &sink, CellMeasure *m)
{
    if (m == nullptr) {
        rarpred::driver::pumpSimulation(trace, sink);
        return;
    }
    TimedSource source(trace);
    TimedSink timed(sink);
    rarpred::driver::pumpSimulation(source, timed);
    m->decodeNs = source.ns;
    m->sinkNs = timed.ns;
    m->records = source.records;
}

/** runCellSweep's cell body, timed: traced fig9 rounds only. */
CpuStats
fig9Cell(const CellConfigMsg &cfg, TraceSource &trace, CellMeasure *m)
{
    rarpred::CpuConfig core;
    core.memDep = cfg.memDepPolicy();
    rarpred::OooCpu cpu(core, cfg.toTimingConfig());
    pumpCell(trace, cpu, m);
    const auto loads = cpu.hotPathLoads();
    m->probeA = loads.srt;
    m->probeB = loads.issueBw;
    m->arenaBytes = loads.arenaReservedBytes;
    return cpu.stats();
}

AccuracyStats
accuracyCell(size_t ci, TraceSource &trace, CellMeasure *m)
{
    AccuracyStats out;
    if (ci < kNumDdtSizes) {
        DdtSweepSink sink(kDdtSizes[ci]);
        pumpCell(trace, sink, m);
        out.v[0] = sink.loads;
        out.v[7] = sink.raw;
        out.v[8] = sink.rar;
        if (m != nullptr)
            m->probeA = sink.detector().probeStats();
        return out;
    }
    rarpred::CloakingEngine engine(
        fig6Config(ci == kNumDdtSizes
                       ? rarpred::ConfidenceKind::OneBitNonAdaptive
                       : rarpred::ConfidenceKind::TwoBitAdaptive));
    pumpCell(trace, engine, m);
    const rarpred::CloakingStats &s = engine.stats();
    const uint64_t fields[9] = {s.loads,       s.stores,
                                s.coveredRaw,  s.coveredRar,
                                s.mispredRaw,  s.mispredRar,
                                s.predictedEmpty, s.detectedRaw,
                                s.detectedRar};
    std::memcpy(out.v, fields, sizeof(fields));
    return out;
}

// ------------------------------------------------- stats as words

template <typename Stats>
struct StatsWords;

template <>
struct StatsWords<CpuStats>
{
    static constexpr size_t kCount = 11;
    static_assert(sizeof(CpuStats) == kCount * sizeof(uint64_t));
    static constexpr const char *kNames[kCount] = {
        "instructions",     "cycles",        "loads",
        "stores",           "branchMispredicts",
        "memOrderViolations", "valueSpecUsed", "valueSpecCorrect",
        "valueSpecWrong",   "squashes",      "specCyclesSaved"};

    static std::array<uint64_t, kCount>
    words(const CpuStats &s)
    {
        std::array<uint64_t, kCount> w{};
        std::memcpy(w.data(), &s, sizeof(s));
        return w;
    }
};

template <>
struct StatsWords<AccuracyStats>
{
    static constexpr size_t kCount = 9;
    static constexpr const char *kNames[kCount] = {
        "loads",      "stores",     "coveredRaw",
        "coveredRar", "mispredRaw", "mispredRar",
        "predictedEmpty", "detectedRaw", "detectedRar"};

    static std::array<uint64_t, kCount>
    words(const AccuracyStats &s)
    {
        std::array<uint64_t, kCount> w{};
        std::memcpy(w.data(), s.v, sizeof(s.v));
        return w;
    }
};

// ------------------------------------------------------- the grid

/** Worker identity per grid: worker threads are fresh per run(). */
std::atomic<uint64_t> gGridGeneration{0};
thread_local uint64_t tlGridGeneration = 0;
thread_local int tlWorker = -1;

/** Everything one grid round measured. */
template <typename Stats>
struct Grid
{
    std::vector<const Workload *> order;
    size_t numConfigs = 0;
    rarpred::driver::SweepResult<Stats> result;
    std::vector<CellMeasure> measures;
    RoundResult round;
    int64_t gridStartNs = 0;
    int64_t gridEndNs = 0;
    int64_t mergeNs = 0;

    // Filled by traced rounds only.
    unsigned workers = 0;
    int64_t jobNs = 0; ///< SimJobRunner's own per-job wall, summed
    uint64_t traceBytes = 0;
    uint64_t retries = 0;
    uint64_t quarantined = 0;
    int64_t aloneGridSinkNs = 0; ///< the alone cells' sink time in-grid
    int64_t aloneSinkNs = 0;     ///< ... and run alone after the grid
};

/** Read "driver.<name> N" out of SimJobRunner::dumpStats(). */
uint64_t
runnerStat(const std::string &dump, const std::string &name)
{
    std::istringstream in(dump);
    std::string key;
    while (in >> key) {
        std::string rest;
        std::getline(in, rest);
        if (key == "driver." + name)
            return std::strtoull(rest.c_str(), nullptr, 10);
    }
    return 0;
}

/**
 * Notes when a TraceCache finishes its first recording: the moment the
 * first cell can replay its first record. It polls from its own thread,
 * so the grid runs unmodified.
 */
class FirstTraceWatch
{
  public:
    explicit FirstTraceWatch(const rarpred::driver::TraceCache &cache)
        : thread_([this, &cache] {
              while (!stop_ && cache.stats().generations == 0)
                  std::this_thread::sleep_for(std::chrono::microseconds(50));
              atNs_ = nowNs();
          })
    {}

    /** Stop watching; @return when the first recording ended. */
    int64_t
    finish()
    {
        stop_ = true;
        thread_.join();
        return atNs_;
    }

  private:
    std::atomic<bool> stop_{false};
    int64_t atNs_ = 0;
    std::thread thread_;
};

/**
 * Run one grid round on a fresh SimJobRunner; @p config_names name the
 * config axis in cell keys. Untraced, @p plain(runner, order) runs the
 * grid as a bench binary does. Traced (@p spans non-null), the grid
 * goes through runSweep with @p cell(ci, trace, measure) as its body,
 * which times every cell's decode and sink; every program's
 * @p alone_config cell then runs again alone, and spans are recorded.
 */
template <typename Stats, typename PlainFn, typename CellFn>
Grid<Stats>
runGrid(const Options &opt, const std::vector<std::string> &config_names,
        const PlainFn &plain, const CellFn &cell, size_t alone_config,
        SpanLog *spans)
{
    using Words = StatsWords<Stats>;
    const bool traced = spans != nullptr;
    Grid<Stats> g;
    g.order = seededOrder(opt.seed);
    g.numConfigs = config_names.size();
    const size_t n = g.order.size() * g.numConfigs;

    const int64_t t0 = nowNs();
    const double cpu0 = processCpuSeconds();
    rarpred::driver::RunnerConfig rc;
    rc.workers = opt.workers;
    if (opt.mini)
        rc.maxInsts = kMiniInsts;
    rarpred::driver::SimJobRunner runner(rc);
    FirstTraceWatch first_trace(runner.traceCache());
    g.gridStartNs = nowNs();
    if (!traced) {
        g.result = plain(runner, g.order);
    } else {
        std::map<const Workload *, size_t> position;
        for (size_t wi = 0; wi < g.order.size(); ++wi)
            position[g.order[wi]] = wi;
        g.measures.resize(n);
        struct WorkerClock
        {
            int64_t lastEndNs = 0;
            int64_t lastEndCpuNs = 0;
        };
        std::vector<WorkerClock> clocks(runner.workers());
        std::atomic<int> next_worker{0};
        const uint64_t generation = ++gGridGeneration;
        const std::thread::id main_thread = std::this_thread::get_id();
        const int64_t main_cpu0 = threadCpuNs();
        g.result = rarpred::driver::runSweep(
            runner, g.order, g.numConfigs,
            [&](const Workload &w, size_t ci, TraceSource &trace,
                rarpred::Rng &) -> Stats {
                const size_t id = position.at(&w) * g.numConfigs + ci;
                CellMeasure &m = g.measures[id];
                m.startNs = nowNs();
                if (tlGridGeneration != generation) {
                    // Worker threads start with the grid; the CPU
                    // clock of the calling thread (serial mode) does
                    // not, so it is rebased on the grid start.
                    tlGridGeneration = generation;
                    tlWorker = next_worker++;
                    clocks[tlWorker] = {
                        g.gridStartNs,
                        std::this_thread::get_id() == main_thread
                            ? main_cpu0
                            : 0};
                }
                m.worker = tlWorker;
                m.gapNs = m.startNs - clocks[tlWorker].lastEndNs;
                m.gapCpuNs = threadCpuNs() - clocks[tlWorker].lastEndCpuNs;
                Stats s = cell(ci, trace, &m);
                m.endNs = nowNs();
                clocks[tlWorker] = {m.endNs, threadCpuNs()};
                return s;
            });
    }
    g.gridEndNs = nowNs();
    const int64_t first_trace_ns = first_trace.finish();

    // The merged, verified result: the StatsMerger table plus one
    // digest per cell (run.py compares them with digests.json).
    const int64_t merge0 = nowNs();
    rarpred::driver::StatsMerger merger(n);
    for (size_t id = 0; id < n; ++id) {
        const std::string key = g.order[id / g.numConfigs]->abbrev + "/" +
                                config_names[id % g.numConfigs];
        merger.setRowKey(id, key);
        const auto &r = g.result.cells[id];
        if (!r.ok()) {
            merger.setError(id, r.status());
            continue;
        }
        const auto words = Words::words(*r);
        for (size_t f = 0; f < Words::kCount; ++f)
            merger.recordCount(id, Words::kNames[f], words[f]);
        g.round.cells[key] = digestWords(words.data(), words.size());
    }
    const std::string merged = merger.serialize();
    const int64_t end = nowNs();
    g.mergeNs = end - merge0;

    // Wall and set-up count from process launch when run.py passed it.
    // A sweep is one request: the grid a bench binary is asked for.
    const int64_t launch = opt.launchNs != 0 ? opt.launchNs : t0;
    g.round.wallS = (double)(end - launch) / 1e9;
    g.round.cpuS = processCpuSeconds() - cpu0;
    g.round.setupS = (double)(first_trace_ns - launch) / 1e9;
    g.round.latenciesMs = {g.round.wallS * 1e3};
    g.round.extra["merged_bytes"] = (double)merged.size();
    if (!traced)
        return g;

    g.workers = runner.workers();
    std::ostringstream dump;
    runner.dumpStats(dump);
    g.retries = runnerStat(dump.str(), "retries");
    g.quarantined = runnerStat(dump.str(), "quarantined");
    g.jobNs = (int64_t)runnerStat(dump.str(), "jobMicrosTotal") * 1000;
    g.traceBytes = runner.traceCache().stats().residentBytes;

    const int round_span = spans->add({"round", t0, end, -1, -1, -1});
    const int grid_span = spans->add(
        {"driver.grid", g.gridStartNs, g.gridEndNs, round_span, -1, -1});
    for (size_t id = 0; id < n; ++id) {
        const CellMeasure &m = g.measures[id];
        spans->add({"driver.cell", m.startNs, m.endNs, grid_span, (int)id,
                    m.worker});
    }
    spans->add({"driver.merge", merge0, end, round_span, -1, -1});

    // Contention: one config's cells again, one at a time, on the
    // grid's (warm) traces.
    for (size_t wi = 0; wi < g.order.size(); ++wi) {
        const size_t id = wi * g.numConfigs + alone_config;
        if (!g.result.cells[id].ok())
            continue;
        const auto trace =
            runner.traceCache().get(*g.order[wi], 1, rc.maxInsts);
        rarpred::RecordedTraceSource source(*trace);
        CellMeasure alone;
        const int64_t a0 = nowNs();
        (void)cell(alone_config, source, &alone);
        spans->add({"alone.cell", a0, nowNs(), -1, (int)id, -1});
        g.aloneSinkNs += alone.sinkNs;
        g.aloneGridSinkNs += g.measures[id].sinkNs;
    }
    return g;
}

/** Per-layer metrics and ledger rows every sweep shares. */
template <typename Stats>
void
gridMetrics(const Grid<Stats> &g, TraceResult *t)
{
    Numbers &m = t->metrics;
    const double grid_ns = (double)(g.gridEndNs - g.gridStartNs);
    const double capacity_ns = grid_ns * g.workers;
    double cell_ns = 0, gap_ns = 0, gap_cpu_ns = 0, decode_ns = 0;
    double sink_ns = 0, records = 0;
    std::vector<double> cell_ms;
    std::vector<int64_t> last_end(g.workers, 0);
    for (const CellMeasure &c : g.measures) {
        if (c.worker < 0)
            continue; // failed before its body ran
        const double d = (double)(c.endNs - c.startNs);
        cell_ns += d;
        cell_ms.push_back(d / 1e6);
        gap_ns += (double)c.gapNs;
        gap_cpu_ns += (double)std::min(c.gapCpuNs, c.gapNs);
        decode_ns += (double)c.decodeNs;
        sink_ns += (double)c.sinkNs;
        records += (double)c.records;
        last_end[c.worker] = std::max(last_end[c.worker], c.endNs);
    }
    double idle_ns = 0;
    int64_t first_idle = g.gridEndNs;
    for (const int64_t e : last_end) {
        const int64_t end = e == 0 ? g.gridStartNs : e;
        idle_ns += (double)(g.gridEndNs - end);
        first_idle = std::min(first_idle, end);
    }

    m["vm.decode_ns_per_rec"] = records > 0 ? decode_ns / records : 0;
    m["vm.records_replayed"] = records;
    m["vm.trace_mb"] = (double)g.traceBytes / (1024.0 * 1024.0);
    m["driver.cell_ms_p50"] = median(cell_ms);
    m["driver.cell_ms_max"] =
        cell_ms.empty() ? 0 : *std::max_element(cell_ms.begin(),
                                                cell_ms.end());
    m["driver.busy_frac"] = cell_ns / capacity_ns;
    m["driver.tail_s"] = (double)(g.gridEndNs - first_idle) / 1e9;
    m["driver.gap_ms"] = gap_ns / g.workers / 1e6;
    m["driver.merge_ms"] = (double)g.mergeNs / 1e6;
    m["driver.retries"] = (double)g.retries;
    m["driver.quarantined"] = (double)g.quarantined;
    // Covered: SimJobRunner's own per-job wall (TraceCache::get plus the
    // cell: the cell spans plus the gaps the runner timed) and the idle
    // tail. Claiming a job and the runner's bookkeeping between jobs are
    // timed by nobody, so they show as uncovered.
    const double job_gap_ns = (double)g.jobNs - cell_ns;
    m["driver.span_coverage"] = ((double)g.jobNs + idle_ns) / capacity_ns;

    Numbers &l = t->ledgerMs;
    l["grid.wall"] = grid_ns / 1e6;
    l["grid.capacity"] = capacity_ns / 1e6;
    l["vm.decode"] = decode_ns / 1e6;
    l["driver.cell_other"] = (cell_ns - decode_ns - sink_ns) / 1e6;
    l["driver.get_cpu"] = gap_cpu_ns / 1e6;
    l["driver.get_wait"] = (job_gap_ns - gap_cpu_ns) / 1e6;
    l["driver.idle"] = idle_ns / 1e6;
    l["driver.uncovered"] = (capacity_ns - (double)g.jobNs - idle_ns) / 1e6;
    l["driver.merge"] = (double)g.mergeNs / 1e6;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::vector<std::string>
fig9ConfigNames()
{
    return {"cfg0", "cfg1", "cfg2", "cfg3", "cfg4"};
}

RoundResult
fig9Round(const Options &opt, SpanLog *spans, TraceResult *t)
{
    const std::vector<CellConfigMsg> configs = fig9Configs();
    // Alone cells use cfg2, the paper's RAW+RAR selective mechanism.
    auto g = runGrid<CpuStats>(
        opt, fig9ConfigNames(),
        [&configs](rarpred::driver::SimJobRunner &runner,
                   const std::vector<const Workload *> &order) {
            return rarpred::driver::runCellSweep(runner, order, configs);
        },
        [&configs](size_t ci, TraceSource &trace, CellMeasure *m) {
            return fig9Cell(configs[ci], trace, m);
        },
        2, spans);
    if (t == nullptr)
        return g.round;

    gridMetrics(g, t);
    double base_ns = 0, base_rec = 0, cloak_ns = 0, cloak_rec = 0;
    double passes = 0, correct = 0, wrong = 0, arena = 0, cells = 0;
    uint64_t srt_probes = 0, srt_lookups = 0, bw_probes = 0,
             bw_lookups = 0;
    for (size_t id = 0; id < g.measures.size(); ++id) {
        if (!g.result.cells[id].ok())
            continue;
        const CellMeasure &c = g.measures[id];
        const CpuStats &s = *g.result.cells[id];
        if (configs[id % g.numConfigs].cloakEnabled) {
            cloak_ns += (double)c.sinkNs;
            cloak_rec += (double)c.records;
            passes += 1;
            correct += (double)s.valueSpecCorrect;
            wrong += (double)s.valueSpecWrong;
        } else {
            base_ns += (double)c.sinkNs;
            base_rec += (double)c.records;
        }
        srt_probes += c.probeA.probes;
        srt_lookups += c.probeA.lookups;
        bw_probes += c.probeB.probes;
        bw_lookups += c.probeB.lookups;
        arena += (double)c.arenaBytes;
        cells += 1;
    }
    Numbers &m = t->metrics;
    m["cpu.base_ns_per_rec"] = ratio(base_ns, base_rec);
    m["cpu.cloak_ns_per_rec"] = ratio(cloak_ns, cloak_rec);
    m["cpu.parallel_slowdown"] =
        ratio((double)g.aloneGridSinkNs, (double)g.aloneSinkNs);
    m["cpu.srt_avg_probe"] = ratio((double)srt_probes, (double)srt_lookups);
    m["cpu.issue_bw_avg_probe"] =
        ratio((double)bw_probes, (double)bw_lookups);
    m["cpu.arena_kb"] = ratio(arena, cells) / 1024.0;
    m["core.engine_passes"] = passes;
    m["core.useful_frac"] = ratio(correct, correct + wrong);
    t->ledgerMs["cpu.onBatch"] = (base_ns + cloak_ns) / 1e6;
    return g.round;
}

std::vector<std::string>
accuracyConfigNames()
{
    std::vector<std::string> names;
    for (size_t entries : kDdtSizes)
        names.push_back("ddt" + std::to_string(entries));
    names.push_back("conf1bit");
    names.push_back("conf2bit");
    return names;
}

RoundResult
accuracyRound(const Options &opt, SpanLog *spans, TraceResult *t)
{
    // Alone cells use the 128-entry DDT, the paper's design point.
    auto g = runGrid<AccuracyStats>(
        opt, accuracyConfigNames(),
        [](rarpred::driver::SimJobRunner &runner,
           const std::vector<const Workload *> &order) {
            return rarpred::driver::runSweep(
                runner, order, kNumDdtSizes + 2,
                [](const Workload &, size_t ci, TraceSource &trace,
                   rarpred::Rng &) {
                    return accuracyCell(ci, trace, nullptr);
                });
        },
        accuracyCell, 2, spans);
    if (t == nullptr)
        return g.round;

    gridMetrics(g, t);
    double ddt_ns = 0, ddt_rec = 0, cloak_ns = 0, cloak_rec = 0;
    double passes = 0, covered = 0, mispred = 0;
    uint64_t probes = 0, lookups = 0;
    for (size_t id = 0; id < g.measures.size(); ++id) {
        if (!g.result.cells[id].ok())
            continue;
        const CellMeasure &c = g.measures[id];
        const AccuracyStats &s = *g.result.cells[id];
        if (id % g.numConfigs < kNumDdtSizes) {
            ddt_ns += (double)c.sinkNs;
            ddt_rec += (double)c.records;
            probes += c.probeA.probes;
            lookups += c.probeA.lookups;
        } else {
            cloak_ns += (double)c.sinkNs;
            cloak_rec += (double)c.records;
            passes += 1;
            covered += (double)(s.v[2] + s.v[3]);
            mispred += (double)(s.v[4] + s.v[5]);
        }
    }
    Numbers &m = t->metrics;
    m["core.ddt_ns_per_rec"] = ratio(ddt_ns, ddt_rec);
    m["core.cloak_ns_per_rec"] = ratio(cloak_ns, cloak_rec);
    m["core.ddt_avg_probe"] = ratio((double)probes, (double)lookups);
    m["core.engine_passes"] = passes;
    m["core.useful_frac"] = ratio(covered, covered + mispred);
    m["core.parallel_slowdown"] =
        ratio((double)g.aloneGridSinkNs, (double)g.aloneSinkNs);
    t->ledgerMs["core.ddt"] = ddt_ns / 1e6;
    t->ledgerMs["core.cloak"] = cloak_ns / 1e6;
    return g.round;
}

/**
 * The traced run's recording probe: RecordedTrace::record of every
 * program, on as many threads as the grid uses, timed per program with
 * its kernel share (page faults of the growing trace vector).
 */
void
recordProbe(const Options &opt, SpanLog *spans, TraceResult *t)
{
    const auto order = seededOrder(opt.seed);
    struct Probe
    {
        int64_t buildNs = 0, recordNs = 0, userNs = 0, sysNs = 0;
        uint64_t insts = 0;
    };
    std::vector<Probe> probes(order.size());
    std::atomic<size_t> next{0};
    const auto nanos = [](const timeval &tv) {
        return (int64_t)tv.tv_sec * 1000000000 + (int64_t)tv.tv_usec * 1000;
    };
    const auto work = [&] {
        while (true) {
            const size_t i = next++;
            if (i >= order.size())
                return;
            Probe &p = probes[i];
            const int64_t b0 = nowNs();
            const rarpred::Program program = order[i]->build(1);
            const int64_t r0 = nowNs();
            rusage ru0{}, ru1{};
            getrusage(RUSAGE_THREAD, &ru0);
            const rarpred::RecordedTrace trace =
                rarpred::RecordedTrace::record(
                    program, opt.mini ? kMiniInsts : ~0ull);
            getrusage(RUSAGE_THREAD, &ru1);
            const int64_t r1 = nowNs();
            p.buildNs = r0 - b0;
            p.recordNs = r1 - r0;
            p.userNs = nanos(ru1.ru_utime) - nanos(ru0.ru_utime);
            p.sysNs = nanos(ru1.ru_stime) - nanos(ru0.ru_stime);
            p.insts = trace.size();
            spans->add({"vm.record", r0, r1, -1, (int)i, -1});
        }
    };
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < opt.workers; ++i)
        threads.emplace_back(work);
    for (std::thread &th : threads)
        th.join();

    double build = 0, record = 0, user = 0, sys = 0, insts = 0;
    for (const Probe &p : probes) {
        build += (double)p.buildNs;
        record += (double)p.recordNs;
        user += (double)p.userNs;
        sys += (double)p.sysNs;
        insts += (double)p.insts;
    }
    t->metrics["vm.record_ns_per_inst"] = ratio(record, insts);
    t->metrics["vm.record_sys_frac"] = ratio(sys, user + sys);
    t->ledgerMs["vm.build_probe"] = build / 1e6;
    t->ledgerMs["vm.record_probe"] = record / 1e6;
}

std::map<std::string, std::string>
fig9Digests(const Options &opt)
{
    return fig9Round(opt, nullptr, nullptr).cells;
}

std::map<std::string, std::string>
accuracyDigests(const Options &opt)
{
    return accuracyRound(opt, nullptr, nullptr).cells;
}

} // namespace

const WorkloadDriver kFig9Timing = {"fig9_timing", fig9Round, recordProbe,
                                    fig9Digests};
const WorkloadDriver kAccuracyGrid = {"accuracy_grid", accuracyRound,
                                      recordProbe, accuracyDigests};

} // namespace perfbench
