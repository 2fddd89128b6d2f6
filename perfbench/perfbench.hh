/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): host clocks,
 * CPU accounting, the seeded program order, per-cell digests, the
 * in-memory span log of traced runs, and the JSON lines the driver
 * (run.py) reads.
 *
 * Every number here is host time. Simulated statistics only feed the
 * per-cell digests that run.py checks against digests.json.
 */

#ifndef RARPRED_PERFBENCH_PERFBENCH_HH_
#define RARPRED_PERFBENCH_PERFBENCH_HH_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "vm/trace.hh"
#include "workload/workload.hh"

namespace perfbench {

/** Nanoseconds on the steady clock (CLOCK_MONOTONIC). */
int64_t nowNs();

/** CPU time of the calling thread, in nanoseconds. */
int64_t threadCpuNs();

/** user+sys seconds of this process plus its reaped children. */
double processCpuSeconds();

/** Peak resident set of this process plus that of its largest reaped
 *  child (a service worker process), in MiB. */
double peakRssMb();

/** 64-bit FNV-1a over @p n little-endian words, as 16 hex digits. */
std::string digestWords(const uint64_t *words, size_t n);

/**
 * The 18 programs in the order a sweep lists them for @p seed. Seed 0
 * is Table 5.1 order, as the bench binaries use. Other seeds move the
 * largest program (mgd, 13.7M instructions) to the end and shuffle
 * the rest but the first. So on every seed set-up time measures the
 * same recording (go's), and peak RSS the same worst case: the largest
 * trace growing while every other trace is resident. With mgd anywhere
 * else the peak moves by up to 15% from seed to seed.
 */
std::vector<const rarpred::Workload *> seededOrder(uint64_t seed);

/** splitmix64 step: the benchmark's only source of randomness. */
uint64_t splitmix64(uint64_t &state);

/** One span of a traced run. */
struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int cell = -1;   ///< cell or request id, -1 when not per cell
    int worker = -1; ///< sweep worker index, -1 off the grid
};

/** Thread-safe in-memory span log; written out when the run ends. */
class SpanLog
{
  public:
    /** Append a span; @return its index (usable as a parent). */
    int add(Span span);

    std::vector<Span> spans() const;

    /** Write one JSON object per span to @p path. */
    void writeJsonLines(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Times nextBlock() of the source it wraps (vm decode). */
class TimedSource : public rarpred::TraceSource
{
  public:
    explicit TimedSource(rarpred::TraceSource &inner) : inner_(inner) {}

    bool next(rarpred::DynInst &di) override { return inner_.next(di); }

    size_t
    nextBlock(rarpred::DynInst *out, size_t max) override
    {
        const int64_t t0 = nowNs();
        const size_t n = inner_.nextBlock(out, max);
        ns += nowNs() - t0;
        records += n;
        return n;
    }

    int64_t ns = 0;
    uint64_t records = 0;

  private:
    rarpred::TraceSource &inner_;
};

/** Times onBatch() of the sink it wraps (core or cpu). */
class TimedSink : public rarpred::TraceSink
{
  public:
    explicit TimedSink(rarpred::TraceSink &inner) : inner_(inner) {}

    void onInst(const rarpred::DynInst &di) override { inner_.onInst(di); }

    void
    onBatch(const rarpred::DynInst *batch, size_t n) override
    {
        const int64_t t0 = nowNs();
        inner_.onBatch(batch, n);
        ns += nowNs() - t0;
    }

    int64_t ns = 0;

  private:
    rarpred::TraceSink &inner_;
};

/** Ordered string -> number map, printed as a JSON object. */
using Numbers = std::map<std::string, double>;

/** Render @p v with all its digits (17 significant). */
std::string jsonNumber(double v);

std::string jsonObject(const Numbers &values);

/**
 * What one round measured, printed as one {"kind":"round"} line.
 * A round is one process: one grid, or one daemon lifetime with its
 * request script.
 */
struct RoundResult
{
    double setupS = 0;
    double wallS = 0;
    double cpuS = 0;
    /** Latency of each unit of work: a completed cell, or a request. */
    std::vector<double> latenciesMs;
    /** Cell key -> stats digest of every cell that completed
     *  ("conflict" if one key read twice with different stats). A
     *  failed sweep cell is absent; run.py counts it failed. */
    std::map<std::string, std::string> cells;
    /** Service only: per request, the cell keys it returned; empty for
     *  a request that failed (shed, errored, or any row in error). */
    std::vector<std::vector<std::string>> unitCells;
    /** Counters for the saved result: service hit share and designed
     *  hit share (run.py checks they are equal), sheds; merged bytes. */
    Numbers extra;
};

std::string roundJson(const RoundResult &r, bool traced);

/** Per-layer results of a traced run: metrics plus self-time ledger. */
struct TraceResult
{
    Numbers metrics;
    Numbers ledgerMs; ///< layer/component -> self time, ms
    /** Metric -> the workload whose short run measured it (see
     *  fillFromMiniRuns); absent for the run's own metrics. */
    std::map<std::string, std::string> filledFrom;
};

std::string traceJson(const TraceResult &t);

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    bool trace = false;
    std::string runDir;   ///< scratch space (stores, sockets, spans)
    unsigned workers = 4; ///< min(4, nproc): threads, worker processes
    int64_t launchNs = 0; ///< process launch on nowNs()'s clock; 0 = unknown
    /** Layer-probe scale (see fillFromMiniRuns): sweeps cut every trace
     *  at kMiniInsts, the service sends a tenth of its script. */
    bool mini = false;
};

constexpr uint64_t kMiniInsts = 200000;

/**
 * One workload. round() runs one round; with a non-null @p trace it
 * records spans into @p spans and fills per-layer metrics. probes()
 * runs the traced run's extra per-layer measurements. digests()
 * computes the stats digest of every cell any seed can request.
 */
struct WorkloadDriver
{
    const char *name;
    RoundResult (*round)(const Options &opt, SpanLog *spans,
                         TraceResult *trace);
    void (*probes)(const Options &opt, SpanLog *spans, TraceResult *trace);
    std::map<std::string, std::string> (*digests)(const Options &opt);
};

extern const WorkloadDriver kFig9Timing;
extern const WorkloadDriver kAccuracyGrid;
extern const WorkloadDriver kServiceMixed;

/**
 * Fill the per-layer metrics @p self does not exercise from a short
 * (Options::mini) traced run of each other workload, so that every
 * traced run reports every layer with a measured value. The workload's
 * own metrics win; each filled one is tagged in TraceResult::filledFrom.
 * The short runs' spans and ledger rows are dropped.
 */
void fillFromMiniRuns(const Options &opt, const WorkloadDriver &self,
                      TraceResult *trace);

/** Median of @p v (0 when empty); reorders @p v. */
double median(std::vector<double> v);

} // namespace perfbench

#endif // RARPRED_PERFBENCH_PERFBENCH_HH_
