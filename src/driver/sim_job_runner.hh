/**
 * @file
 * Parallel sweep execution: a thread pool that fans a workload ×
 * configuration grid out over std::thread workers, with per-job
 * fault tolerance.
 *
 * Design for determinism (the whole point — see tests/test_driver.cc):
 *  - The job list is fixed before run() starts; workers claim jobs
 *    with an atomic cursor, but every job writes results only into
 *    its own pre-allocated slot, so the merged output is a pure
 *    function of the job list, not of the interleaving.
 *  - Each job gets a private Rng seeded by jobSeed(workload id,
 *    config hash): the seed depends on *what* the job is, never on
 *    which worker runs it or when. A retried attempt derives a fresh
 *    stream from the same identity plus the attempt number.
 *  - Traces come from a TraceCache: one functional execution per
 *    workload, shared immutably by every job that replays it — and
 *    regenerated transparently if a memory budget evicted it.
 *
 * Fault tolerance (see DESIGN.md §6b): a job that throws, returns a
 * non-OK Status, or overruns its deadline is retried up to
 * RunnerConfig::maxAttempts times with exponential backoff, then
 * *quarantined* — recorded in a failure list and skipped — instead
 * of aborting the pool. The deadline is enforced cooperatively by a
 * watchdog wrapped around the job's trace source (every simulation
 * job pumps its trace, so a wedged or pathologically slow job is
 * caught at the next record boundary and unwound by exception — no
 * detached threads, nothing to leak). run() returns non-OK when any
 * job was quarantined or a stop signal interrupted the sweep.
 *
 * Timing observability: the runner accumulates per-job wall-clock
 * and queue-latency counters (common/stats.hh Counter/Histogram) so
 * the speedup of a parallel sweep is measurable; dumpStats() writes
 * them in the repo's "group.stat value" format, together with the
 * fault-tolerance counters (driver.retries, driver.quarantined,
 * driver.cacheEvictions, journal replay/append counts). Timing
 * counters are kept strictly out of the merged simulation stats —
 * they are the only nondeterministic output, and they are clearly
 * labelled.
 */

#ifndef RARPRED_DRIVER_SIM_JOB_RUNNER_HH_
#define RARPRED_DRIVER_SIM_JOB_RUNNER_HH_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "cpu/cpu_config.hh"
#include "driver/trace_cache.hh"
#include "vm/trace.hh"

namespace rarpred::service {
struct CellConfigMsg;
} // namespace rarpred::service

namespace rarpred::driver {

class WorkerPool;

/**
 * Deterministic per-job RNG seed derived from (workload id, config
 * hash). Stable across platforms, worker counts and runs.
 */
uint64_t jobSeed(std::string_view workload, uint64_t config_hash);

/**
 * Install SIGINT/SIGTERM handlers that request a *graceful* sweep
 * stop: workers finish their current job (journal entries for
 * completed jobs are already flushed), stop claiming new ones, and
 * run() returns StatusCode::Cancelled so the caller can report how
 * to resume. Idempotent; the benches call it once at startup.
 */
void installStopHandlers();

/** True once a stop signal arrived (or requestStop() was called). */
bool stopRequested();

/** The signal that requested the stop (0 when none). */
int stopSignal();

/** Programmatic equivalent of a stop signal (tests). */
void requestStop();

/** Clear a pending stop request (tests only). */
void clearStopRequest();

/** Pool-wide knobs. */
struct RunnerConfig
{
    /** Worker threads; 0 means hardware_concurrency (at least 1).
     *  With 1 worker, jobs run inline on the calling thread. */
    unsigned workers = 0;
    uint32_t scale = 1;        ///< workload scale for trace generation
    uint64_t maxInsts = ~0ull; ///< trace truncation (tests)

    /** Total attempts per job before quarantine (1 = never retry). */
    unsigned maxAttempts = 3;
    /** Per-attempt deadline in milliseconds; 0 disables the
     *  watchdog. Enforced at trace-record granularity. */
    uint64_t jobDeadlineMs = 0;
    /** Backoff before retry r (1-based) is retryBackoffMs << (r-1);
     *  0 retries immediately. */
    uint64_t retryBackoffMs = 0;

    /** Trace residency budgets forwarded to the TraceCache. */
    uint64_t traceBudgetBytes = 0;  ///< 0 = unlimited
    uint32_t traceBudgetTraces = 0; ///< 0 = unlimited

    /**
     * Process-isolated execution (--workers-proc): run each proc-
     * dispatchable job (JobSpec::procConfig != null) in one of N
     * sandboxed rarpred-worker processes instead of on the worker
     * thread itself, so a crash, wedge, or OOM in a cell costs one
     * attempt instead of the whole sweep. 0 disables the pool.
     */
    unsigned procWorkers = 0;
    /** Kill a worker process after this much mid-job silence. */
    uint64_t workerHeartbeatTimeoutMs = 10000;
};

/** One unit of work: replay one workload trace into one simulator. */
struct JobSpec
{
    const Workload *workload = nullptr;
    /** Identifies the configuration point; feeds the job's RNG seed. */
    uint64_t configHash = 0;
    /**
     * The job body. Receives a private replay cursor over the shared
     * trace and a private deterministically-seeded Rng. Runs on a
     * worker thread: it must only touch its own result slot. A non-OK
     * return (or a thrown exception) marks the attempt failed and
     * triggers retry/quarantine.
     */
    std::function<Status(TraceSource &trace, Rng &rng)> run;

    /**
     * Optional process-isolation route: when non-null (and the runner
     * has a healthy worker pool), the attempt is dispatched to a
     * worker process as (workload, scale, maxInsts, *procConfig) and
     * acceptProc commits the returned stats — it must perform the
     * same result-slot/journal writes the in-process body performs,
     * so the two routes are byte-identical. When the pool is
     * degraded/absent the attempt transparently falls back to run.
     * The pointee must outlive the sweep.
     */
    const service::CellConfigMsg *procConfig = nullptr;
    std::function<Status(const CpuStats &stats)> acceptProc;
};

/** One quarantined job, for the stderr failure table. */
struct JobFailure
{
    size_t job = 0;            ///< index into the run's job list
    std::string workload;      ///< workload abbrev
    uint64_t configHash = 0;
    unsigned attempts = 0;     ///< attempts consumed (== maxAttempts)
    Status error;              ///< the final attempt's failure
};

/** The thread pool. One instance drives any number of sweeps. */
class SimJobRunner
{
  public:
    explicit SimJobRunner(const RunnerConfig &config = {});

    /**
     * Construct a runner that draws traces from @p shared_cache
     * instead of a private one. The resident sweep service uses this
     * to keep one warm TraceCache across many per-request runners
     * (each request wants its own deadline/retry knobs, but the
     * memoized workload traces are request-independent). The cache
     * must outlive the runner; its residency budgets are whatever it
     * was built with — the runner's traceBudget* knobs are ignored.
     */
    SimJobRunner(const RunnerConfig &config, TraceCache *shared_cache);

    /**
     * Construct a runner that additionally dispatches proc-
     * dispatchable jobs to @p shared_pool (may be null: plain
     * in-process execution). The pool must outlive the runner and be
     * start()ed by its owner; RunnerConfig::procWorkers is ignored
     * when a shared pool is given. The resident sweep service uses
     * this to keep one supervised pool across many per-request
     * runners.
     */
    SimJobRunner(const RunnerConfig &config, TraceCache *shared_cache,
                 WorkerPool *shared_pool);

    ~SimJobRunner();

    /**
     * Execute every job, fanning out over workers(); blocks until
     * all jobs finished or were quarantined. Jobs are claimed in
     * list order, so listing a sweep workload-major keeps each
     * trace's consumers together.
     *
     * @return OK when every job completed; Cancelled when a stop
     * signal interrupted the sweep; FailedPrecondition when jobs
     * were quarantined (see quarantined() / dumpFailureTable()).
     */
    Status run(const std::vector<JobSpec> &jobs);

    /** Jobs quarantined by the most recent run(). */
    const std::vector<JobFailure> &quarantined() const
    {
        return quarantined_;
    }

    /** Write a human-readable table of quarantined jobs to @p os. */
    void dumpFailureTable(std::ostream &os) const;

    /** Effective worker count after resolving workers == 0. */
    unsigned workers() const { return workers_; }

    const RunnerConfig &config() const { return config_; }

    /** Shared trace store (also usable directly by tests). */
    TraceCache &traceCache() { return *cache_; }

    /** Worker-process pool (null without --workers-proc). */
    WorkerPool *workerPool() { return pool_; }

    /** Journal bookkeeping, surfaced in dumpStats() (driver.*). */
    void noteJournalReplay(uint64_t replayed, uint64_t torn);
    void noteJournalAppend();

    /**
     * Write runner counters ("driver.jobsCompleted", retry/
     * quarantine/journal counts, per-job wall and queue-latency
     * totals, trace-cache hit/generation/eviction counts) as
     * "driver.stat value" lines. Wall-clock values are real time
     * and intentionally excluded from merged simulation stats.
     */
    void dumpStats(std::ostream &os) const;

  private:
    void workerLoop(const std::vector<JobSpec> &jobs,
                    uint64_t sweep_start_us);

    /** Run one attempt of @p job; non-OK on failure or deadline. */
    Status runAttempt(const JobSpec &job, size_t index,
                      unsigned attempt);

    static uint64_t nowMicros();

    RunnerConfig config_;
    unsigned workers_;
    std::unique_ptr<TraceCache> ownedCache_; ///< null with a shared cache
    TraceCache *cache_;                      ///< owned or shared
    std::unique_ptr<WorkerPool> ownedPool_;  ///< null with a shared pool
    WorkerPool *pool_ = nullptr;             ///< owned, shared, or null
    std::atomic<size_t> next_{0};

    // Aggregated under statsMu_ when each job completes.
    mutable std::mutex statsMu_;
    std::vector<JobFailure> quarantined_;
    Counter sweepsRun_;
    Counter jobsCompleted_;
    Counter retries_;          ///< attempts beyond each job's first
    Counter jobsQuarantined_;  ///< cumulative across sweeps
    Counter journalReplayed_;  ///< jobs restored from a journal
    Counter journalAppended_;  ///< jobs checkpointed to a journal
    Counter journalTorn_;      ///< torn records dropped on resume
    Counter jobMicrosTotal_;   ///< sum of per-job wall clock
    Counter queueMicrosTotal_; ///< sum of (job start - sweep start)
    Counter sweepMicrosTotal_; ///< wall clock of run() calls
    Counter procFallbacks_;    ///< proc jobs run in-process instead
    uint64_t jobMicrosMax_ = 0;
    Histogram queueLatencyMs_; ///< per-job queue latency, 10ms buckets
    StatGroup statGroup_;
};

} // namespace rarpred::driver

#endif // RARPRED_DRIVER_SIM_JOB_RUNNER_HH_
