/**
 * @file
 * Convenience layer for grid sweeps: run one callable per (workload,
 * configuration) cell over a SimJobRunner and collect results in a
 * deterministic, worker-count-independent layout — with optional
 * crash-safe checkpointing.
 *
 * This is the API the bench/ drivers use. A sweep is embarrassingly
 * parallel: every cell replays a shared immutable trace into its own
 * private simulator instance, so the cell callable must not touch
 * mutable shared state (read-only captures like config tables are
 * fine).
 *
 * Fault tolerance: every cell lands in a Result — a failed job
 * (exception, non-OK status, blown deadline) is retried and, if it
 * keeps failing, quarantined; its cell then holds the error while
 * every other cell holds its value. With SweepIo::journalPath set,
 * each completed cell is checkpointed to a CRC-guarded journal
 * (driver/sweep_journal.hh) and a rerun with SweepIo::resume replays
 * the journal and executes only the missing cells, producing
 * byte-identical results.
 */

#ifndef RARPRED_DRIVER_SWEEP_HH_
#define RARPRED_DRIVER_SWEEP_HH_

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "driver/sim_job_runner.hh"
#include "driver/stats_merger.hh"
#include "driver/sweep_journal.hh"
#include "workload/workload.hh"

namespace rarpred::service {
struct CellConfigMsg;
} // namespace rarpred::service

namespace rarpred::driver {

/** Pointers to all 18 paper workloads, in Table 5.1 order. */
std::vector<const Workload *> allWorkloadPtrs();

/** Checkpointing knobs for runSweep(). */
struct SweepIo
{
    std::string journalPath; ///< empty = no checkpointing
    bool resume = false;     ///< replay the journal, run missing jobs
};

/**
 * Everything a sweep CLI understands, parsed by parseSweepArgs().
 * Accepted anywhere in argv:
 *   --workers=N | --serial     worker threads (default: hardware,
 *                              overridable via RARPRED_WORKERS)
 *   --workers-proc=N           run jobs in N sandboxed worker
 *                              processes (crash containment); also
 *                              sets --workers=N unless given
 *   --worker-heartbeat-ms=N    kill a silent worker process after N ms
 *   --scale=N                  workload scale for trace generation
 *   --max-insts=N              truncate traces to N instructions
 *   --retries=N                retry a failed job N times (default 2)
 *   --deadline-ms=N            per-attempt watchdog deadline
 *   --retry-backoff-ms=N       base backoff before retries
 *   --trace-budget=N           max resident traces in the cache
 *   --trace-budget-bytes=N     max resident trace bytes (full
 *                              in-memory footprint incl. headers)
 *   --journal=PATH             checkpoint completed jobs to PATH
 *   --resume[=PATH]            resume from the journal
 *   --help | -h                print usage
 * Anything else starting with "--" is an error; bare words are
 * collected as positionals (e.g. a workload name).
 */
struct SweepOptions
{
    RunnerConfig runner;
    SweepIo io;
    bool help = false;
    std::vector<std::string> positional;
};

/**
 * The one argv parser every sweep binary shares. Returns a non-OK
 * Status — never exits — on an unknown flag, a malformed number, or
 * --resume without a journal path; the caller prints the error plus
 * sweepUsage() and returns a non-zero exit code. Also arms driver
 * fault points from RARPRED_FAULT (see faultinject/driver_faults.hh)
 * so any sweep binary can be crash-tested from the outside.
 */
Result<SweepOptions> parseSweepArgs(int argc, char **argv);

/** Usage text for the shared sweep flags. */
const char *sweepUsage();

/**
 * Standard sweep epilogue for CLI drivers: report @p status, dump
 * the failure table (if any) and runner stats to @p err, and map the
 * outcome to a process exit code — 0 on success, 130 on an
 * interrupting signal (with a hint to --resume), 2 on a usage error
 * (InvalidArgument, e.g. --workers-proc on a closure sweep), 1
 * otherwise.
 *
 * With a non-null @p merger that recorded failed rows, one
 * "sweep.errorsJson <array>" line is emitted to @p err using
 * StatsMerger::errorsJson() — the same machine-readable error shape
 * the sweep service puts in its replies, so tooling parses one
 * format whether the sweep ran locally or behind rarpredd.
 */
int finishSweep(SimJobRunner &runner, const Status &status,
                std::ostream &err, const StatsMerger *merger = nullptr);

namespace detail {

template <typename T>
struct ResultValue
{
    using type = T;
    static constexpr bool isResult = false;
};

template <typename T>
struct ResultValue<Result<T>>
{
    using type = T;
    static constexpr bool isResult = true;
};

} // namespace detail

/**
 * The outcome of one sweep: a Result per cell plus the overall
 * status. status.ok() guarantees every cell holds a value.
 */
template <typename T>
struct SweepResult
{
    std::vector<Result<T>> cells; ///< [wi * num_configs + ci]
    Status status;

    /** The value of cell @p i; panics if that job failed. */
    const T &operator[](size_t i) const { return cells[i].value(); }

    size_t size() const { return cells.size(); }
};

/**
 * The standard CPU cell: simulate @p trace on an OooCpu built from
 * @p config and return its stats. This is the one cell body behind
 * runCellSweep(), rarpred-worker and the sweep service.
 */
CpuStats simulateCell(const service::CellConfigMsg &config,
                      TraceSource &trace);

/**
 * Run the standard CPU-cell sweep: one OooCpu per (workload, config)
 * cell, built from a service::CellConfigMsg grid — the same cell
 * computation the sweep service performs per request. Compared to
 * handing runSweep() a closure, the explicit config grid makes every
 * cell *serializable*, so with --workers-proc the runner dispatches
 * it to a sandboxed worker process; without a pool the cells run
 * in-process with byte-identical results. Journal checkpoint/resume
 * semantics are exactly runSweep's.
 *
 * @p configs must outlive the call (cells point into it).
 */
SweepResult<CpuStats>
runCellSweep(SimJobRunner &runner,
             const std::vector<const Workload *> &workloads,
             const std::vector<service::CellConfigMsg> &configs,
             const SweepIo &io = {});

/**
 * Run @p cell for every (workload, config index) pair, workload-
 * major, fanned out over @p runner's workers.
 *
 * @param cell Callable (const Workload &, size_t config, TraceSource
 *        &, Rng &) -> R or -> Result<R>; invoked concurrently from
 *        worker threads. Returning a non-OK Result (or throwing)
 *        fails the attempt, triggering retry/quarantine.
 * @param io Optional journal checkpoint/resume (requires R to be
 *        trivially copyable).
 * @return SweepResult with cells[wi * num_configs + ci], identical
 *         bytes for any worker count — and across resume. A closure
 *         cannot run in a worker process, so a runner with a worker
 *         pool (--workers-proc) fails the sweep with InvalidArgument
 *         before any cell runs; runCellSweep() is the sweep that
 *         worker processes can serve.
 */
template <typename Fn>
auto
runSweep(SimJobRunner &runner,
         const std::vector<const Workload *> &workloads,
         size_t num_configs, Fn &&cell, const SweepIo &io = {})
{
    using CellR = std::invoke_result_t<Fn &, const Workload &, size_t,
                                       TraceSource &, Rng &>;
    static_assert(!std::is_void_v<CellR>,
                  "cell must return its per-cell result");
    using R = typename detail::ResultValue<CellR>::type;
    constexpr bool cell_returns_result =
        detail::ResultValue<CellR>::isResult;

    const size_t n = workloads.size() * num_configs;
    SweepResult<R> out{
        std::vector<Result<R>>(
            n, Result<R>(Status::failedPrecondition("job never ran"))),
        Status{}};
    std::vector<char> done(n, 0);

    if (runner.workerPool() != nullptr) {
        out.status = Status::invalidArgument(
            "--workers-proc is not supported by this sweep: its cells "
            "are closures that only run in-process (use --workers=N)");
        return out;
    }

    // ------------------------------------------------ journal setup
    std::unique_ptr<SweepJournal> journal;
    if (!io.journalPath.empty()) {
        if constexpr (!std::is_trivially_copyable_v<R>) {
            out.status = Status::invalidArgument(
                "journaling requires a trivially copyable cell type");
            return out;
        } else {
            std::vector<std::string> names;
            names.reserve(workloads.size());
            for (const Workload *w : workloads)
                names.push_back(w->abbrev);
            const uint64_t fp = sweepFingerprint(
                names, num_configs, sizeof(R), runner.config().scale,
                runner.config().maxInsts);
            if (io.resume) {
                SweepJournal::Replay replay;
                auto opened = SweepJournal::openResume(io.journalPath,
                                                       fp, n, &replay);
                if (!opened.ok()) {
                    out.status = opened.status();
                    return out;
                }
                journal = std::move(*opened);
                uint64_t replayed = 0;
                for (const SweepJournal::Record &rec : replay.records) {
                    if (rec.job >= n ||
                        rec.payload.size() != sizeof(R)) {
                        out.status = Status::corruption(
                            "journal record does not fit this sweep");
                        return out;
                    }
                    R value;
                    std::memcpy(&value, rec.payload.data(), sizeof(R));
                    if (!done[rec.job])
                        ++replayed;
                    out.cells[rec.job] = Result<R>(std::move(value));
                    done[rec.job] = 1;
                }
                runner.noteJournalReplay(replayed, replay.tornRecords);
            } else {
                auto created =
                    SweepJournal::create(io.journalPath, fp, n);
                if (!created.ok()) {
                    out.status = created.status();
                    return out;
                }
                journal = std::move(*created);
            }
        }
    }

    // --------------------------------------------------- job list
    std::vector<JobSpec> jobs;
    std::vector<size_t> job_cell; ///< job-list index -> cell index
    jobs.reserve(n);
    SweepJournal *jptr = journal.get();
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        for (size_t ci = 0; ci < num_configs; ++ci) {
            const size_t idx = wi * num_configs + ci;
            if (done[idx])
                continue;
            const Workload *w = workloads[wi];
            Result<R> *slot = &out.cells[idx];
            job_cell.push_back(idx);
            JobSpec job;
            job.workload = w;
            job.configHash = ci;
            job.run =
                [&cell, &runner, w, ci, slot, idx, jptr](
                    TraceSource &t, Rng &rng) -> Status {
                    CellR r = cell(*w, ci, t, rng);
                    if constexpr (cell_returns_result) {
                        const Status s = r.status();
                        if (s.ok() && jptr != nullptr) {
                            if constexpr (std::is_trivially_copyable_v<
                                              R>) {
                                if (jptr->append(idx, &*r, sizeof(R))
                                        .ok())
                                    runner.noteJournalAppend();
                            }
                        }
                        *slot = std::move(r);
                        return s;
                    } else {
                        if (jptr != nullptr) {
                            if constexpr (std::is_trivially_copyable_v<
                                              R>) {
                                if (jptr->append(idx, &r, sizeof(R))
                                        .ok())
                                    runner.noteJournalAppend();
                            }
                        }
                        *slot = Result<R>(std::move(r));
                        return Status{};
                    }
                };
            jobs.push_back(std::move(job));
        }
    }

    out.status = runner.run(jobs);

    // A job that failed by throwing never reached its slot write;
    // surface the real error (not "job never ran") in the cell.
    for (const JobFailure &f : runner.quarantined())
        out.cells[job_cell[f.job]] = Result<R>(f.error);

    return out;
}

} // namespace rarpred::driver

#endif // RARPRED_DRIVER_SWEEP_HH_
