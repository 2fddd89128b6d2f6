#include "driver/sweep.hh"

#include <cstdlib>
#include <cstring>
#include <limits>

#include "cpu/ooo_cpu.hh"
#include "faultinject/driver_faults.hh"
#include "service/proto.hh"

namespace rarpred::driver {

std::vector<const Workload *>
allWorkloadPtrs()
{
    std::vector<const Workload *> ptrs;
    for (const Workload &w : allWorkloads())
        ptrs.push_back(&w);
    return ptrs;
}

namespace {

/** Strict decimal parse; rejects empty strings and trailing junk. */
bool
parseU64(const char *s, uint64_t *out)
{
    if (*s == '\0')
        return false;
    uint64_t v = 0;
    for (; *s != '\0'; ++s) {
        if (*s < '0' || *s > '9')
            return false;
        const uint64_t digit = (uint64_t)(*s - '0');
        if (v > (~0ull - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

/** If @p arg is "--name=V", return V, else nullptr. */
const char *
flagValue(const char *arg, const char *name)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

Status
numericFlag(const char *arg, const char *flag, uint64_t *out)
{
    const char *v = flagValue(arg, flag);
    if (v == nullptr)
        return Status::notFound(""); // not this flag
    if (!parseU64(v, out))
        return Status::invalidArgument(std::string(flag) +
                                       " wants a decimal number, got '" +
                                       v + "'");
    return Status{};
}

/**
 * InvalidArgument naming @p flag unless @p v fits in @p max: a value
 * that does not fit its field must be rejected, not wrapped.
 */
Status
checkFits(const char *flag, uint64_t v, uint64_t max)
{
    if (v <= max)
        return Status{};
    return Status::invalidArgument(std::string(flag) + "=" +
                                   std::to_string(v) +
                                   " is out of range (max " +
                                   std::to_string(max) + ")");
}

constexpr uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();

} // namespace

Result<SweepOptions>
parseSweepArgs(int argc, char **argv)
{
    SweepOptions opts;
    if (const char *env = std::getenv("RARPRED_WORKERS")) {
        uint64_t v = 0;
        if (!parseU64(env, &v))
            return Status::invalidArgument(
                std::string("RARPRED_WORKERS wants a decimal number, "
                            "got '") +
                env + "'");
        RARPRED_RETURN_IF_ERROR(
            checkFits("RARPRED_WORKERS", v, kMaxUnsigned));
        opts.runner.workers = (unsigned)v;
    }

    // Crash-drill hook: lets CI and the resume tests inject faults
    // into any sweep binary without recompiling.
    RARPRED_RETURN_IF_ERROR(armDriverFaultsFromEnv());

    struct U64Flag
    {
        const char *name;
        uint64_t *slot;
    };
    uint64_t workers = 0, scale = 0, max_insts = 0, retries = 0;
    bool saw_workers = false, saw_scale = false, saw_max_insts = false;
    bool saw_retries = false, saw_serial = false;
    uint64_t proc_workers = 0;
    const U64Flag numeric[] = {
        {"--deadline-ms", &opts.runner.jobDeadlineMs},
        {"--retry-backoff-ms", &opts.runner.retryBackoffMs},
        {"--trace-budget-bytes", &opts.runner.traceBudgetBytes},
        {"--workers-proc", &proc_workers},
        {"--worker-heartbeat-ms", &opts.runner.workerHeartbeatTimeoutMs},
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            opts.help = true;
            continue;
        }
        if (std::strcmp(arg, "--serial") == 0) {
            opts.runner.workers = 1;
            saw_serial = true;
            continue;
        }
        if (std::strcmp(arg, "--resume") == 0) {
            opts.io.resume = true;
            continue;
        }
        if (const char *v = flagValue(arg, "--journal")) {
            opts.io.journalPath = v;
            continue;
        }
        if (const char *v = flagValue(arg, "--resume")) {
            opts.io.journalPath = v;
            opts.io.resume = true;
            continue;
        }
        Status s = numericFlag(arg, "--workers", &workers);
        if (s.ok()) {
            saw_workers = true;
            continue;
        }
        if (s.code() == StatusCode::InvalidArgument)
            return s;
        s = numericFlag(arg, "--scale", &scale);
        if (s.ok()) {
            saw_scale = true;
            continue;
        }
        if (s.code() == StatusCode::InvalidArgument)
            return s;
        s = numericFlag(arg, "--max-insts", &max_insts);
        if (s.ok()) {
            saw_max_insts = true;
            continue;
        }
        if (s.code() == StatusCode::InvalidArgument)
            return s;
        s = numericFlag(arg, "--retries", &retries);
        if (s.ok()) {
            saw_retries = true;
            continue;
        }
        if (s.code() == StatusCode::InvalidArgument)
            return s;
        uint64_t budget_traces = 0;
        s = numericFlag(arg, "--trace-budget", &budget_traces);
        if (s.ok()) {
            RARPRED_RETURN_IF_ERROR(
                checkFits("--trace-budget", budget_traces, kMaxU32));
            opts.runner.traceBudgetTraces = (uint32_t)budget_traces;
            continue;
        }
        if (s.code() == StatusCode::InvalidArgument)
            return s;
        bool matched = false;
        for (const U64Flag &f : numeric) {
            s = numericFlag(arg, f.name, f.slot);
            if (s.ok()) {
                matched = true;
                break;
            }
            if (s.code() == StatusCode::InvalidArgument)
                return s;
        }
        if (matched)
            continue;
        if (std::strncmp(arg, "--", 2) == 0)
            return Status::invalidArgument(std::string("unknown flag '") +
                                           arg + "'");
        opts.positional.push_back(arg);
    }

    RARPRED_RETURN_IF_ERROR(checkFits("--workers", workers, kMaxUnsigned));
    RARPRED_RETURN_IF_ERROR(
        checkFits("--workers-proc", proc_workers, kMaxUnsigned));
    RARPRED_RETURN_IF_ERROR(checkFits("--scale", scale, kMaxU32));
    // maxAttempts = retries + 1 must not wrap to 0.
    RARPRED_RETURN_IF_ERROR(
        checkFits("--retries", retries, kMaxUnsigned - 1));
    if (saw_workers)
        opts.runner.workers = (unsigned)workers;
    if (proc_workers != 0) {
        opts.runner.procWorkers = (unsigned)proc_workers;
        // 1:1 thread:process pairing unless the caller split them
        // explicitly — each worker thread drives one worker process.
        if (!saw_workers && !saw_serial)
            opts.runner.workers = (unsigned)proc_workers;
    }
    if (saw_scale) {
        if (scale == 0)
            return Status::invalidArgument("--scale must be >= 1");
        opts.runner.scale = (uint32_t)scale;
    }
    if (saw_max_insts)
        opts.runner.maxInsts = max_insts == 0 ? ~0ull : max_insts;
    if (saw_retries) {
        // --retries counts *retries*; maxAttempts counts attempts.
        opts.runner.maxAttempts = (unsigned)retries + 1;
    }
    if (opts.io.resume && opts.io.journalPath.empty())
        return Status::invalidArgument(
            "--resume needs a journal path (--journal=PATH or "
            "--resume=PATH)");
    return opts;
}

const char *
sweepUsage()
{
    return
        "common sweep flags:\n"
        "  --workers=N | --serial   worker threads (default: hardware;\n"
        "                           env RARPRED_WORKERS overrides)\n"
        "  --workers-proc=N         run jobs in N sandboxed worker\n"
        "                           processes (crash containment);\n"
        "                           implies --workers=N unless given\n"
        "  --worker-heartbeat-ms=N  kill a silent worker process\n"
        "                           after N ms (default 10000)\n"
        "  --scale=N                workload scale (default 1)\n"
        "  --max-insts=N            truncate traces to N instructions\n"
        "  --retries=N              retry failed jobs N times (default 2)\n"
        "  --deadline-ms=N          per-attempt watchdog deadline\n"
        "  --retry-backoff-ms=N     base backoff before retries\n"
        "  --trace-budget=N         max resident traces in the cache\n"
        "  --trace-budget-bytes=N   max resident trace bytes (full\n"
        "                           footprint incl. trace headers)\n"
        "  --journal=PATH           checkpoint completed jobs to PATH\n"
        "  --resume[=PATH]          resume an interrupted sweep\n"
        "  --help | -h              show this help\n"
        "env RARPRED_FAULT=point:index[xN],... arms driver fault\n"
        "points (job_crash, job_hang, job_kill, journal_torn,\n"
        "cache_pressure, worker_crash, worker_hang, worker_flap,\n"
        "worker_result_torn, worker_result_dup, store_enospc) for\n"
        "crash drills.\n";
}

int
finishSweep(SimJobRunner &runner, const Status &status, std::ostream &err,
            const StatsMerger *merger)
{
    runner.dumpFailureTable(err);
    runner.dumpStats(err);
    if (merger != nullptr && merger->numErrors() != 0)
        err << "sweep.errorsJson " << merger->errorsJson() << "\n";
    if (status.ok())
        return 0;
    err << "sweep failed: " << status.toString() << "\n";
    if (status.code() == StatusCode::Cancelled) {
        err << "re-run with --resume to pick up where this sweep "
               "stopped\n";
        return 130;
    }
    return status.code() == StatusCode::InvalidArgument ? 2 : 1;
}

CpuStats
simulateCell(const service::CellConfigMsg &config, TraceSource &trace)
{
    CpuConfig core;
    core.memDep = config.memDepPolicy();
    OooCpu cpu(core, config.toTimingConfig());
    drainTraceBatched(trace, cpu);
    return cpu.stats();
}

SweepResult<CpuStats>
runCellSweep(SimJobRunner &runner,
             const std::vector<const Workload *> &workloads,
             const std::vector<service::CellConfigMsg> &configs,
             const SweepIo &io)
{
    // Non-template twin of runSweep() for the standard CPU cell:
    // journal layout, cell order, configHash and RNG seeding are kept
    // identical so a journal written by either is resumable by both
    // (the fingerprint covers names/configs/sizeof(CpuStats)/scale/
    // maxInsts, not which entry point produced it).
    const size_t num_configs = configs.size();
    const size_t n = workloads.size() * num_configs;
    SweepResult<CpuStats> out{
        std::vector<Result<CpuStats>>(
            n, Result<CpuStats>(
                   Status::failedPrecondition("job never ran"))),
        Status{}};
    std::vector<char> done(n, 0);

    std::unique_ptr<SweepJournal> journal;
    if (!io.journalPath.empty()) {
        std::vector<std::string> names;
        names.reserve(workloads.size());
        for (const Workload *w : workloads)
            names.push_back(w->abbrev);
        const uint64_t fp = sweepFingerprint(
            names, num_configs, sizeof(CpuStats),
            runner.config().scale, runner.config().maxInsts);
        if (io.resume) {
            SweepJournal::Replay replay;
            auto opened = SweepJournal::openResume(io.journalPath, fp,
                                                   n, &replay);
            if (!opened.ok()) {
                out.status = opened.status();
                return out;
            }
            journal = std::move(*opened);
            uint64_t replayed = 0;
            for (const SweepJournal::Record &rec : replay.records) {
                if (rec.job >= n ||
                    rec.payload.size() != sizeof(CpuStats)) {
                    out.status = Status::corruption(
                        "journal record does not fit this sweep");
                    return out;
                }
                CpuStats value;
                std::memcpy(&value, rec.payload.data(),
                            sizeof(CpuStats));
                if (!done[rec.job])
                    ++replayed;
                out.cells[rec.job] = Result<CpuStats>(value);
                done[rec.job] = 1;
            }
            runner.noteJournalReplay(replayed, replay.tornRecords);
        } else {
            auto created = SweepJournal::create(io.journalPath, fp, n);
            if (!created.ok()) {
                out.status = created.status();
                return out;
            }
            journal = std::move(*created);
        }
    }

    std::vector<JobSpec> jobs;
    std::vector<size_t> job_cell;
    jobs.reserve(n);
    SweepJournal *jptr = journal.get();
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        for (size_t ci = 0; ci < num_configs; ++ci) {
            const size_t idx = wi * num_configs + ci;
            if (done[idx])
                continue;
            const service::CellConfigMsg *cfg = &configs[ci];
            Result<CpuStats> *slot = &out.cells[idx];
            job_cell.push_back(idx);
            // One commit path shared by the in-process body and the
            // worker-pool route: whichever computed the stats, the
            // journal append and slot write are the same bytes.
            auto commit = [&runner, slot, idx,
                           jptr](const CpuStats &stats) -> Status {
                if (jptr != nullptr &&
                    jptr->append(idx, &stats, sizeof(CpuStats)).ok())
                    runner.noteJournalAppend();
                *slot = Result<CpuStats>(stats);
                return Status{};
            };
            JobSpec job;
            job.workload = workloads[wi];
            job.configHash = ci;
            job.run = [cfg, commit](TraceSource &trace,
                                    Rng &) -> Status {
                return commit(simulateCell(*cfg, trace));
            };
            job.procConfig = cfg;
            job.acceptProc = commit;
            jobs.push_back(std::move(job));
        }
    }

    out.status = runner.run(jobs);

    for (const JobFailure &f : runner.quarantined())
        out.cells[job_cell[f.job]] = Result<CpuStats>(f.error);

    return out;
}

} // namespace rarpred::driver
