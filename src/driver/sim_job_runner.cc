#include "driver/sim_job_runner.hh"

#include <csignal>
#include <cstdio>

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "driver/worker_pool.hh"
#include "faultinject/driver_faults.hh"

namespace rarpred::driver {

uint64_t
jobSeed(std::string_view workload, uint64_t config_hash)
{
    uint64_t h = crc32(workload.data(), workload.size());
    h = (h << 32) ^ (config_hash + 0x9e3779b97f4a7c15ull);
    // splitmix64 finalizer: decorrelates nearby config hashes.
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
}

// --------------------------------------------------- stop signals

namespace {

// sig_atomic_t + lock-free atomic: safe to set from a signal handler.
std::atomic<int> g_stopSignal{0};

extern "C" void
stopSignalHandler(int sig)
{
    g_stopSignal.store(sig, std::memory_order_relaxed);
}

} // namespace

void
installStopHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = stopSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // interrupt blocking calls so the stop is seen
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

bool
stopRequested()
{
    return g_stopSignal.load(std::memory_order_relaxed) != 0;
}

int
stopSignal()
{
    return g_stopSignal.load(std::memory_order_relaxed);
}

void
requestStop()
{
    g_stopSignal.store(-1, std::memory_order_relaxed);
}

void
clearStopRequest()
{
    g_stopSignal.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------ watchdog

namespace {

/** Thrown out of the job body when its deadline passes; caught by
 *  the worker loop and converted to a DeadlineExceeded status. */
struct JobDeadlineExceeded
{
};

/**
 * Cooperative watchdog: wraps the job's replay cursor and checks the
 * wall clock every kCheckInterval records. Every simulation job
 * pumps its trace source, so a runaway job is unwound — via ordinary
 * stack unwinding on its own worker thread — at the next record
 * boundary after the deadline. No thread is ever abandoned.
 */
class WatchdogTraceSource : public TraceSource
{
  public:
    WatchdogTraceSource(TraceSource &inner,
                        std::chrono::steady_clock::time_point deadline)
        : inner_(inner), deadline_(deadline)
    {
    }

    bool
    next(DynInst &di) override
    {
        if (++sinceCheck_ >= kCheckInterval) {
            sinceCheck_ = 0;
            if (std::chrono::steady_clock::now() > deadline_)
                throw JobDeadlineExceeded{};
        }
        return inner_.next(di);
    }

    /**
     * Batched pump path: the deadline check keeps the same cadence as
     * next() — at most kCheckInterval records between wall-clock
     * reads — while forwarding the block decode to the real cursor.
     */
    size_t
    nextBlock(DynInst *out, size_t max) override
    {
        sinceCheck_ += max;
        if (sinceCheck_ >= kCheckInterval) {
            sinceCheck_ = 0;
            if (std::chrono::steady_clock::now() > deadline_)
                throw JobDeadlineExceeded{};
        }
        return inner_.nextBlock(out, max);
    }

  private:
    static constexpr uint32_t kCheckInterval = 1024;

    TraceSource &inner_;
    std::chrono::steady_clock::time_point deadline_;
    uint32_t sinceCheck_ = 0;
};

} // namespace

// ------------------------------------------------------- runner

SimJobRunner::SimJobRunner(const RunnerConfig &config)
    : SimJobRunner(config, nullptr, nullptr)
{
}

SimJobRunner::SimJobRunner(const RunnerConfig &config,
                           TraceCache *shared_cache)
    : SimJobRunner(config, shared_cache, nullptr)
{
}

SimJobRunner::SimJobRunner(const RunnerConfig &config,
                           TraceCache *shared_cache,
                           WorkerPool *shared_pool)
    : config_(config),
      workers_(config.workers != 0
                   ? config.workers
                   : std::max(1u, std::thread::hardware_concurrency())),
      ownedCache_(shared_cache != nullptr
                      ? nullptr
                      : std::make_unique<TraceCache>(TraceCacheConfig{
                            config.traceBudgetBytes,
                            config.traceBudgetTraces})),
      cache_(shared_cache != nullptr ? shared_cache : ownedCache_.get()),
      pool_(shared_pool),
      queueLatencyMs_(64, 10),
      statGroup_("driver")
{
    // Process isolation: own a pool when asked for one and none is
    // shared.
    if (shared_pool == nullptr && config.procWorkers > 0) {
        WorkerPoolConfig pc;
        pc.workers = config.procWorkers;
        pc.heartbeatTimeoutMs = config.workerHeartbeatTimeoutMs;
        pc.traceBudgetBytes = config.traceBudgetBytes;
        pc.traceBudgetTraces = config.traceBudgetTraces;
        ownedPool_ = std::make_unique<WorkerPool>(pc);
        ownedPool_->start();
        pool_ = ownedPool_.get();
    }
    statGroup_.registerCounter("sweepsRun", &sweepsRun_);
    statGroup_.registerCounter("jobsCompleted", &jobsCompleted_);
    statGroup_.registerCounter("retries", &retries_);
    statGroup_.registerCounter("quarantined", &jobsQuarantined_);
    statGroup_.registerCounter("journalReplayed", &journalReplayed_);
    statGroup_.registerCounter("journalAppended", &journalAppended_);
    statGroup_.registerCounter("journalTornRecords", &journalTorn_);
    statGroup_.registerCounter("jobMicrosTotal", &jobMicrosTotal_);
    statGroup_.registerCounter("queueMicrosTotal", &queueMicrosTotal_);
    statGroup_.registerCounter("sweepMicrosTotal", &sweepMicrosTotal_);
    statGroup_.registerCounter("worker.fallbackInProcess",
                               &procFallbacks_);
}

SimJobRunner::~SimJobRunner()
{
    if (ownedPool_ != nullptr)
        ownedPool_->stop();
}

uint64_t
SimJobRunner::nowMicros()
{
    using namespace std::chrono;
    return (uint64_t)duration_cast<microseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

Status
SimJobRunner::run(const std::vector<JobSpec> &jobs)
{
    next_.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        quarantined_.clear();
    }
    const uint64_t sweep_start = nowMicros();

    const unsigned n =
        (unsigned)std::min<size_t>(workers_, std::max<size_t>(jobs.size(), 1));
    if (n <= 1) {
        // Serial mode: run inline, no thread spawn — gives clean
        // baseline measurements for speedup comparisons.
        workerLoop(jobs, sweep_start);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            pool.emplace_back(
                [this, &jobs, sweep_start] { workerLoop(jobs, sweep_start); });
        for (auto &t : pool)
            t.join();
    }

    std::lock_guard<std::mutex> lock(statsMu_);
    ++sweepsRun_;
    sweepMicrosTotal_ += nowMicros() - sweep_start;

    if (stopRequested())
        return Status::cancelled(
            "sweep interrupted by signal " +
            std::to_string(stopSignal()) +
            "; completed jobs are journaled (if a journal was given)");
    if (!quarantined_.empty())
        return Status::failedPrecondition(
            std::to_string(quarantined_.size()) +
            " job(s) quarantined after " +
            std::to_string(config_.maxAttempts) + " attempt(s)");
    return Status{};
}

Status
SimJobRunner::runAttempt(const JobSpec &job, size_t index,
                         unsigned attempt)
{
    // Injected harness faults (tests and RARPRED_FAULT): see
    // src/faultinject/driver_faults.hh.
    if (driverFaultFires(DriverFaultPoint::JobKill, index)) {
        // End-to-end crash drill: die the way a OOM-killed or
        // segfaulted worker process dies — no unwinding, no flush.
        std::raise(SIGKILL);
    }

    const bool has_deadline = config_.jobDeadlineMs != 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(has_deadline ? config_.jobDeadlineMs
                                               : 1000);

    try {
        if (driverFaultFires(DriverFaultPoint::JobCrash, index))
            throw std::runtime_error("injected job crash");
        if (driverFaultFires(DriverFaultPoint::JobHang, index)) {
            // Simulated wedge: burn wall clock the way a livelocked
            // job would, until the watchdog deadline unwinds us.
            while (std::chrono::steady_clock::now() < deadline &&
                   !stopRequested())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            throw JobDeadlineExceeded{};
        }

        // Process-isolated route: compute the cell in a sandboxed
        // worker. A pool-level Unavailable (degraded, no binary) does
        // not consume the attempt — it falls through to the identical
        // in-process computation below; any other failure (worker
        // crashed, hung, torn result) feeds retry/quarantine exactly
        // like an in-process failure.
        if (job.procConfig != nullptr && pool_ != nullptr &&
            !pool_->degraded()) {
            rarpred_assert(job.acceptProc != nullptr);
            WorkerJobDesc desc;
            desc.token = index;
            desc.workload = job.workload->abbrev;
            desc.scale = config_.scale;
            desc.maxInsts = config_.maxInsts;
            desc.deadlineMs = config_.jobDeadlineMs;
            desc.config = *job.procConfig;
            Result<CpuStats> r = pool_->runJob(desc);
            if (r.ok())
                return job.acceptProc(*r);
            if (r.status().code() != StatusCode::Unavailable)
                return r.status();
            std::lock_guard<std::mutex> lock(statsMu_);
            ++procFallbacks_;
        }

        std::shared_ptr<const RecordedTrace> trace =
            cache_->get(*job.workload, config_.scale, config_.maxInsts);
        RecordedTraceSource replay(*trace);

        // Retries draw a *fresh* deterministic RNG stream: same job
        // identity, salted by the attempt, so a failure caused by an
        // unlucky randomized path does not repeat verbatim.
        const uint64_t base = jobSeed(job.workload->abbrev, job.configHash);
        Rng rng(attempt == 0
                    ? base
                    : base ^ (0x517cc1b727220a95ull * (attempt + 1)));

        if (has_deadline) {
            WatchdogTraceSource watched(replay, deadline);
            return job.run(watched, rng);
        }
        return job.run(replay, rng);
    } catch (const JobDeadlineExceeded &) {
        return Status::deadlineExceeded(
            "job exceeded its " +
            std::to_string(config_.jobDeadlineMs) + "ms deadline");
    } catch (const std::exception &e) {
        return Status::internal(std::string("job threw: ") + e.what());
    } catch (...) {
        return Status::internal("job threw a non-std exception");
    }
}

void
SimJobRunner::workerLoop(const std::vector<JobSpec> &jobs,
                         uint64_t sweep_start_us)
{
    while (true) {
        if (stopRequested())
            return; // graceful stop: finish nothing new
        const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size())
            return;
        const JobSpec &job = jobs[i];
        rarpred_assert(job.workload != nullptr && job.run != nullptr);

        const uint64_t start = nowMicros();
        Status last;
        unsigned attempt = 0;
        for (; attempt < std::max(1u, config_.maxAttempts); ++attempt) {
            if (attempt > 0) {
                {
                    std::lock_guard<std::mutex> lock(statsMu_);
                    ++retries_;
                }
                if (config_.retryBackoffMs != 0 && !stopRequested()) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(
                        config_.retryBackoffMs << (attempt - 1)));
                }
            }
            last = runAttempt(job, i, attempt);
            if (last.ok())
                break;
            if (stopRequested())
                break; // don't retry into a shutdown
        }
        const uint64_t end = nowMicros();

        std::lock_guard<std::mutex> lock(statsMu_);
        if (last.ok()) {
            ++jobsCompleted_;
        } else {
            ++jobsQuarantined_;
            quarantined_.push_back(JobFailure{
                i, job.workload->abbrev, job.configHash,
                std::min(attempt + 1, std::max(1u, config_.maxAttempts)),
                last});
        }
        jobMicrosTotal_ += end - start;
        queueMicrosTotal_ += start - sweep_start_us;
        queueLatencyMs_.sample((start - sweep_start_us) / 1000);
        jobMicrosMax_ = std::max(jobMicrosMax_, end - start);
    }
}

void
SimJobRunner::dumpFailureTable(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    if (quarantined_.empty())
        return;
    os << "quarantined jobs (" << quarantined_.size() << "):\n";
    os << "  job  workload  config            attempts  error\n";
    char buf[64];
    for (const JobFailure &f : quarantined_) {
        std::snprintf(buf, sizeof(buf), "  %-4zu %-9s %-#18llx %-9u ",
                      f.job, f.workload.c_str(),
                      (unsigned long long)f.configHash, f.attempts);
        os << buf << f.error.toString() << "\n";
    }
}

void
SimJobRunner::noteJournalReplay(uint64_t replayed, uint64_t torn)
{
    std::lock_guard<std::mutex> lock(statsMu_);
    journalReplayed_ += replayed;
    journalTorn_ += torn;
}

void
SimJobRunner::noteJournalAppend()
{
    std::lock_guard<std::mutex> lock(statsMu_);
    ++journalAppended_;
}

void
SimJobRunner::dumpStats(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    statGroup_.dump(os);
    os << "driver.workers " << workers_ << "\n";
    os << "driver.jobMicrosMax " << jobMicrosMax_ << "\n";
    os << "driver.queueLatencyMsMean " << queueLatencyMs_.mean() << "\n";
    const TraceCache::CacheStats cs = cache_->stats();
    os << "driver.traceGenerations " << cs.generations << "\n";
    os << "driver.traceCacheHits " << cs.hits << "\n";
    os << "driver.cacheEvictions " << cs.evictions << "\n";
    os << "driver.cacheRegenerations " << cs.regenerations << "\n";
    os << "driver.traceResidentBytes " << cs.residentBytes << "\n";
    os << "driver.traceResidentTraces " << cs.residentTraces << "\n";
    os << "driver.tracePeakResidentTraces " << cs.peakResidentTraces
       << "\n";
    if (pool_ != nullptr)
        pool_->dumpStats(os);
}

} // namespace rarpred::driver
