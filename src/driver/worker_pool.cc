#include "driver/worker_pool.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/io_util.hh"
#include "common/logging.hh"
#include "faultinject/driver_faults.hh"

namespace rarpred::driver {

namespace {

uint64_t
nowMs()
{
    using namespace std::chrono;
    return (uint64_t)duration_cast<milliseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------ SIGCHLD plumbing
//
// The handler must not reap (waitpid(-1) would steal children the
// host process manages itself — rarpredd under test forks daemons,
// gtest forks helpers). It only pokes each live pool's self-pipe so
// idle-worker housekeeping runs promptly; the authoritative death
// signals are per-pid waitpid and EOF on the job socket. The previous
// SIGCHLD disposition is saved and chained, and restored when the
// last pool stops, so pools compose with any host signal setup.

constexpr int kMaxPools = 8;
std::atomic<int> g_chldWakeFds[kMaxPools] = {};
std::mutex g_chldMu;
struct sigaction g_prevChld = {};
bool g_chldInstalled = false;
int g_chldRegistered = 0;

extern "C" void
workerPoolSigchld(int sig, siginfo_t *info, void *ctx)
{
    const int saved_errno = errno;
    for (std::atomic<int> &afd : g_chldWakeFds) {
        const int fd = afd.load(std::memory_order_relaxed);
        if (fd >= 0) {
            const char byte = 1;
            (void)!::write(fd, &byte, 1);
        }
    }
    if (g_prevChld.sa_flags & SA_SIGINFO) {
        if (g_prevChld.sa_sigaction != nullptr)
            g_prevChld.sa_sigaction(sig, info, ctx);
    } else if (g_prevChld.sa_handler != SIG_DFL &&
               g_prevChld.sa_handler != SIG_IGN &&
               g_prevChld.sa_handler != nullptr) {
        g_prevChld.sa_handler(sig);
    }
    errno = saved_errno;
}

bool
registerChldWakeFd(int fd)
{
    std::lock_guard<std::mutex> lock(g_chldMu);
    if (!g_chldInstalled) {
        for (std::atomic<int> &afd : g_chldWakeFds)
            afd.store(-1, std::memory_order_relaxed);
        struct sigaction sa = {};
        sa.sa_sigaction = workerPoolSigchld;
        sigemptyset(&sa.sa_mask);
        // SA_RESTART: the daemon's accept/recv loops must not see
        // spurious EINTRs from routine worker churn. SA_NOCLDSTOP:
        // only deaths matter, not job-control stops.
        sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_NOCLDSTOP;
        if (::sigaction(SIGCHLD, &sa, &g_prevChld) != 0)
            return false;
        g_chldInstalled = true;
    }
    for (std::atomic<int> &afd : g_chldWakeFds) {
        int expected = -1;
        if (afd.compare_exchange_strong(expected, fd)) {
            ++g_chldRegistered;
            return true;
        }
    }
    return false;
}

void
unregisterChldWakeFd(int fd)
{
    std::lock_guard<std::mutex> lock(g_chldMu);
    for (std::atomic<int> &afd : g_chldWakeFds) {
        int expected = fd;
        if (afd.compare_exchange_strong(expected, -1)) {
            if (--g_chldRegistered == 0 && g_chldInstalled) {
                ::sigaction(SIGCHLD, &g_prevChld, nullptr);
                g_chldInstalled = false;
            }
            return;
        }
    }
}

} // namespace

// ----------------------------------------------------- construction

WorkerPool::WorkerPool(const WorkerPoolConfig &config) : config_(config)
{
    slots_.resize(std::max(1u, config_.workers));
}

WorkerPool::~WorkerPool()
{
    stop();
}

std::string
WorkerPool::resolveWorkerBinary(const std::string &hint)
{
    const auto executable = [](const std::string &p) {
        return !p.empty() && ::access(p.c_str(), X_OK) == 0;
    };
    if (!hint.empty())
        return executable(hint) ? hint : std::string{};
    if (const char *env = std::getenv("RARPRED_WORKER_BIN"))
        return executable(env) ? std::string(env) : std::string{};
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    std::string exe(buf);
    const size_t slash = exe.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : exe.substr(0, slash);
    // Next to the host binary first, then the build tree's driver/
    // output directory (benches live in bench/, the daemon in
    // service/, tests in tests/ — all siblings of driver/).
    const std::string candidates[] = {
        dir + "/rarpred-worker",
        dir + "/../driver/rarpred-worker",
    };
    for (const std::string &c : candidates)
        if (executable(c))
            return c;
    return {};
}

bool
WorkerPool::probeChildReapCapability()
{
    int pipe_fds[2] = {-1, -1};
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
        return false;
    for (const int fd : pipe_fds)
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
    if (!registerChldWakeFd(pipe_fds[1])) {
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        return false;
    }
    bool ok = false;
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(0);
    if (pid > 0) {
        // The guarantee under probe: the child's death wakes the
        // self-pipe within a bounded wait, *and* the by-pid reap then
        // succeeds. Kernels (or exotic pid-namespace setups) that
        // break either leg would turn the chaos battery's timing
        // assumptions into flakes.
        const uint64_t deadline = nowMs() + 2000;
        for (;;) {
            const uint64_t now = nowMs();
            if (now >= deadline)
                break;
            pollfd pfd{pipe_fds[0], POLLIN, 0};
            const int rc = ::poll(&pfd, 1, (int)(deadline - now));
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0)
                break;
            char byte;
            if (::read(pipe_fds[0], &byte, 1) == 1) {
                ok = true;
                break;
            }
        }
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(pid, &status, 0);
        } while (r < 0 && errno == EINTR);
        ok = ok && r == pid;
    }
    unregisterChldWakeFd(pipe_fds[1]);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return ok;
}

Status
WorkerPool::start()
{
    if (started_)
        return Status{};
    started_ = true;
    workerBin_ = resolveWorkerBinary(config_.workerBin);
    if (workerBin_.empty()) {
        // No binary, no isolation — but the sweep must still run.
        // Degrade so every runJob() reports Unavailable and callers
        // fall back to in-process execution.
        degraded_.store(true, std::memory_order_relaxed);
        return Status{};
    }
    if (::pipe2(chldPipe_, O_CLOEXEC) == 0) {
        for (const int fd : chldPipe_)
            ::fcntl(fd, F_SETFL, O_NONBLOCK);
        if (!registerChldWakeFd(chldPipe_[1])) {
            // Too many pools for the handler registry: idle-death
            // housekeeping falls back to checkout-time WNOHANG
            // polling, which is correct, just less prompt.
            ::close(chldPipe_[0]);
            ::close(chldPipe_[1]);
            chldPipe_[0] = chldPipe_[1] = -1;
        }
    } else {
        chldPipe_[0] = chldPipe_[1] = -1;
    }
    return Status{};
}

void
WorkerPool::stop()
{
    if (stopped_.exchange(true))
        return;
    std::unique_lock<std::mutex> lock(mu_);
    slotCv_.notify_all();
    // In-flight jobs observe worker EOF or finish normally; wait for
    // their threads to check the slots back in before reaping.
    slotCv_.wait(lock, [this] {
        for (const Slot &s : slots_)
            if (s.busy)
                return false;
        return true;
    });
    for (Slot &s : slots_) {
        if (s.pid > 0) {
            ::kill(s.pid, SIGKILL);
            int status = 0;
            while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
            }
            ++counters_.reaped;
            s.pid = -1;
        }
        if (s.fd >= 0) {
            ::close(s.fd);
            s.fd = -1;
        }
    }
    lock.unlock();
    if (chldPipe_[1] >= 0)
        unregisterChldWakeFd(chldPipe_[1]);
    for (int &fd : chldPipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

// --------------------------------------------------- slot lifecycle

WorkerPool::Slot *
WorkerPool::checkout()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (stopped_.load(std::memory_order_relaxed) ||
            degraded_.load(std::memory_order_relaxed))
            return nullptr;
        for (Slot &s : slots_) {
            if (!s.busy) {
                s.busy = true;
                return &s;
            }
        }
        slotCv_.wait(lock);
    }
}

void
WorkerPool::checkin(Slot *slot)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        slot->busy = false;
    }
    slotCv_.notify_all();
}

void
WorkerPool::sweepDeadWorkers()
{
    if (chldPipe_[0] >= 0) {
        char drain[64];
        while (::read(chldPipe_[0], drain, sizeof(drain)) > 0) {
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot &s : slots_) {
        if (s.busy || s.pid <= 0)
            continue;
        int status = 0;
        const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
        if (r != s.pid)
            continue; // still alive (or EINTR: next sweep gets it)
        ++counters_.reaped;
        s.pid = -1;
        if (s.fd >= 0) {
            ::close(s.fd);
            s.fd = -1;
        }
        noteRestartLocked();
    }
}

void
WorkerPool::noteRestartLocked()
{
    const uint64_t now = nowMs();
    restartTimesMs_.push_back(now);
    while (!restartTimesMs_.empty() &&
           now - restartTimesMs_.front() > config_.flapWindowMs)
        restartTimesMs_.pop_front();
    if ((unsigned)restartTimesMs_.size() > config_.flapRestartBudget) {
        // Flapping: workers keep dying faster than the window allows.
        // Degrade for good — an oscillating pool would burn every
        // job's retry budget on doomed dispatches.
        degraded_.store(true, std::memory_order_relaxed);
        slotCv_.notify_all();
    }
}

void
WorkerPool::retireSlot(Slot *slot, bool kill)
{
    if (slot->pid > 0) {
        if (kill)
            ::kill(slot->pid, SIGKILL);
        int status = 0;
        while (::waitpid(slot->pid, &status, 0) < 0 && errno == EINTR) {
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.reaped;
        noteRestartLocked();
    }
    if (slot->fd >= 0) {
        ::close(slot->fd);
        slot->fd = -1;
    }
    slot->pid = -1;
}

Status
WorkerPool::ensureAlive(Slot *slot)
{
    if (slot->pid > 0) {
        // The worker may have died idle (OOM killer, operator kill).
        int status = 0;
        const pid_t r = ::waitpid(slot->pid, &status, WNOHANG);
        if (r != slot->pid)
            return Status{}; // alive
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.reaped;
        noteRestartLocked();
        if (slot->fd >= 0) {
            ::close(slot->fd);
            slot->fd = -1;
        }
        slot->pid = -1;
    }

    for (;;) {
        if (stopped_.load(std::memory_order_relaxed) ||
            degraded_.load(std::memory_order_relaxed))
            return Status::unavailable("worker pool degraded");

        uint64_t backoff_ms = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (consecutiveSpawnFailures_ > 0)
                backoff_ms = std::min(
                    config_.spawnBackoffCapMs,
                    config_.spawnBackoffMs
                        << (consecutiveSpawnFailures_ - 1));
        }
        if (backoff_ms != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));

        const Status spawned = spawnWorker(slot);
        std::lock_guard<std::mutex> lock(mu_);
        if (spawned.ok()) {
            consecutiveSpawnFailures_ = 0;
            ++counters_.spawned;
            if (slot->generation > 1)
                ++counters_.restarts;
            return Status{};
        }
        ++counters_.spawnFailures;
        if (++consecutiveSpawnFailures_ >=
            config_.maxConsecutiveSpawnFailures) {
            degraded_.store(true, std::memory_order_relaxed);
            slotCv_.notify_all();
            return Status::unavailable(
                "worker pool degraded after " +
                std::to_string(consecutiveSpawnFailures_) +
                " consecutive spawn failures: " + spawned.message());
        }
    }
}

Status
WorkerPool::spawnWorker(Slot *slot)
{
    rarpred_assert(slot->pid <= 0);
    if (workerBin_.empty())
        return Status::unavailable("no worker binary");

    // Chaos drill: a flapping worker exits before its hello. The
    // order travels on the argv because the worker's own fault table
    // is unarmed — injection is owned by the supervisor.
    const bool flap =
        driverFaultFires(DriverFaultPoint::WorkerFlap, spawnSeq_++);

    // Both ends close-on-exec: a worker forked concurrently on another
    // slot must not inherit this pair, or the parent's end never reads
    // EOF when this slot's worker dies. The child's fd 3 is the one
    // deliberate exception, cleared below.
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        return Status::ioError(std::string("socketpair: ") +
                               std::strerror(errno));

    // argv is fully materialized before fork(): the child of a
    // multithreaded parent may only make async-signal-safe calls.
    std::vector<std::string> args = {workerBin_, "--fd=3"};
    if (config_.traceBudgetBytes != 0)
        args.push_back("--trace-budget-bytes=" +
                       std::to_string(config_.traceBudgetBytes));
    if (config_.traceBudgetTraces != 0)
        args.push_back("--trace-budget=" +
                       std::to_string(config_.traceBudgetTraces));
    if (flap)
        args.push_back("--fault=flap");
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        return Status::ioError(std::string("fork: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
        // Child: dup2/fcntl/execv/_exit only (async-signal-safe).
        // dup2 leaves fd 3 without FD_CLOEXEC; an sv[1] that already
        // is fd 3 needs the flag cleared by hand.
        ::close(sv[0]);
        if (sv[1] != 3) {
            ::dup2(sv[1], 3);
            ::close(sv[1]);
        } else {
            ::fcntl(3, F_SETFD, 0);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(sv[1]);

    // Handshake: the worker announces itself before the slot goes
    // live. A flapping or exec-failed child shows up here as EOF.
    slot->pid = pid;
    slot->fd = sv[0];
    slot->decoder = service::FrameDecoder{};
    const uint64_t deadline = nowMs() + config_.helloTimeoutMs;
    for (;;) {
        const uint64_t now = nowMs();
        if (now >= deadline) {
            retireSlot(slot, true);
            return Status::deadlineExceeded(
                "worker sent no hello within " +
                std::to_string(config_.helloTimeoutMs) + "ms");
        }
        pollfd pfd{slot->fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, (int)(deadline - now));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            retireSlot(slot, true);
            return Status::ioError(std::string("poll: ") +
                                   std::strerror(errno));
        }
        if (rc == 0)
            continue;
        uint8_t buf[512];
        auto got = recvChunk(slot->fd, buf, sizeof(buf));
        if (!got.ok() || *got == 0) {
            retireSlot(slot, true);
            return Status::internal("worker exited before hello");
        }
        (void)slot->decoder.feed(buf, *got);
        service::Frame frame;
        bool have = false;
        const Status ds = slot->decoder.next(&frame, &have);
        if (!ds.ok()) {
            retireSlot(slot, true);
            return ds;
        }
        if (!have)
            continue;
        if (frame.type != service::FrameType::WorkerHello) {
            retireSlot(slot, true);
            return Status::corruption(
                std::string("expected worker-hello, got '") +
                service::frameTypeName(frame.type) + "'");
        }
        auto hello = service::WorkerHelloMsg::decode(frame.payload);
        if (!hello.ok()) {
            retireSlot(slot, true);
            return hello.status();
        }
        if (hello->protoVersion != service::kWorkerProtoVersion) {
            retireSlot(slot, true);
            return Status::failedPrecondition(
                "worker speaks protocol v" +
                std::to_string(hello->protoVersion) + ", expected v" +
                std::to_string(service::kWorkerProtoVersion));
        }
        ++slot->generation;
        return Status{};
    }
}

// ------------------------------------------------------- job runs

Result<CpuStats>
WorkerPool::runJob(const WorkerJobDesc &job)
{
    if (!started_ || stopped_.load(std::memory_order_relaxed))
        return Status::unavailable("worker pool is not running");
    sweepDeadWorkers();
    Slot *slot = checkout();
    if (slot == nullptr)
        return Status::unavailable("worker pool degraded");
    const Status alive = ensureAlive(slot);
    if (!alive.ok()) {
        checkin(slot);
        return alive; // Unavailable: caller falls back in-process
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.jobsDispatched;
    }
    CpuStats stats{};
    const Status ran = dispatch(slot, job, &stats);
    checkin(slot);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (ran.ok())
            ++counters_.jobsCompleted;
        else
            ++counters_.jobsFailed;
    }
    if (!ran.ok())
        return ran;
    return stats;
}

Status
WorkerPool::dispatch(Slot *slot, const WorkerJobDesc &job,
                     CpuStats *out)
{
    service::JobRequestMsg req;
    req.token = job.token;
    req.workload = job.workload;
    req.scale = job.scale;
    req.maxInsts = job.maxInsts;
    req.deadlineMs = job.deadlineMs;
    req.config = job.config;
    // Chaos orders ride in the request; the parent consumes the
    // firing so a one-shot fault means one failed attempt even when
    // the retry lands on a different worker.
    if (driverFaultFires(DriverFaultPoint::WorkerCrash, job.token))
        req.fault = (uint8_t)service::WorkerFault::Crash;
    else if (driverFaultFires(DriverFaultPoint::WorkerHang, job.token))
        req.fault = (uint8_t)service::WorkerFault::Hang;
    else if (driverFaultFires(DriverFaultPoint::WorkerResultTorn,
                              job.token))
        req.fault = (uint8_t)service::WorkerFault::TornResult;
    else if (driverFaultFires(DriverFaultPoint::WorkerResultDup,
                              job.token))
        req.fault = (uint8_t)service::WorkerFault::DupResult;

    const std::vector<uint8_t> frame_bytes = service::encodeFrame(
        service::FrameType::JobRequest, req.encode());
    const Status sent =
        sendFull(slot->fd, frame_bytes.data(), frame_bytes.size());
    if (!sent.ok()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.crashes;
        }
        retireSlot(slot, true);
        return Status::internal("worker rejected the job dispatch: " +
                                sent.message());
    }

    uint64_t last_signal_ms = nowMs();
    for (;;) {
        const uint64_t now = nowMs();
        const uint64_t silence = now - last_signal_ms;
        if (silence >= config_.heartbeatTimeoutMs) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.hangKills;
            }
            retireSlot(slot, true);
            return Status::deadlineExceeded(
                "worker went silent for " + std::to_string(silence) +
                "ms (heartbeat deadline " +
                std::to_string(config_.heartbeatTimeoutMs) +
                "ms); killed");
        }
        pollfd pfd{slot->fd, POLLIN, 0};
        const int rc = ::poll(
            &pfd, 1, (int)(config_.heartbeatTimeoutMs - silence));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            retireSlot(slot, true);
            return Status::ioError(std::string("poll: ") +
                                   std::strerror(errno));
        }
        if (rc == 0)
            continue; // silence re-checked at the top
        uint8_t buf[4096];
        auto got = recvChunk(slot->fd, buf, sizeof(buf));
        if (!got.ok()) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.crashes;
            }
            retireSlot(slot, true);
            return Status::internal("worker socket failed mid-job: " +
                                    got.status().message());
        }
        if (*got == 0) {
            // EOF: the worker died mid-job (crash, SIGKILL, OOM).
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.crashes;
            }
            retireSlot(slot, false);
            return Status::internal(
                "worker process died mid-job (socket EOF)");
        }
        (void)slot->decoder.feed(buf, *got);
        for (;;) {
            service::Frame frame;
            bool have = false;
            const Status ds = slot->decoder.next(&frame, &have);
            if (!ds.ok()) {
                // CRC/framing failure: a torn result must never be
                // merged; the stream cannot be trusted past it.
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++counters_.tornResults;
                }
                retireSlot(slot, true);
                return Status::corruption(
                    "worker result stream corrupt: " + ds.message());
            }
            if (!have)
                break;
            last_signal_ms = nowMs();
            if (frame.type == service::FrameType::WorkerHeartbeat) {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.heartbeats;
                continue;
            }
            if (frame.type != service::FrameType::JobResult) {
                retireSlot(slot, true);
                return Status::corruption(
                    std::string("unexpected frame '") +
                    service::frameTypeName(frame.type) +
                    "' while awaiting a job result");
            }
            auto result = service::JobResultMsg::decode(frame.payload);
            if (!result.ok()) {
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++counters_.tornResults;
                }
                retireSlot(slot, true);
                return result.status();
            }
            if (result->token != job.token) {
                // A stale result: a duplicate or reordered frame from
                // an earlier job on this slot (e.g. a dup flushed
                // after its job already completed). It decoded clean,
                // so the stream itself is healthy — drop the frame
                // and keep waiting for *this* job's result. Matching
                // it to the current cell would corrupt the sweep.
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.staleResults;
                continue;
            }
            if (result->errorCode != 0) {
                // A clean failure (unknown workload, worker-side
                // deadline): the worker is healthy, keep it.
                return result->error();
            }
            *out = result->stats;
            return Status{};
        }
    }
}

// ------------------------------------------------------------ stats

WorkerPoolStats
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    WorkerPoolStats s = counters_;
    s.degraded = degraded_.load(std::memory_order_relaxed);
    return s;
}

void
WorkerPool::dumpStats(std::ostream &os) const
{
    const WorkerPoolStats s = stats();
    os << "driver.worker.spawned " << s.spawned << "\n";
    os << "driver.worker.reaped " << s.reaped << "\n";
    os << "driver.worker.restarts " << s.restarts << "\n";
    os << "driver.worker.spawnFailures " << s.spawnFailures << "\n";
    os << "driver.worker.crashes " << s.crashes << "\n";
    os << "driver.worker.hangKills " << s.hangKills << "\n";
    os << "driver.worker.tornResults " << s.tornResults << "\n";
    os << "driver.worker.staleResults " << s.staleResults << "\n";
    os << "driver.worker.jobsDispatched " << s.jobsDispatched << "\n";
    os << "driver.worker.jobsCompleted " << s.jobsCompleted << "\n";
    os << "driver.worker.jobsFailed " << s.jobsFailed << "\n";
    os << "driver.worker.heartbeats " << s.heartbeats << "\n";
    os << "driver.worker.degraded " << (s.degraded ? 1 : 0) << "\n";
}

} // namespace rarpred::driver
