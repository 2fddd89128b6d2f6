#include "service/daemon.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <limits>

#include "common/io_util.hh"
#include "driver/sim_job_runner.hh"
#include "driver/stats_merger.hh"
#include "driver/sweep.hh"
#include "driver/worker_pool.hh"
#include "faultinject/driver_faults.hh"

namespace rarpred::service {

namespace {

Status
sendFrame(int fd, FrameType type, const std::vector<uint8_t> &payload)
{
    // Refuse gracefully instead of tripping encodeFrame's bound
    // assert: an oversized reply must cost one connection, never the
    // daemon. Message-level field bounds (proto.cc writeString) make
    // this unreachable today; it is the backstop.
    if (payload.size() > kMaxFramePayload)
        return Status::internal(
            "reply payload of " + std::to_string(payload.size()) +
            " bytes exceeds the frame bound");
    const std::vector<uint8_t> bytes = encodeFrame(type, payload);
    // sendFull is MSG_NOSIGNAL + EINTR-safe (common/io_util.hh); with
    // the process-wide SIGPIPE ignore in serve() a disconnected peer
    // is a recoverable error, never a process kill.
    return sendFull(fd, bytes.data(), bytes.size());
}

void
sendErrorReply(int fd, const Status &error)
{
    ErrorReplyMsg msg;
    msg.code = (uint8_t)error.code();
    msg.message = error.message();
    // Best effort: the client may already be gone.
    (void)sendFrame(fd, FrameType::ErrorReply, msg.encode());
}

uint64_t
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return (uint64_t)std::chrono::duration_cast<
               std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

ServiceCounterSnapshot
ServiceCounters::snapshot() const
{
    ServiceCounterSnapshot s;
    s.requests = requests.load();
    s.admitted = admitted.load();
    s.shed = shed.load();
    s.deadlineExceeded = deadlineExceeded.load();
    s.breakerOpen = breakerOpen.load();
    s.storeHit = storeHit.load();
    s.storeMiss = storeMiss.load();
    s.storeCorrupt = storeCorrupt.load();
    s.storeWrites = storeWrites.load();
    s.cellsSimulated = cellsSimulated.load();
    s.cellsFailed = cellsFailed.load();
    s.rowsStreamed = rowsStreamed.load();
    s.connDropped = connDropped.load();
    s.protoErrors = protoErrors.load();
    return s;
}

SweepDaemon::SweepDaemon(const DaemonConfig &config)
    : config_(config), store_(config.storeDir),
      breaker_(config.breaker)
{
    driver::TraceCacheConfig cache;
    cache.maxResidentBytes = config.traceBudgetBytes;
    cache.maxResidentTraces = config.traceBudgetTraces;
    traceCache_ = std::make_unique<driver::TraceCache>(cache);
}

SweepDaemon::~SweepDaemon()
{
    stop();
}

Status
SweepDaemon::serve()
{
    if (config_.socketPath.empty() || config_.storeDir.empty())
        return Status::invalidArgument(
            "the daemon needs a socket path and a store directory");
    if (config_.socketPath.size() >= sizeof(sockaddr_un{}.sun_path))
        return Status::invalidArgument("socket path too long");

    // A client that disconnects mid-stream must surface as a write
    // error, not kill the daemon.
    ::signal(SIGPIPE, SIG_IGN);

    RARPRED_RETURN_IF_ERROR(store_.init());

    // --isolate-jobs: bring the worker-process pool up before any
    // request can arrive. start() never fails hard — an unresolvable
    // worker binary or flapping spawns degrade the pool and cells run
    // in-process (byte-identical), so the daemon always comes up.
    if (config_.isolateJobs) {
        driver::WorkerPoolConfig wp;
        wp.workers = config_.workers != 0
                         ? config_.workers
                         : std::max(
                               1u, std::thread::hardware_concurrency());
        wp.heartbeatTimeoutMs = config_.workerHeartbeatTimeoutMs;
        wp.traceBudgetBytes = config_.traceBudgetBytes;
        wp.traceBudgetTraces = config_.traceBudgetTraces;
        workerPool_ = std::make_unique<driver::WorkerPool>(wp);
        RARPRED_RETURN_IF_ERROR(workerPool_->start());
    }

    // Every fd the daemon creates is close-on-exec: --isolate-jobs
    // forks worker processes, which must inherit only their own job
    // socket (driver/worker_pool.cc).
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return Status::ioError(std::string("socket: ") +
                               std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A stale socket from a killed daemon would make bind fail; the
    // path is ours by contract, so reclaim it.
    ::unlink(config_.socketPath.c_str());
    if (::bind(listenFd_, (const sockaddr *)&addr, sizeof(addr)) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return Status::ioError("bind '" + config_.socketPath +
                               "': " + std::strerror(errno));
    }
    if (::listen(listenFd_, 64) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return Status::ioError(std::string("listen: ") +
                               std::strerror(errno));
    }
    if (::pipe2(wakePipe_, O_CLOEXEC) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return Status::ioError(std::string("pipe: ") +
                               std::strerror(errno));
    }

    acceptThread_ = std::thread([this] { acceptLoop(); });
    executorThread_ = std::thread([this] { executorLoop(); });
    return Status{};
}

void
SweepDaemon::requestDrain()
{
    if (draining_.exchange(true))
        return;
    // Wake the accept poll and the executor wait; both observe
    // draining_ and wind down.
    if (wakePipe_[1] >= 0) {
        const char byte = 1;
        (void)!::write(wakePipe_[1], &byte, 1);
    }
    queueCv_.notify_all();
}

void
SweepDaemon::awaitShutdown()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (executorThread_.joinable())
        executorThread_.join();
    std::map<uint64_t, std::thread> handlers;
    {
        std::lock_guard<std::mutex> lock(handlersMu_);
        handlers.swap(handlers_);
        finishedHandlers_.clear();
    }
    for (auto &[index, thread] : handlers)
        thread.join();
    // No sweep can be running now (executor and handlers joined):
    // stop the pool last so in-flight jobs finished first. stop()
    // reaps every worker pid — a drained daemon leaves no zombies.
    if (workerPool_)
        workerPool_->stop();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(config_.socketPath.c_str());
    }
    for (int &fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

void
SweepDaemon::stop()
{
    requestDrain();
    awaitShutdown();
}

// ------------------------------------------------------- admission

void
SweepDaemon::acceptLoop()
{
    while (!draining_.load()) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (draining_.load())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        const uint64_t index = connIndex_.fetch_add(1);
        std::lock_guard<std::mutex> lock(handlersMu_);
        reapFinishedHandlersLocked();
        if (handlers_.size() >= config_.maxConnections) {
            // Connection cap: a flood must not grow one thread per
            // socket. Refuse up front; the client can retry.
            counters_.shed.fetch_add(1);
            sendErrorReply(fd, Status::resourceExhausted(
                                   "too many concurrent "
                                   "connections; retry later"));
            ::close(fd);
            continue;
        }
        handlers_.emplace(index, std::thread([this, fd, index] {
                              handleConnection(fd, index);
                              std::lock_guard<std::mutex> guard(
                                  handlersMu_);
                              finishedHandlers_.push_back(index);
                          }));
    }
}

void
SweepDaemon::reapFinishedHandlersLocked()
{
    for (const uint64_t index : finishedHandlers_) {
        auto it = handlers_.find(index);
        if (it == handlers_.end())
            continue;
        // The handler pushed its index as its last act before
        // returning, so this join completes promptly.
        it->second.join();
        handlers_.erase(it);
    }
    finishedHandlers_.clear();
}

void
SweepDaemon::handleConnection(int fd, uint64_t conn_index)
{
    counters_.requests.fetch_add(1);

    // Read until one complete request frame arrives (or the stream
    // proves torn/corrupt). The decoder never trusts a length it has
    // not CRC-verified the frame for, so a malicious client can cost
    // us at most kMaxFramePayload bytes of buffering.
    FrameDecoder decoder;
    Frame frame;
    bool have = false;
    bool torn = false;
    // The timeout is an *absolute* deadline from accept: a client
    // trickling one byte per poll interval (slowloris) cannot hold
    // this handler open past requestTimeoutMs.
    const auto read_start = std::chrono::steady_clock::now();
    while (!have && !torn) {
        const uint64_t waited = elapsedMs(read_start);
        if (waited >= config_.requestTimeoutMs) {
            torn = true;
            break;
        }
        const uint64_t remaining = config_.requestTimeoutMs - waited;
        pollfd pfd{fd, POLLIN, 0};
        const int rc = ::poll(
            &pfd, 1,
            remaining > (uint64_t)std::numeric_limits<int>::max()
                ? std::numeric_limits<int>::max()
                : (int)remaining);
        if (rc < 0) {
            // A signal — e.g. SIGCHLD from the worker pool reaping a
            // crashed simulation process — interrupts poll without
            // SA_RESTART protection. That is not a torn request;
            // re-poll against the same absolute deadline.
            if (errno == EINTR)
                continue;
            torn = true; // poll failure: give up
            break;
        }
        if (rc == 0) {
            torn = true; // timeout: give up
            break;
        }
        uint8_t buf[4096];
        auto n = recvChunk(fd, buf, sizeof(buf));
        if (!n.ok() || *n == 0) {
            torn = true; // client died mid-send
            break;
        }
        size_t got = *n;
        if (driverFaultFires(DriverFaultPoint::RequestTorn,
                             conn_index)) {
            // Crash drill: behave as if the client died after this
            // (shortened) chunk — the decoder must hold a partial
            // frame and the daemon must answer with a recoverable
            // error, not hang or crash.
            if (got > 1)
                --got;
            (void)decoder.feed(buf, got);
            torn = true;
            break;
        }
        (void)decoder.feed(buf, got);
        const Status s = decoder.next(&frame, &have);
        if (!s.ok()) {
            counters_.protoErrors.fetch_add(1);
            sendErrorReply(fd, s);
            ::close(fd);
            return;
        }
    }
    if (!have) {
        counters_.protoErrors.fetch_add(1);
        sendErrorReply(fd, Status::corruption(
                               "torn request: connection ended "
                               "before a complete frame"));
        ::close(fd);
        return;
    }

    if (frame.type == FrameType::StatusRequest) {
        StatusReplyMsg reply;
        reply.ready = !draining_.load();
        reply.draining = draining_.load();
        {
            std::lock_guard<std::mutex> lock(queueMu_);
            reply.queueDepth = queuedTotal_;
            reply.activeSweeps = activeSweeps_;
        }
        reply.counters = counters_.snapshot();
        (void)sendFrame(fd, FrameType::StatusReply, reply.encode());
        ::close(fd);
        return;
    }
    if (frame.type != FrameType::SweepRequest) {
        counters_.protoErrors.fetch_add(1);
        sendErrorReply(fd, Status::invalidArgument(
                               std::string("unexpected frame '") +
                               frameTypeName(frame.type) + "'"));
        ::close(fd);
        return;
    }

    auto decoded = SweepRequestMsg::decode(frame.payload);
    if (!decoded.ok()) {
        counters_.protoErrors.fetch_add(1);
        sendErrorReply(fd, decoded.status());
        ::close(fd);
        return;
    }

    // Admission control: bounded queues, explicit shedding.
    {
        std::lock_guard<std::mutex> lock(queueMu_);
        if (draining_.load()) {
            counters_.shed.fetch_add(1);
            sendErrorReply(fd, Status::unavailable(
                                   "daemon is draining"));
            ::close(fd);
            return;
        }
        // Tenant names are client-controlled: look up without
        // inserting, so a shed request cannot grow the map.
        const auto qit = queues_.find(decoded->tenant);
        const size_t tenant_depth =
            qit == queues_.end() ? 0 : qit->second.size();
        if (queuedTotal_ >= config_.maxQueue ||
            tenant_depth >= config_.maxQueuePerTenant) {
            counters_.shed.fetch_add(1);
            sendErrorReply(
                fd, Status::resourceExhausted(
                        "sweep queue full (" +
                        std::to_string(queuedTotal_) + " queued, " +
                        std::to_string(tenant_depth) +
                        " for tenant '" + decoded->tenant +
                        "'); retry later"));
            ::close(fd);
            return;
        }
        queues_[decoded->tenant].push_back(
            Pending{std::move(*decoded), fd,
                    std::chrono::steady_clock::now()});
        ++queuedTotal_;
        counters_.admitted.fetch_add(1);
    }
    queueCv_.notify_one();
    // fd ownership moved into the queue; the executor replies.
}

// ------------------------------------------------------ scheduling

bool
SweepDaemon::dequeue(Pending *out)
{
    std::unique_lock<std::mutex> lock(queueMu_);
    queueCv_.wait(lock, [this] {
        return queuedTotal_ > 0 || draining_.load();
    });
    if (queuedTotal_ == 0)
        return false; // draining and empty: executor exits

    // Fair round-robin: resume from the tenant after the last one
    // served, so a tenant with a deep queue cannot starve the rest.
    auto it = queues_.upper_bound(rrNext_);
    for (size_t scanned = 0; scanned <= queues_.size(); ++scanned) {
        if (it == queues_.end())
            it = queues_.begin();
        if (!it->second.empty())
            break;
        ++it;
    }
    rarpred_assert(!it->second.empty());
    rrNext_ = it->first;
    *out = std::move(it->second.front());
    it->second.pop_front();
    // Tenant names are client-controlled; dropping a drained queue
    // keeps the map bounded by the admission cap, not by how many
    // distinct names the daemon ever saw. upper_bound(rrNext_) is
    // happy with an absent key, so round-robin order survives.
    if (it->second.empty())
        queues_.erase(it);
    --queuedTotal_;
    ++activeSweeps_;
    return true;
}

void
SweepDaemon::executorLoop()
{
    Pending p;
    while (dequeue(&p)) {
        runSweepRequest(std::move(p));
        std::lock_guard<std::mutex> lock(queueMu_);
        --activeSweeps_;
    }
}

// ------------------------------------------------------------- run

void
SweepDaemon::runSweepRequest(Pending &&p)
{
    const SweepRequestMsg &req = p.request;
    const size_t num_configs = req.configs.size();
    const size_t n = req.numCells();

    // Resolve every workload up front: an unknown name fails the
    // whole request (there is no partial grid).
    std::vector<const Workload *> workloads;
    for (const std::string &abbrev : req.workloads) {
        auto w = lookupWorkload(abbrev);
        if (!w.ok()) {
            sendErrorReply(p.fd, w.status());
            ::close(p.fd);
            return;
        }
        workloads.push_back(*w);
    }

    // Deadline, measured from admission. Queue time counts: a
    // request that waited its whole budget out is refused before any
    // simulation work is sunk into it.
    const uint64_t deadline_ms = req.deadlineMs != 0
                                     ? req.deadlineMs
                                     : config_.defaultDeadlineMs;
    uint64_t remaining_ms = 0;
    if (deadline_ms != 0) {
        const uint64_t waited = elapsedMs(p.admitted);
        if (waited >= deadline_ms) {
            counters_.deadlineExceeded.fetch_add(1);
            sendErrorReply(p.fd,
                           Status::deadlineExceeded(
                               "deadline of " +
                               std::to_string(deadline_ms) +
                               "ms elapsed while queued"));
            ::close(p.fd);
            return;
        }
        remaining_ms = deadline_ms - waited;
    }

    // Cell plan: store hit, breaker refusal, or simulate.
    std::vector<uint64_t> fingerprints(n);
    std::vector<RowMsg> rows(n);
    std::vector<size_t> to_run; // cell indices needing simulation
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        for (size_t ci = 0; ci < num_configs; ++ci) {
            const size_t cell = wi * num_configs + ci;
            const uint64_t fp = cellFingerprint(
                req.workloads[wi], req.configs[ci], req.scale,
                req.maxInsts);
            fingerprints[cell] = fp;
            rows[cell].cell = cell;

            auto stored = store_.get(fp);
            if (stored.ok()) {
                counters_.storeHit.fetch_add(1);
                rows[cell].fromStore = 1;
                rows[cell].stats = *stored;
                continue;
            }
            if (stored.status().code() == StatusCode::Corruption) {
                // The entry was quarantined; re-simulate and
                // overwrite. Corruption costs work, never answers.
                counters_.storeCorrupt.fetch_add(1);
            } else {
                counters_.storeMiss.fetch_add(1);
            }
            const Status gate = breaker_.allow(fp);
            if (!gate.ok()) {
                counters_.breakerOpen.fetch_add(1);
                rows[cell].errorCode = (uint8_t)gate.code();
                rows[cell].errorMsg = gate.message();
                continue;
            }
            to_run.push_back(cell);
        }
    }

    // Simulate the missing cells on a per-request runner over the
    // shared warm trace cache. Per-request knobs: the remaining
    // deadline becomes the per-job cooperative watchdog.
    if (!to_run.empty()) {
        driver::RunnerConfig rc;
        rc.workers = config_.workers;
        rc.scale = req.scale;
        rc.maxInsts = req.maxInsts;
        rc.maxAttempts = config_.maxAttempts;
        rc.retryBackoffMs = config_.retryBackoffMs;
        rc.jobDeadlineMs = remaining_ms;
        // The shared worker pool (--isolate-jobs; may be null) keeps
        // a crashing cell from taking the daemon — and every queued
        // tenant — down with it.
        driver::SimJobRunner runner(rc, traceCache_.get(),
                                    workerPool_.get());

        std::vector<driver::JobSpec> jobs;
        jobs.reserve(to_run.size());
        for (const size_t cell : to_run) {
            const Workload *w = workloads[cell / num_configs];
            const CellConfigMsg &cfg =
                req.configs[cell % num_configs];
            const uint64_t fp = fingerprints[cell];
            RowMsg *row = &rows[cell];
            // One commit path for both execution routes, so a cell
            // computed in a worker process lands byte-identically to
            // one computed in-process. Persist *inside* the job: a
            // kill -9 between cells loses only work in flight, and
            // the write is atomic (temp+fsync+rename).
            auto commit = [this, fp,
                           row](const CpuStats &stats) -> Status {
                row->stats = stats;
                Status put;
                {
                    std::lock_guard<std::mutex> lock(storeMu_);
                    put = store_.put(fp, row->stats);
                }
                if (put.ok()) {
                    counters_.storeWrites.fetch_add(1);
                } else if (put.code() != StatusCode::Unavailable) {
                    return put;
                }
                // Unavailable = disk exhaustion (ENOSPC/quota/fsync):
                // caching is an optimization, not a prerequisite. The
                // computed row is still correct and still served —
                // the cell just is not persisted, so a restart will
                // re-simulate it.
                counters_.cellsSimulated.fetch_add(1);
                breaker_.onSuccess(fp);
                return Status{};
            };
            driver::JobSpec job;
            job.workload = w;
            job.configHash = fp;
            job.run = [&cfg, commit](TraceSource &trace,
                                     Rng &) -> Status {
                return commit(driver::simulateCell(cfg, trace));
            };
            job.procConfig = &cfg;
            job.acceptProc = commit;
            jobs.push_back(std::move(job));
        }
        (void)runner.run(jobs);
        for (const driver::JobFailure &f : runner.quarantined()) {
            const size_t cell = to_run[f.job];
            counters_.cellsFailed.fetch_add(1);
            if (f.error.code() == StatusCode::DeadlineExceeded)
                counters_.deadlineExceeded.fetch_add(1);
            breaker_.onFailure(fingerprints[cell], f.error);
            rows[cell].errorCode = (uint8_t)f.error.code();
            rows[cell].errorMsg = f.error.message();
        }
    }

    // Reply: rows in cell order, then the SweepDone summary. The
    // errors JSON is the same shape finishSweep() emits, built by
    // the same StatsMerger code.
    driver::StatsMerger merger(n);
    SweepDoneMsg done;
    done.cells = n;
    for (size_t cell = 0; cell < n; ++cell) {
        merger.setRowKey(cell,
                         req.workloads[cell / num_configs] + "/cfg" +
                             std::to_string(cell % num_configs));
        if (rows[cell].errorCode != 0) {
            ++done.errors;
            merger.setError(cell, rows[cell].error());
        }
        if (rows[cell].fromStore)
            ++done.storeHits;
    }
    // Bounded at the source so the SweepDone frame always fits the
    // payload bound, even for a max grid where every cell failed.
    done.errorsJson = merger.errorsJson(kMaxErrorsJson);

    bool alive = true;
    for (size_t cell = 0; cell < n && alive; ++cell) {
        if (driverFaultFires(DriverFaultPoint::ConnDrop, cell)) {
            // Crash drill: the client vanishes mid-stream. Abandon
            // this reply; the daemon must keep serving others.
            counters_.connDropped.fetch_add(1);
            alive = false;
            break;
        }
        const Status s = sendFrame(p.fd, FrameType::Row,
                                   rows[cell].encode());
        if (!s.ok()) {
            counters_.connDropped.fetch_add(1);
            alive = false;
            break;
        }
        counters_.rowsStreamed.fetch_add(1);
    }
    if (alive) {
        const Status s =
            sendFrame(p.fd, FrameType::SweepDone, done.encode());
        if (!s.ok())
            counters_.connDropped.fetch_add(1);
    }
    ::close(p.fd);
}

} // namespace rarpred::service
