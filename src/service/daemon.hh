/**
 * @file
 * The resident sweep service (rarpredd): a long-running daemon that
 * serves sweep requests over a local Unix-domain socket.
 *
 * Request lifecycle (DESIGN.md §6d):
 *
 *   admit -> schedule -> run -> store -> reply
 *
 *  - admit:    a per-connection handler thread reads and validates
 *              one request (proto.hh). Bounded queues — global and
 *              per-tenant — shed excess load with an explicit
 *              ResourceExhausted ErrorReply instead of letting the
 *              backlog grow without bound; a draining daemon sheds
 *              with Unavailable.
 *  - schedule: a single executor thread picks the next request fair
 *              round-robin *across tenants*, so one tenant queueing
 *              fifty sweeps cannot starve another's first.
 *  - run:      each request gets its own SimJobRunner (its deadline
 *              and retry knobs are per-request) over one shared warm
 *              TraceCache (the memoized workload traces are
 *              request-independent). The request deadline, measured
 *              from admission, is propagated into the runner's
 *              per-job cooperative watchdog; cells whose fingerprint
 *              keeps failing are refused by a circuit breaker before
 *              they can burn another retry budget.
 *  - store:    every simulated cell is durably persisted in the
 *              content-addressed ResultStore *as it completes*, so a
 *              kill -9 loses at most in-flight cells; reads verify
 *              CRC and re-simulate transparently on corruption.
 *  - reply:    rows stream back in cell order, terminated by a
 *              SweepDone frame; rejections are a single ErrorReply.
 *
 * Restart contract: kill -9 mid-sweep, restart, replay the request —
 * the merged stats are byte-identical to an uninterrupted run, with
 * previously completed cells served from the store (store_hit > 0).
 *
 * SIGPIPE is ignored process-wide by serve(); a write to a
 * disconnected client surfaces as a recoverable error (the reply
 * stream is abandoned, service.conn_dropped++, the daemon lives on).
 */

#ifndef RARPRED_SERVICE_DAEMON_HH_
#define RARPRED_SERVICE_DAEMON_HH_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/trace_cache.hh"
#include "service/circuit_breaker.hh"
#include "service/proto.hh"
#include "service/result_store.hh"

namespace rarpred::driver {
class WorkerPool;
} // namespace rarpred::driver

namespace rarpred::service {

/** Daemon knobs (rarpredd flags map onto these 1:1). */
struct DaemonConfig
{
    std::string socketPath; ///< Unix-domain socket to listen on
    std::string storeDir;   ///< persistent result store directory

    /** Worker threads per sweep; 0 = hardware concurrency. */
    unsigned workers = 0;
    /** Admission bounds: queued (not yet running) sweeps. */
    size_t maxQueue = 16;
    size_t maxQueuePerTenant = 8;
    /** Concurrent client connections (one handler thread each);
     *  excess connections are shed with ResourceExhausted. */
    size_t maxConnections = 64;

    /** Per-job retry budget forwarded to each request's runner. */
    unsigned maxAttempts = 3;
    uint64_t retryBackoffMs = 0;
    /** Request deadline when the request carries none; 0 = none. */
    uint64_t defaultDeadlineMs = 0;

    CircuitBreaker::Config breaker{};

    /** Shared trace-cache residency budgets (0 = unlimited). */
    uint64_t traceBudgetBytes = 0;
    uint32_t traceBudgetTraces = 0;

    /** ms a handler waits for a complete request before calling the
     *  connection torn. Keep short in tests. */
    uint64_t requestTimeoutMs = 5000;

    /**
     * --isolate-jobs: simulate each cell in a sandboxed worker
     * process from a supervised pool (driver/worker_pool.hh) so a
     * crash or wedge in one cell cannot take the daemon — and every
     * queued tenant — down with it. The pool is shared across
     * requests; when it degrades (flapping workers, missing binary)
     * cells transparently run in-process with identical results.
     */
    bool isolateJobs = false;
    /** Kill a silent worker process after this long (isolateJobs). */
    uint64_t workerHeartbeatTimeoutMs = 10000;
};

/** Thread-safe counters behind the service.* stats (proto.hh). */
struct ServiceCounters
{
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> deadlineExceeded{0};
    std::atomic<uint64_t> breakerOpen{0};
    std::atomic<uint64_t> storeHit{0};
    std::atomic<uint64_t> storeMiss{0};
    std::atomic<uint64_t> storeCorrupt{0};
    std::atomic<uint64_t> storeWrites{0};
    std::atomic<uint64_t> cellsSimulated{0};
    std::atomic<uint64_t> cellsFailed{0};
    std::atomic<uint64_t> rowsStreamed{0};
    std::atomic<uint64_t> connDropped{0};
    std::atomic<uint64_t> protoErrors{0};

    ServiceCounterSnapshot snapshot() const;
};

/** The daemon. One instance per process (it owns the socket path). */
class SweepDaemon
{
  public:
    explicit SweepDaemon(const DaemonConfig &config);
    ~SweepDaemon();

    SweepDaemon(const SweepDaemon &) = delete;
    SweepDaemon &operator=(const SweepDaemon &) = delete;

    /**
     * Ignore SIGPIPE, create the store directory, bind + listen on
     * the socket, and start the accept and executor threads. Returns
     * once the daemon is serving (ready for a STATUS probe).
     */
    Status serve();

    /**
     * Graceful drain (SIGTERM): stop accepting connections and
     * admitting sweeps; queued and running sweeps finish and their
     * replies complete. Safe to call from a signal-triggered thread.
     */
    void requestDrain();

    /** Block until the drain completed and every thread joined. */
    void awaitShutdown();

    /** requestDrain() + awaitShutdown(). */
    void stop();

    const DaemonConfig &config() const { return config_; }
    ServiceCounterSnapshot counters() const
    {
        return counters_.snapshot();
    }

    /** Worker-process pool (null without --isolate-jobs); the CLI
     *  dumps its driver.worker.* counters at exit. */
    driver::WorkerPool *workerPool() { return workerPool_.get(); }

  private:
    /** One admitted sweep, owning its client connection. */
    struct Pending
    {
        SweepRequestMsg request;
        int fd = -1;
        std::chrono::steady_clock::time_point admitted;
    };

    void acceptLoop();
    void executorLoop();
    void handleConnection(int fd, uint64_t conn_index);

    /** Join and erase handler threads that finished. Called with
     *  handlersMu_ held. */
    void reapFinishedHandlersLocked();

    /** Serve one admitted sweep and close its connection. */
    void runSweepRequest(Pending &&p);

    /** Pop the next request, fair round-robin across tenants. */
    bool dequeue(Pending *out);

    DaemonConfig config_;
    ServiceCounters counters_;
    ResultStore store_;
    std::mutex storeMu_; ///< serializes put() (get() is read-only)
    CircuitBreaker breaker_;
    std::unique_ptr<driver::TraceCache> traceCache_;
    std::unique_ptr<driver::WorkerPool> workerPool_;

    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1}; ///< drain wakeup for the accept poll
    std::atomic<bool> draining_{false};
    std::atomic<uint64_t> connIndex_{0};

    std::mutex queueMu_;
    std::condition_variable queueCv_;
    /** Per-tenant FIFO queues, iterated round-robin from rrNext_. */
    std::map<std::string, std::deque<Pending>> queues_;
    std::string rrNext_; ///< tenant after the last one served
    size_t queuedTotal_ = 0;
    size_t activeSweeps_ = 0;

    std::thread acceptThread_;
    std::thread executorThread_;
    std::mutex handlersMu_;
    /** Live per-connection handler threads by connection index,
     *  capped at maxConnections. A handler pushes its index to
     *  finishedHandlers_ as its last act; the accept loop joins and
     *  erases those before admitting the next connection, so a
     *  long-lived daemon never accumulates joinable zombies. */
    std::map<uint64_t, std::thread> handlers_;
    std::vector<uint64_t> finishedHandlers_;
};

} // namespace rarpred::service

#endif // RARPRED_SERVICE_DAEMON_HH_
