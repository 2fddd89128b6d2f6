/**
 * @file
 * rarpred-worker: one sandboxed simulation worker process.
 *
 * Spawned by driver::WorkerPool with a job socketpair on --fd. The
 * worker announces itself with a WorkerHello, then serves JobRequest
 * frames one at a time: resolve the workload, replay its trace into
 * a freshly configured OooCpu, answer with a JobResult. While a job
 * pumps, the worker interleaves WorkerHeartbeat frames so the
 * supervisor can tell a wedged worker from a slow one.
 *
 * The worker is deliberately stateless across jobs except for its
 * private TraceCache (budgets arrive on the argv): everything that
 * determines a result rides in the JobRequest, which is what makes
 * out-of-process results byte-identical to in-process ones.
 *
 * Chaos drills (WorkerFault in the request, --fault=flap on the
 * argv) are orders from the supervisor — this process never arms
 * fault points from its environment, so the parent's RARPRED_FAULT
 * spec is consumed exactly once, parent-side.
 *
 * Exit codes: 0 clean shutdown (supervisor closed the socket),
 * 2 bad usage, 3 injected flap.
 */

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/io_util.hh"
#include "common/status.hh"
#include "driver/sweep.hh"
#include "driver/trace_cache.hh"
#include "service/proto.hh"
#include "vm/recorded_trace.hh"
#include "workload/workload.hh"

namespace {

using namespace rarpred;

uint64_t
nowMs()
{
    using namespace std::chrono;
    return (uint64_t)duration_cast<milliseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** Job overran the deadline carried in its JobRequest. */
struct WorkerDeadlineExceeded
{
};

/** The supervisor vanished mid-job; nobody wants the result. */
struct SupervisorGone
{
};

Status
sendFrame(int fd, service::FrameType type,
          const std::vector<uint8_t> &payload)
{
    const std::vector<uint8_t> bytes =
        service::encodeFrame(type, payload);
    return sendFull(fd, bytes.data(), bytes.size());
}

/**
 * Replay-cursor decorator that proves forward progress: every
 * kCheckInterval records it reads the wall clock, beacons a
 * WorkerHeartbeat at most every kBeatIntervalMs, and enforces the
 * job's own deadline. Pure pass-through for the record stream, so
 * stats are untouched.
 */
class BeaconTraceSource : public TraceSource
{
  public:
    BeaconTraceSource(TraceSource &inner, int fd, uint64_t token,
                      uint64_t deadline_at_ms)
        : inner_(inner), fd_(fd), token_(token),
          deadlineAtMs_(deadline_at_ms), lastBeatMs_(nowMs())
    {
    }

    bool
    next(DynInst &di) override
    {
        tick(1);
        return inner_.next(di);
    }

    size_t
    nextBlock(DynInst *out, size_t max) override
    {
        tick(max);
        return inner_.nextBlock(out, max);
    }

  private:
    void
    tick(size_t records)
    {
        sinceCheck_ += records;
        if (sinceCheck_ < kCheckInterval)
            return;
        sinceCheck_ = 0;
        const uint64_t now = nowMs();
        if (deadlineAtMs_ != 0 && now > deadlineAtMs_)
            throw WorkerDeadlineExceeded{};
        if (now - lastBeatMs_ < kBeatIntervalMs)
            return;
        lastBeatMs_ = now;
        service::WorkerHeartbeatMsg beat;
        beat.token = token_;
        beat.seq = ++seq_;
        if (!sendFrame(fd_, service::FrameType::WorkerHeartbeat,
                       beat.encode())
                 .ok())
            throw SupervisorGone{};
    }

    static constexpr uint64_t kCheckInterval = 4096;
    static constexpr uint64_t kBeatIntervalMs = 150;

    TraceSource &inner_;
    const int fd_;
    const uint64_t token_;
    const uint64_t deadlineAtMs_; ///< absolute; 0 = no deadline
    uint64_t lastBeatMs_;
    uint64_t sinceCheck_ = 0;
    uint64_t seq_ = 0;
};

/** Compute one cell; failures become the result's error fields. */
service::JobResultMsg
runOne(const service::JobRequestMsg &req, driver::TraceCache &cache,
       int fd)
{
    service::JobResultMsg res;
    res.token = req.token;
    try {
        const Result<const Workload *> wl =
            lookupWorkload(req.workload);
        if (!wl.ok()) {
            res.errorCode = (uint8_t)wl.status().code();
            res.errorMsg = wl.status().message();
            return res;
        }
        const std::shared_ptr<const RecordedTrace> trace =
            cache.get(**wl, req.scale, req.maxInsts);
        RecordedTraceSource replay(*trace);
        BeaconTraceSource beacon(
            replay, fd, req.token,
            req.deadlineMs != 0 ? nowMs() + req.deadlineMs : 0);
        res.stats = driver::simulateCell(req.config, beacon);
    } catch (const WorkerDeadlineExceeded &) {
        res.errorCode = (uint8_t)StatusCode::DeadlineExceeded;
        res.errorMsg = "job exceeded its " +
                       std::to_string(req.deadlineMs) + "ms deadline";
    } catch (const std::exception &e) {
        res.errorCode = (uint8_t)StatusCode::Internal;
        res.errorMsg = std::string("job threw: ") + e.what();
    }
    return res;
}

bool
parseU64Arg(const char *arg, const char *prefix, uint64_t *out)
{
    const size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0)
        return false;
    char *end = nullptr;
    *out = std::strtoull(arg + n, &end, 10);
    return end != nullptr && *end == '\0' && end != arg + n;
}

} // namespace

int
main(int argc, char **argv)
{
    int fd = -1;
    bool flap = false;
    uint64_t budget_bytes = 0;
    uint64_t budget_traces = 0;
    for (int i = 1; i < argc; ++i) {
        uint64_t v = 0;
        if (parseU64Arg(argv[i], "--fd=", &v))
            fd = (int)v;
        else if (parseU64Arg(argv[i], "--trace-budget-bytes=", &v))
            budget_bytes = v;
        else if (parseU64Arg(argv[i], "--trace-budget=", &v))
            budget_traces = v;
        else if (std::strcmp(argv[i], "--fault=flap") == 0)
            flap = true;
        else {
            std::fprintf(stderr,
                         "usage: rarpred-worker --fd=N "
                         "[--trace-budget-bytes=N] [--trace-budget=N]\n"
                         "(spawned by the worker pool; not a user "
                         "command)\n");
            return 2;
        }
    }
    if (fd < 0) {
        std::fprintf(stderr, "rarpred-worker: missing --fd=N\n");
        return 2;
    }
    if (flap)
        return 3; // chaos drill: die before the hello

    // The supervisor may vanish at any moment; a write to the dead
    // socket must be an error, not a SIGPIPE kill.
    ::signal(SIGPIPE, SIG_IGN);

    driver::TraceCache cache(
        driver::TraceCacheConfig{budget_bytes, (uint32_t)budget_traces});

    service::WorkerHelloMsg hello;
    hello.pid = (uint64_t)::getpid();
    if (!sendFrame(fd, service::FrameType::WorkerHello, hello.encode())
             .ok())
        return 1;

    service::FrameDecoder decoder;
    uint8_t buf[4096];
    for (;;) {
        service::Frame frame;
        bool have = false;
        if (!decoder.next(&frame, &have).ok()) {
            std::fprintf(stderr,
                         "rarpred-worker: request stream corrupt: %s\n",
                         decoder.status().toString().c_str());
            return 1;
        }
        if (!have) {
            const Result<size_t> got = recvChunk(fd, buf, sizeof(buf));
            if (!got.ok())
                return 1;
            if (*got == 0)
                return 0; // supervisor closed the socket: clean exit
            (void)decoder.feed(buf, *got);
            continue;
        }
        if (frame.type != service::FrameType::JobRequest) {
            std::fprintf(stderr,
                         "rarpred-worker: unexpected frame '%s'\n",
                         service::frameTypeName(frame.type));
            return 1;
        }
        const Result<service::JobRequestMsg> req =
            service::JobRequestMsg::decode(frame.payload);
        if (!req.ok()) {
            std::fprintf(stderr, "rarpred-worker: bad request: %s\n",
                         req.status().toString().c_str());
            return 1;
        }

        // Injected faults, ordered by the supervisor.
        const auto fault = (service::WorkerFault)req->fault;
        if (fault == service::WorkerFault::Crash) {
            ::raise(SIGKILL); // no unwinding, no flush — a real crash
        }
        if (fault == service::WorkerFault::Hang) {
            // Wedge silently: no heartbeats, no result. The
            // supervisor must SIGKILL us at its heartbeat deadline.
            for (;;)
                ::pause();
        }

        // First beacon up front: the supervisor's silence clock must
        // not run down while this job generates a cold trace.
        service::WorkerHeartbeatMsg beat;
        beat.token = req->token;
        if (!sendFrame(fd, service::FrameType::WorkerHeartbeat,
                       beat.encode())
                 .ok())
            return 0;

        service::JobResultMsg res;
        try {
            res = runOne(*req, cache, fd);
        } catch (const SupervisorGone &) {
            return 0;
        }
        std::vector<uint8_t> reply = service::encodeFrame(
            service::FrameType::JobResult, res.encode());
        if (fault == service::WorkerFault::TornResult) {
            // Flip one payload byte *after* the CRC was computed:
            // the supervisor must reject the frame, never merge it.
            reply[9 + (reply.size() - 13) / 2] ^= 0x20;
        }
        if (fault == service::WorkerFault::DupResult) {
            // Send the (valid) result twice. The supervisor consumes
            // the first; the duplicate sits in the socket buffer and
            // arrives ahead of the *next* job's result, where it must
            // be dropped as stale — never matched to that cell.
            if (!sendFull(fd, reply.data(), reply.size()).ok())
                return 0;
        }
        if (!sendFull(fd, reply.data(), reply.size()).ok())
            return 0;
    }
}
