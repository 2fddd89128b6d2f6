/**
 * @file
 * Wire protocol of the resident sweep service (rarpredd).
 *
 * Transport is a local Unix-domain stream socket; on top of it runs a
 * length-prefixed, CRC-32-framed message protocol following the
 * repo's binary-format conventions (trace v2, RARJ journal):
 * little-endian scalars, explicit lengths, CRC-guarded frames.
 *
 * Frame layout:
 *   u32 magic "RARF"
 *   u8  type           (FrameType)
 *   u32 payloadLen     (<= kMaxFramePayload)
 *   payloadLen bytes of payload
 *   u32 crc32 over {type, payloadLen, payload}
 *
 * A connection carries exactly one request and its reply stream: a
 * SweepRequest is answered by one Row frame per (workload, config)
 * cell in cell order, terminated by a SweepDone frame; a
 * StatusRequest by a single StatusReply. Any server-side rejection
 * (shed load, deadline, malformed request) is a single ErrorReply.
 *
 * The decoder is deliberately paranoid: wrong magic, oversized
 * length, unknown type, or a CRC mismatch are *recoverable* protocol
 * errors (Status, never a crash or unbounded allocation) that latch —
 * a corrupted stream cannot resynchronize, the connection must be
 * dropped. Truncated frames simply wait for more bytes, so a
 * slow-trickling sender is indistinguishable from a fast one.
 * tests/test_service_proto.cc feeds this layer truncated, corrupted,
 * oversized and interleaved frames.
 */

#ifndef RARPRED_SERVICE_PROTO_HH_
#define RARPRED_SERVICE_PROTO_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "cpu/cpu_config.hh"

namespace rarpred::service {

/** Frame magic "RARF", little-endian. */
constexpr uint32_t kFrameMagic = 0x46524152;

/** Hard bound on a frame payload; larger lengths are Corruption. */
constexpr uint32_t kMaxFramePayload = 1u << 20;

/**
 * Bound on every short string field (tenant, workload abbreviation,
 * error message). Encode and decode enforce the *same* bound: the
 * encoder truncates an oversized field (appending kTruncationMarker)
 * so that everything a conforming peer emits decodes; the decoder
 * rejects anything longer as Corruption.
 */
constexpr uint32_t kMaxString = 4096;

/** Suffix the encoder leaves on a string it had to truncate. */
constexpr char kTruncationMarker[] = "...[truncated]";

/**
 * Bound on the SweepDone errorsJson field — wider than kMaxString
 * because a worst-case grid (256x256 cells, all failed) legitimately
 * produces a long report, but still well under kMaxFramePayload.
 * The daemon bounds the field at the source with
 * StatsMerger::errorsJson(kMaxErrorsJson), which drops whole entries
 * (appending {"omitted":N}) so the bounded report stays valid JSON.
 */
constexpr uint32_t kMaxErrorsJson = 1u << 19;

/** Message kinds. Requests are < 16, replies >= 16. */
enum class FrameType : uint8_t
{
    SweepRequest = 1,  ///< a grid of (workload, config) cells
    StatusRequest = 2, ///< health/readiness probe
    JobRequest = 3,    ///< one cell dispatched to a worker process
    Row = 16,          ///< one cell's CpuStats (or its error)
    SweepDone = 17,    ///< terminates a row stream; summary counts
    ErrorReply = 18,   ///< whole-request failure (shed, deadline, ...)
    StatusReply = 19,  ///< counters + readiness
    JobResult = 20,    ///< a worker's answer to one JobRequest
    WorkerHello = 21,  ///< worker liveness announcement after exec
    WorkerHeartbeat = 22, ///< mid-job forward-progress beacon
};

/** @return true iff @p type is one of the FrameType values. */
bool isKnownFrameType(uint8_t type);

/** @return stable name for @p type ("sweep-request", ...). */
const char *frameTypeName(FrameType type);

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::ErrorReply;
    std::vector<uint8_t> payload;
};

/** Encode one frame ready for the wire. */
std::vector<uint8_t> encodeFrame(FrameType type, const void *payload,
                                 size_t len);

inline std::vector<uint8_t>
encodeFrame(FrameType type, const std::vector<uint8_t> &payload)
{
    return encodeFrame(type, payload.data(), payload.size());
}

/**
 * Incremental frame decoder over an untrusted byte stream.
 *
 * feed() bytes as they arrive, then poll next() until it reports no
 * complete frame. Every defect is a latched non-OK Status: once the
 * stream is bad, every further call returns the same error and no
 * frame is ever produced again (a length-prefixed stream cannot be
 * trusted past its first lie).
 */
class FrameDecoder
{
  public:
    /** Append @p len raw bytes. @return the latched stream status. */
    Status feed(const void *data, size_t len);

    /**
     * Try to extract the next complete frame into @p out.
     * @param have set true iff a frame was produced.
     * @return OK (possibly with *have == false: need more bytes), or
     * the latched corruption/overflow error.
     */
    Status next(Frame *out, bool *have);

    /** Bytes buffered but not yet consumed by a complete frame. */
    size_t buffered() const { return buf_.size() - pos_; }

    /** The latched stream status (OK while healthy). */
    const Status &status() const { return latched_; }

  private:
    Status fail(Status s);

    std::vector<uint8_t> buf_;
    size_t pos_ = 0; ///< start of the first unconsumed byte
    Status latched_;
};

// --------------------------------------------------------- messages

/**
 * One configuration point of a sweep grid: everything needed to
 * build the timing core and its cloaking attachment. Kept as raw
 * scalars (not the in-memory config structs) so the wire format is
 * explicit and every enum is range-checked on decode — a fuzzed
 * request must never reach a table constructor that panics.
 */
struct CellConfigMsg
{
    uint8_t cloakEnabled = 0; ///< 0: bare base core
    uint8_t mode = 2;         ///< CloakingMode (RawPlusRar)
    uint8_t recovery = 0;     ///< RecoveryModel (Selective)
    uint8_t confidence = 1;   ///< ConfidenceKind (TwoBitAdaptive)
    uint8_t bypassing = 1;
    uint8_t memDep = 0;       ///< MemDepPolicy (Naive)
    uint32_t ddtEntries = 128;
    uint32_t dpntEntries = 8192;
    uint32_t dpntAssoc = 2;
    uint32_t sfEntries = 1024;
    uint32_t sfAssoc = 2;

    /**
     * Range-check every enum and geometry (via
     * CloakingConfig::validate) so toTimingConfig() cannot panic.
     */
    Status validate() const;

    /** Build the validated timing configuration. */
    CloakTimingConfig toTimingConfig() const;

    MemDepPolicy memDepPolicy() const
    {
        return (MemDepPolicy)memDep;
    }
};

/** A sweep request: the grid plus per-request execution knobs. */
struct SweepRequestMsg
{
    std::string tenant = "default"; ///< fair-scheduling identity
    uint32_t scale = 1;
    uint64_t maxInsts = ~0ull;
    /** Whole-request deadline in ms from admission; 0 = none. */
    uint64_t deadlineMs = 0;
    std::vector<std::string> workloads; ///< abbrevs ("li", ...)
    std::vector<CellConfigMsg> configs;

    /** Bounds, non-empty grid, per-cell validate(). Workload name
     *  existence is the daemon's to check (it owns the registry). */
    Status validate() const;

    std::vector<uint8_t> encode() const;
    static Result<SweepRequestMsg> decode(const std::vector<uint8_t> &b);

    size_t numCells() const
    {
        return workloads.size() * configs.size();
    }
};

/** One reply row: cell index + stats, or the cell's error. */
struct RowMsg
{
    uint64_t cell = 0;     ///< wi * configs.size() + ci
    uint8_t fromStore = 0; ///< served from the persistent store
    uint8_t errorCode = 0; ///< StatusCode; != 0 means stats invalid
    std::string errorMsg;
    CpuStats stats{};

    Status error() const
    {
        return Status{(StatusCode)errorCode, errorMsg};
    }

    std::vector<uint8_t> encode() const;
    static Result<RowMsg> decode(const std::vector<uint8_t> &b);
};

/** Row-stream terminator: summary of the request just served. */
struct SweepDoneMsg
{
    uint64_t cells = 0;
    uint64_t errors = 0;
    uint64_t storeHits = 0;
    /** StatsMerger::errorsJson() of the failed rows ("[]" if none) —
     *  the same machine-readable error format finishSweep() emits. */
    std::string errorsJson = "[]";

    std::vector<uint8_t> encode() const;
    static Result<SweepDoneMsg> decode(const std::vector<uint8_t> &b);
};

/** Whole-request rejection (shed, deadline, malformed, draining). */
struct ErrorReplyMsg
{
    uint8_t code = 0; ///< StatusCode
    std::string message;

    Status error() const
    {
        return Status{(StatusCode)code, message};
    }

    std::vector<uint8_t> encode() const;
    static Result<ErrorReplyMsg> decode(const std::vector<uint8_t> &b);
};

/** Everything the service counts, as one snapshot (see STATUS). */
struct ServiceCounterSnapshot
{
    uint64_t requests = 0;         ///< requests read off connections
    uint64_t admitted = 0;         ///< sweeps accepted into the queue
    uint64_t shed = 0;             ///< rejected: queue full or draining
    uint64_t deadlineExceeded = 0; ///< requests/cells past deadline
    uint64_t breakerOpen = 0;      ///< cells refused by the breaker
    uint64_t storeHit = 0;         ///< cells served from the store
    uint64_t storeMiss = 0;        ///< cells simulated (store cold)
    uint64_t storeCorrupt = 0;     ///< store entries rejected by CRC
    uint64_t storeWrites = 0;      ///< cells persisted durably
    uint64_t cellsSimulated = 0;   ///< jobs actually run
    uint64_t cellsFailed = 0;      ///< jobs quarantined by the runner
    uint64_t rowsStreamed = 0;     ///< Row frames written
    uint64_t connDropped = 0;      ///< clients lost mid-stream
    uint64_t protoErrors = 0;      ///< bad frames / torn requests

    /** Write "service.stat value" lines (the repo's stat format). */
    void dump(std::ostream &os) const;
};

/** Health/readiness reply for probes. */
struct StatusReplyMsg
{
    uint8_t ready = 0;    ///< accepting new sweeps
    uint8_t draining = 0; ///< finishing queued work, not admitting
    uint64_t queueDepth = 0;
    uint64_t activeSweeps = 0;
    ServiceCounterSnapshot counters{};

    std::vector<uint8_t> encode() const;
    static Result<StatusReplyMsg> decode(const std::vector<uint8_t> &b);
};

// ------------------------------------------- worker-pool messages
//
// The process-isolated worker pool (driver/worker_pool.hh) reuses
// this CRC-framed envelope over a supervisor<->worker socketpair.
// One JobRequest is answered by exactly one JobResult; while a job
// runs, the worker interleaves WorkerHeartbeat frames so a wedged
// (livelocked, swapped-out) worker is distinguishable from a slow
// one. A worker announces itself with one WorkerHello after exec.

/** Version of the supervisor<->worker job protocol. */
constexpr uint32_t kWorkerProtoVersion = 1;

/**
 * Fault the supervisor asks the worker to self-inject (chaos drills;
 * see faultinject/driver_faults.hh WorkerCrash/WorkerHang/
 * WorkerResultTorn). The *parent* consumes the fault-point firing
 * and forwards the order in the JobRequest, so the injection is
 * exactly-once across retries even though each worker process has
 * its own (unarmed) fault-point table.
 */
enum class WorkerFault : uint8_t
{
    None = 0,
    Crash = 1,      ///< raise(SIGKILL) mid-job
    Hang = 2,       ///< wedge without heartbeats until killed
    TornResult = 3, ///< corrupt one byte of the encoded JobResult
    DupResult = 4,  ///< send the JobResult frame twice (stale-frame
                    ///< drill: the dup arrives before the next job's
                    ///< result and must be dropped, not matched)
};

/** One cell dispatched to a worker process. */
struct JobRequestMsg
{
    uint64_t token = 0; ///< echoed by JobResult/WorkerHeartbeat
    std::string workload; ///< abbrev, resolved via lookupWorkload()
    uint32_t scale = 1;
    uint64_t maxInsts = ~0ull;
    /** Per-attempt deadline the worker enforces itself; 0 = none. */
    uint64_t deadlineMs = 0;
    uint8_t fault = 0; ///< WorkerFault
    CellConfigMsg config;

    Status validate() const;
    std::vector<uint8_t> encode() const;
    static Result<JobRequestMsg> decode(const std::vector<uint8_t> &b);
};

/** The worker's answer to one JobRequest. */
struct JobResultMsg
{
    uint64_t token = 0;
    uint8_t errorCode = 0; ///< StatusCode; != 0 means stats invalid
    std::string errorMsg;
    CpuStats stats{};

    Status error() const
    {
        return Status{(StatusCode)errorCode, errorMsg};
    }

    std::vector<uint8_t> encode() const;
    static Result<JobResultMsg> decode(const std::vector<uint8_t> &b);
};

/** Worker liveness announcement, sent once right after exec. */
struct WorkerHelloMsg
{
    uint64_t pid = 0;
    uint32_t protoVersion = kWorkerProtoVersion;

    std::vector<uint8_t> encode() const;
    static Result<WorkerHelloMsg> decode(const std::vector<uint8_t> &b);
};

/** Mid-job forward-progress beacon. */
struct WorkerHeartbeatMsg
{
    uint64_t token = 0; ///< the job being pumped
    uint64_t seq = 0;   ///< monotone per job

    std::vector<uint8_t> encode() const;
    static Result<WorkerHeartbeatMsg>
    decode(const std::vector<uint8_t> &b);
};

/**
 * Content address of one result cell: a stable 64-bit fingerprint of
 * everything that determines its CpuStats — workload identity, the
 * full cell configuration, trace scale and truncation. Two cells
 * with equal fingerprints are the same simulation; the result store
 * and the circuit breaker key on this.
 */
uint64_t cellFingerprint(const std::string &workload,
                         const CellConfigMsg &config, uint32_t scale,
                         uint64_t max_insts);

} // namespace rarpred::service

#endif // RARPRED_SERVICE_PROTO_HH_
