#include "service/proto.hh"

#include <cstring>
#include <ostream>

#include "common/crc32.hh"
#include "common/statesave.hh"

namespace rarpred::service {

bool
isKnownFrameType(uint8_t type)
{
    switch ((FrameType)type) {
      case FrameType::SweepRequest:
      case FrameType::StatusRequest:
      case FrameType::JobRequest:
      case FrameType::Row:
      case FrameType::SweepDone:
      case FrameType::ErrorReply:
      case FrameType::StatusReply:
      case FrameType::JobResult:
      case FrameType::WorkerHello:
      case FrameType::WorkerHeartbeat:
        return true;
    }
    return false;
}

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::SweepRequest:
        return "sweep-request";
      case FrameType::StatusRequest:
        return "status-request";
      case FrameType::Row:
        return "row";
      case FrameType::SweepDone:
        return "sweep-done";
      case FrameType::ErrorReply:
        return "error-reply";
      case FrameType::StatusReply:
        return "status-reply";
      case FrameType::JobRequest:
        return "job-request";
      case FrameType::JobResult:
        return "job-result";
      case FrameType::WorkerHello:
        return "worker-hello";
      case FrameType::WorkerHeartbeat:
        return "worker-heartbeat";
    }
    return "unknown";
}

// ---------------------------------------------------------- framing

std::vector<uint8_t>
encodeFrame(FrameType type, const void *payload, size_t len)
{
    rarpred_assert(len <= kMaxFramePayload);
    std::vector<uint8_t> out;
    out.reserve(4 + 1 + 4 + len + 4);
    const uint32_t magic = kFrameMagic;
    const uint32_t len32 = (uint32_t)len;
    for (int i = 0; i < 4; ++i)
        out.push_back((uint8_t)(magic >> (8 * i)));
    out.push_back((uint8_t)type);
    for (int i = 0; i < 4; ++i)
        out.push_back((uint8_t)(len32 >> (8 * i)));
    const auto *p = static_cast<const uint8_t *>(payload);
    out.insert(out.end(), p, p + len);
    // CRC over {type, payloadLen, payload}: byte 4 onwards.
    const uint32_t crc = crc32(out.data() + 4, out.size() - 4);
    for (int i = 0; i < 4; ++i)
        out.push_back((uint8_t)(crc >> (8 * i)));
    return out;
}

namespace {

uint32_t
readU32(const uint8_t *p)
{
    return (uint32_t)p[0] | ((uint32_t)p[1] << 8) |
           ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
}

} // namespace

Status
FrameDecoder::fail(Status s)
{
    if (latched_.ok())
        latched_ = std::move(s);
    return latched_;
}

Status
FrameDecoder::feed(const void *data, size_t len)
{
    if (!latched_.ok())
        return latched_;
    // Compact the consumed prefix before growing, so a long-lived
    // connection does not accumulate every frame it ever parsed.
    if (pos_ > 0 && pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ > 4096) {
        buf_.erase(buf_.begin(), buf_.begin() + (ptrdiff_t)pos_);
        pos_ = 0;
    }
    const auto *p = static_cast<const uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
    return Status{};
}

Status
FrameDecoder::next(Frame *out, bool *have)
{
    *have = false;
    if (!latched_.ok())
        return latched_;
    constexpr size_t kHeader = 4 + 1 + 4; // magic + type + len
    const size_t avail = buf_.size() - pos_;
    if (avail < kHeader)
        return Status{};
    const uint8_t *p = buf_.data() + pos_;
    if (readU32(p) != kFrameMagic)
        return fail(Status::corruption("frame magic mismatch"));
    const uint8_t type = p[4];
    const uint32_t len = readU32(p + 5);
    if (len > kMaxFramePayload)
        return fail(Status::corruption(
            "frame payload length " + std::to_string(len) +
            " exceeds the " + std::to_string(kMaxFramePayload) +
            "-byte bound"));
    if (!isKnownFrameType(type))
        return fail(Status::corruption(
            "unknown frame type " + std::to_string(type)));
    if (avail < kHeader + (size_t)len + 4)
        return Status{}; // truncated so far: wait for more bytes
    const uint32_t want = readU32(p + kHeader + len);
    const uint32_t got = crc32(p + 4, 1 + 4 + len);
    if (want != got)
        return fail(Status::corruption("frame CRC mismatch"));
    out->type = (FrameType)type;
    out->payload.assign(p + kHeader, p + kHeader + len);
    pos_ += kHeader + (size_t)len + 4;
    *have = true;
    return Status{};
}

// --------------------------------------------------- field helpers

namespace {

/**
 * Write a length-prefixed string, truncated to @p bound bytes (with
 * kTruncationMarker) if oversized. Truncating instead of emitting
 * the full field keeps the encode and decode bounds in agreement: a
 * huge error message must degrade to a shorter message, never turn a
 * fully-served reply into a decode-side Corruption.
 */
void
writeString(StateWriter &w, const std::string &s,
            uint32_t bound = kMaxString)
{
    constexpr size_t marker_len = sizeof(kTruncationMarker) - 1;
    static_assert(marker_len < kMaxString);
    if (s.size() <= bound) {
        w.u32((uint32_t)s.size());
        w.bytes(s.data(), s.size());
        return;
    }
    w.u32(bound);
    w.bytes(s.data(), bound - marker_len);
    w.bytes(kTruncationMarker, marker_len);
}

Status
readString(StateReader &r, std::string *out,
           uint32_t bound = kMaxString)
{
    uint32_t len = 0;
    RARPRED_RETURN_IF_ERROR(r.u32(&len));
    if (len > bound)
        return Status::corruption("string field of " +
                                  std::to_string(len) +
                                  " bytes exceeds the bound");
    out->resize(len);
    return r.bytes(out->data(), len);
}

void
writeCpuStats(StateWriter &w, const CpuStats &s)
{
    w.u64(s.instructions);
    w.u64(s.cycles);
    w.u64(s.loads);
    w.u64(s.stores);
    w.u64(s.branchMispredicts);
    w.u64(s.memOrderViolations);
    w.u64(s.valueSpecUsed);
    w.u64(s.valueSpecCorrect);
    w.u64(s.valueSpecWrong);
    w.u64(s.squashes);
    w.u64(s.specCyclesSaved);
}

Status
readCpuStats(StateReader &r, CpuStats *s)
{
    RARPRED_RETURN_IF_ERROR(r.u64(&s->instructions));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->cycles));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->loads));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->stores));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->branchMispredicts));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->memOrderViolations));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->valueSpecUsed));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->valueSpecCorrect));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->valueSpecWrong));
    RARPRED_RETURN_IF_ERROR(r.u64(&s->squashes));
    return r.u64(&s->specCyclesSaved);
}

void
writeCellConfig(StateWriter &w, const CellConfigMsg &c)
{
    w.u8(c.cloakEnabled);
    w.u8(c.mode);
    w.u8(c.recovery);
    w.u8(c.confidence);
    w.u8(c.bypassing);
    w.u8(c.memDep);
    w.u32(c.ddtEntries);
    w.u32(c.dpntEntries);
    w.u32(c.dpntAssoc);
    w.u32(c.sfEntries);
    w.u32(c.sfAssoc);
}

Status
readCellConfig(StateReader &r, CellConfigMsg *c)
{
    RARPRED_RETURN_IF_ERROR(r.u8(&c->cloakEnabled));
    RARPRED_RETURN_IF_ERROR(r.u8(&c->mode));
    RARPRED_RETURN_IF_ERROR(r.u8(&c->recovery));
    RARPRED_RETURN_IF_ERROR(r.u8(&c->confidence));
    RARPRED_RETURN_IF_ERROR(r.u8(&c->bypassing));
    RARPRED_RETURN_IF_ERROR(r.u8(&c->memDep));
    RARPRED_RETURN_IF_ERROR(r.u32(&c->ddtEntries));
    RARPRED_RETURN_IF_ERROR(r.u32(&c->dpntEntries));
    RARPRED_RETURN_IF_ERROR(r.u32(&c->dpntAssoc));
    RARPRED_RETURN_IF_ERROR(r.u32(&c->sfEntries));
    RARPRED_RETURN_IF_ERROR(r.u32(&c->sfAssoc));
    return c->validate();
}

} // namespace

// ------------------------------------------------------ CellConfig

Status
CellConfigMsg::validate() const
{
    if (cloakEnabled > 1 || bypassing > 1)
        return Status::invalidArgument("boolean config field not 0/1");
    if (mode > (uint8_t)CloakingMode::RawPlusRar)
        return Status::invalidArgument("cloaking mode out of range");
    if (recovery > (uint8_t)RecoveryModel::Oracle)
        return Status::invalidArgument("recovery model out of range");
    if (confidence > (uint8_t)ConfidenceKind::TwoBitAdaptive)
        return Status::invalidArgument("confidence kind out of range");
    if (memDep > (uint8_t)MemDepPolicy::Conservative)
        return Status::invalidArgument("memdep policy out of range");
    if (cloakEnabled) {
        CloakingConfig engine;
        engine.mode = (CloakingMode)mode;
        engine.ddt.entries = ddtEntries;
        engine.dpnt.geometry = {dpntEntries, dpntAssoc};
        engine.dpnt.confidence = (ConfidenceKind)confidence;
        engine.sf = {sfEntries, sfAssoc};
        RARPRED_RETURN_IF_ERROR(engine.validate());
    }
    return Status{};
}

CloakTimingConfig
CellConfigMsg::toTimingConfig() const
{
    CloakTimingConfig cloak;
    if (!cloakEnabled)
        return cloak;
    cloak.enabled = true;
    cloak.engine.mode = (CloakingMode)mode;
    cloak.engine.ddt.entries = ddtEntries;
    cloak.engine.dpnt.geometry = {dpntEntries, dpntAssoc};
    cloak.engine.dpnt.confidence = (ConfidenceKind)confidence;
    cloak.engine.sf = {sfEntries, sfAssoc};
    cloak.recovery = (RecoveryModel)recovery;
    cloak.bypassing = bypassing != 0;
    return cloak;
}

// ---------------------------------------------------- SweepRequest

Status
SweepRequestMsg::validate() const
{
    if (tenant.empty() || tenant.size() > 256)
        return Status::invalidArgument(
            "tenant name must be 1..256 bytes");
    if (scale == 0)
        return Status::invalidArgument("scale must be >= 1");
    if (workloads.empty() || configs.empty())
        return Status::invalidArgument(
            "a sweep needs at least one workload and one config");
    if (workloads.size() > 256 || configs.size() > 256)
        return Status::invalidArgument(
            "grid axis exceeds the 256-entry bound");
    for (const std::string &w : workloads)
        if (w.empty() || w.size() > 64)
            return Status::invalidArgument(
                "workload abbreviation must be 1..64 bytes");
    for (const CellConfigMsg &c : configs)
        RARPRED_RETURN_IF_ERROR(c.validate());
    return Status{};
}

std::vector<uint8_t>
SweepRequestMsg::encode() const
{
    StateWriter w;
    writeString(w, tenant);
    w.u32(scale);
    w.u64(maxInsts);
    w.u64(deadlineMs);
    w.u32((uint32_t)workloads.size());
    for (const std::string &wl : workloads)
        writeString(w, wl);
    w.u32((uint32_t)configs.size());
    for (const CellConfigMsg &c : configs)
        writeCellConfig(w, c);
    return w.buffer();
}

Result<SweepRequestMsg>
SweepRequestMsg::decode(const std::vector<uint8_t> &b)
{
    SweepRequestMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(readString(r, &m.tenant));
    RARPRED_RETURN_IF_ERROR(r.u32(&m.scale));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.maxInsts));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.deadlineMs));
    uint32_t n = 0;
    RARPRED_RETURN_IF_ERROR(r.u32(&n));
    if (n > 256)
        return Status::corruption("workload list exceeds the bound");
    m.workloads.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        RARPRED_RETURN_IF_ERROR(readString(r, &m.workloads[i]));
    RARPRED_RETURN_IF_ERROR(r.u32(&n));
    if (n > 256)
        return Status::corruption("config list exceeds the bound");
    m.configs.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        RARPRED_RETURN_IF_ERROR(readCellConfig(r, &m.configs[i]));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after sweep request");
    RARPRED_RETURN_IF_ERROR(m.validate());
    return m;
}

// ------------------------------------------------------------- Row

std::vector<uint8_t>
RowMsg::encode() const
{
    StateWriter w;
    w.u64(cell);
    w.u8(fromStore);
    w.u8(errorCode);
    writeString(w, errorMsg);
    writeCpuStats(w, stats);
    return w.buffer();
}

Result<RowMsg>
RowMsg::decode(const std::vector<uint8_t> &b)
{
    RowMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u64(&m.cell));
    RARPRED_RETURN_IF_ERROR(r.u8(&m.fromStore));
    RARPRED_RETURN_IF_ERROR(r.u8(&m.errorCode));
    RARPRED_RETURN_IF_ERROR(readString(r, &m.errorMsg));
    RARPRED_RETURN_IF_ERROR(readCpuStats(r, &m.stats));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after row");
    if (m.errorCode > (uint8_t)StatusCode::Unavailable)
        return Status::corruption("row error code out of range");
    return m;
}

// ------------------------------------------------------- SweepDone

std::vector<uint8_t>
SweepDoneMsg::encode() const
{
    StateWriter w;
    w.u64(cells);
    w.u64(errors);
    w.u64(storeHits);
    writeString(w, errorsJson, kMaxErrorsJson);
    return w.buffer();
}

Result<SweepDoneMsg>
SweepDoneMsg::decode(const std::vector<uint8_t> &b)
{
    SweepDoneMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u64(&m.cells));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.errors));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.storeHits));
    RARPRED_RETURN_IF_ERROR(readString(r, &m.errorsJson,
                                       kMaxErrorsJson));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after sweep-done");
    return m;
}

// ------------------------------------------------------ ErrorReply

std::vector<uint8_t>
ErrorReplyMsg::encode() const
{
    StateWriter w;
    w.u8(code);
    writeString(w, message);
    return w.buffer();
}

Result<ErrorReplyMsg>
ErrorReplyMsg::decode(const std::vector<uint8_t> &b)
{
    ErrorReplyMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u8(&m.code));
    RARPRED_RETURN_IF_ERROR(readString(r, &m.message));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after error reply");
    if (m.code > (uint8_t)StatusCode::Unavailable)
        return Status::corruption("error code out of range");
    return m;
}

// ---------------------------------------------------- StatusReply

void
ServiceCounterSnapshot::dump(std::ostream &os) const
{
    os << "service.requests " << requests << "\n";
    os << "service.admitted " << admitted << "\n";
    os << "service.shed " << shed << "\n";
    os << "service.deadline_exceeded " << deadlineExceeded << "\n";
    os << "service.breaker_open " << breakerOpen << "\n";
    os << "service.store_hit " << storeHit << "\n";
    os << "service.store_miss " << storeMiss << "\n";
    os << "service.store_corrupt " << storeCorrupt << "\n";
    os << "service.store_writes " << storeWrites << "\n";
    os << "service.cells_simulated " << cellsSimulated << "\n";
    os << "service.cells_failed " << cellsFailed << "\n";
    os << "service.rows_streamed " << rowsStreamed << "\n";
    os << "service.conn_dropped " << connDropped << "\n";
    os << "service.proto_errors " << protoErrors << "\n";
}

namespace {

void
writeCounters(StateWriter &w, const ServiceCounterSnapshot &c)
{
    w.u64(c.requests);
    w.u64(c.admitted);
    w.u64(c.shed);
    w.u64(c.deadlineExceeded);
    w.u64(c.breakerOpen);
    w.u64(c.storeHit);
    w.u64(c.storeMiss);
    w.u64(c.storeCorrupt);
    w.u64(c.storeWrites);
    w.u64(c.cellsSimulated);
    w.u64(c.cellsFailed);
    w.u64(c.rowsStreamed);
    w.u64(c.connDropped);
    w.u64(c.protoErrors);
}

Status
readCounters(StateReader &r, ServiceCounterSnapshot *c)
{
    RARPRED_RETURN_IF_ERROR(r.u64(&c->requests));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->admitted));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->shed));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->deadlineExceeded));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->breakerOpen));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->storeHit));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->storeMiss));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->storeCorrupt));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->storeWrites));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->cellsSimulated));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->cellsFailed));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->rowsStreamed));
    RARPRED_RETURN_IF_ERROR(r.u64(&c->connDropped));
    return r.u64(&c->protoErrors);
}

} // namespace

std::vector<uint8_t>
StatusReplyMsg::encode() const
{
    StateWriter w;
    w.u8(ready);
    w.u8(draining);
    w.u64(queueDepth);
    w.u64(activeSweeps);
    writeCounters(w, counters);
    return w.buffer();
}

Result<StatusReplyMsg>
StatusReplyMsg::decode(const std::vector<uint8_t> &b)
{
    StatusReplyMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u8(&m.ready));
    RARPRED_RETURN_IF_ERROR(r.u8(&m.draining));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.queueDepth));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.activeSweeps));
    RARPRED_RETURN_IF_ERROR(readCounters(r, &m.counters));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after status reply");
    return m;
}

// --------------------------------------------------- worker frames

Status
JobRequestMsg::validate() const
{
    if (workload.empty() || workload.size() > 64)
        return Status::invalidArgument(
            "workload abbreviation must be 1..64 bytes");
    if (scale == 0)
        return Status::invalidArgument("scale must be >= 1");
    if (fault > (uint8_t)WorkerFault::DupResult)
        return Status::invalidArgument("worker fault out of range");
    return config.validate();
}

std::vector<uint8_t>
JobRequestMsg::encode() const
{
    StateWriter w;
    w.u64(token);
    writeString(w, workload);
    w.u32(scale);
    w.u64(maxInsts);
    w.u64(deadlineMs);
    w.u8(fault);
    writeCellConfig(w, config);
    return w.buffer();
}

Result<JobRequestMsg>
JobRequestMsg::decode(const std::vector<uint8_t> &b)
{
    JobRequestMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u64(&m.token));
    RARPRED_RETURN_IF_ERROR(readString(r, &m.workload));
    RARPRED_RETURN_IF_ERROR(r.u32(&m.scale));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.maxInsts));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.deadlineMs));
    RARPRED_RETURN_IF_ERROR(r.u8(&m.fault));
    RARPRED_RETURN_IF_ERROR(readCellConfig(r, &m.config));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after job request");
    RARPRED_RETURN_IF_ERROR(m.validate());
    return m;
}

std::vector<uint8_t>
JobResultMsg::encode() const
{
    StateWriter w;
    w.u64(token);
    w.u8(errorCode);
    writeString(w, errorMsg);
    writeCpuStats(w, stats);
    return w.buffer();
}

Result<JobResultMsg>
JobResultMsg::decode(const std::vector<uint8_t> &b)
{
    JobResultMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u64(&m.token));
    RARPRED_RETURN_IF_ERROR(r.u8(&m.errorCode));
    RARPRED_RETURN_IF_ERROR(readString(r, &m.errorMsg));
    RARPRED_RETURN_IF_ERROR(readCpuStats(r, &m.stats));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after job result");
    if (m.errorCode > (uint8_t)StatusCode::Unavailable)
        return Status::corruption("job error code out of range");
    return m;
}

std::vector<uint8_t>
WorkerHelloMsg::encode() const
{
    StateWriter w;
    w.u64(pid);
    w.u32(protoVersion);
    return w.buffer();
}

Result<WorkerHelloMsg>
WorkerHelloMsg::decode(const std::vector<uint8_t> &b)
{
    WorkerHelloMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u64(&m.pid));
    RARPRED_RETURN_IF_ERROR(r.u32(&m.protoVersion));
    if (!r.atEnd())
        return Status::corruption("trailing bytes after worker hello");
    return m;
}

std::vector<uint8_t>
WorkerHeartbeatMsg::encode() const
{
    StateWriter w;
    w.u64(token);
    w.u64(seq);
    return w.buffer();
}

Result<WorkerHeartbeatMsg>
WorkerHeartbeatMsg::decode(const std::vector<uint8_t> &b)
{
    WorkerHeartbeatMsg m;
    StateReader r(b);
    RARPRED_RETURN_IF_ERROR(r.u64(&m.token));
    RARPRED_RETURN_IF_ERROR(r.u64(&m.seq));
    if (!r.atEnd())
        return Status::corruption(
            "trailing bytes after worker heartbeat");
    return m;
}

// ----------------------------------------------------- fingerprint

uint64_t
cellFingerprint(const std::string &workload, const CellConfigMsg &config,
                uint32_t scale, uint64_t max_insts)
{
    // Hash the *canonical wire encoding* of the cell: any field that
    // changes the simulation changes the bytes, so two equal
    // fingerprints name the same deterministic result.
    StateWriter w;
    writeString(w, workload);
    writeCellConfig(w, config);
    w.u32(scale);
    w.u64(max_insts);
    const std::vector<uint8_t> &b = w.buffer();
    uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64
    for (uint8_t byte : b) {
        h ^= byte;
        h *= 0x100000001b3ull;
    }
    // splitmix64 finalizer: avalanche the low bytes.
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
}

} // namespace rarpred::service
