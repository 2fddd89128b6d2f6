/**
 * @file
 * Wire-protocol battery for the sweep service (service/proto.hh):
 * round trips for every message, and a decoder fuzz battery —
 * truncated, CRC-corrupted, oversized-length and interleaved frames
 * must all surface as recoverable Status values, never as a crash, a
 * hang, or an unbounded allocation. Message decoders are additionally
 * fuzzed with random bytes: a malicious request must never reach a
 * table constructor that panics.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "driver/stats_merger.hh"
#include "service/proto.hh"

namespace rarpred::service {
namespace {

SweepRequestMsg
sampleRequest()
{
    SweepRequestMsg req;
    req.tenant = "team-a";
    req.scale = 2;
    req.maxInsts = 123456;
    req.deadlineMs = 9000;
    req.workloads = {"li", "com"};
    CellConfigMsg base;
    base.cloakEnabled = 0;
    CellConfigMsg rar;
    rar.cloakEnabled = 1;
    req.configs = {base, rar};
    return req;
}

// ---------------------------------------------------------- framing

TEST(ServiceFraming, EncodeDecodeRoundTrip)
{
    const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    const auto bytes = encodeFrame(FrameType::Row, payload);

    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    bool have = false;
    ASSERT_TRUE(dec.next(&frame, &have).ok());
    ASSERT_TRUE(have);
    EXPECT_EQ(frame.type, FrameType::Row);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(dec.buffered(), 0u);

    // No second frame.
    ASSERT_TRUE(dec.next(&frame, &have).ok());
    EXPECT_FALSE(have);
}

TEST(ServiceFraming, TruncatedFrameWaitsForMoreBytes)
{
    const auto bytes =
        encodeFrame(FrameType::SweepRequest, sampleRequest().encode());

    // Trickle one byte at a time: at every prefix the decoder must
    // report "no frame yet" with an OK status, then produce exactly
    // one frame at the final byte.
    FrameDecoder dec;
    Frame frame;
    bool have = false;
    for (size_t i = 0; i < bytes.size(); ++i) {
        ASSERT_TRUE(dec.feed(&bytes[i], 1).ok());
        ASSERT_TRUE(dec.next(&frame, &have).ok()) << "byte " << i;
        EXPECT_EQ(have, i == bytes.size() - 1) << "byte " << i;
    }
    ASSERT_TRUE(have);
    EXPECT_EQ(frame.type, FrameType::SweepRequest);
}

TEST(ServiceFraming, InterleavedFramesDecodeInOrder)
{
    std::vector<uint8_t> wire;
    for (uint8_t i = 0; i < 5; ++i) {
        const std::vector<uint8_t> payload(i, i);
        const auto f = encodeFrame(FrameType::Row, payload);
        wire.insert(wire.end(), f.begin(), f.end());
    }
    const auto done = encodeFrame(FrameType::SweepDone,
                                  SweepDoneMsg{}.encode());
    wire.insert(wire.end(), done.begin(), done.end());

    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(wire.data(), wire.size()).ok());
    Frame frame;
    bool have = false;
    for (uint8_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(dec.next(&frame, &have).ok());
        ASSERT_TRUE(have);
        EXPECT_EQ(frame.type, FrameType::Row);
        EXPECT_EQ(frame.payload.size(), i);
    }
    ASSERT_TRUE(dec.next(&frame, &have).ok());
    ASSERT_TRUE(have);
    EXPECT_EQ(frame.type, FrameType::SweepDone);
}

TEST(ServiceFraming, CrcCorruptionLatches)
{
    auto bytes = encodeFrame(FrameType::StatusRequest, {});
    bytes[bytes.size() - 5] ^= 0x40; // flip a bit inside the frame

    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    bool have = true;
    const Status s = dec.next(&frame, &have);
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_FALSE(have);

    // The error latches: feeding good bytes afterwards cannot
    // resynchronize a stream that has already lied once.
    const auto good = encodeFrame(FrameType::StatusRequest, {});
    EXPECT_EQ(dec.feed(good.data(), good.size()).code(),
              StatusCode::Corruption);
    EXPECT_EQ(dec.next(&frame, &have).code(), StatusCode::Corruption);
    EXPECT_FALSE(have);
}

TEST(ServiceFraming, WrongMagicIsCorruption)
{
    auto bytes = encodeFrame(FrameType::StatusRequest, {});
    bytes[0] ^= 0xff;
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    bool have = false;
    EXPECT_EQ(dec.next(&frame, &have).code(), StatusCode::Corruption);
}

TEST(ServiceFraming, OversizedLengthRejectedWithoutAllocation)
{
    // Header claiming a 256MiB payload: must be rejected from the 9
    // header bytes alone — the decoder may never try to buffer it.
    std::vector<uint8_t> bytes;
    const uint32_t magic = kFrameMagic;
    for (int i = 0; i < 4; ++i)
        bytes.push_back((uint8_t)(magic >> (8 * i)));
    bytes.push_back((uint8_t)FrameType::Row);
    const uint32_t huge = 256u << 20;
    for (int i = 0; i < 4; ++i)
        bytes.push_back((uint8_t)(huge >> (8 * i)));

    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    bool have = false;
    EXPECT_EQ(dec.next(&frame, &have).code(), StatusCode::Corruption);
    EXPECT_LT(dec.buffered(), 64u);
}

TEST(ServiceFraming, UnknownFrameTypeIsCorruption)
{
    auto bytes = encodeFrame(FrameType::Row, {});
    bytes[4] = 0x7f; // not a FrameType; rejected before the CRC read
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    bool have = false;
    EXPECT_EQ(dec.next(&frame, &have).code(), StatusCode::Corruption);
    EXPECT_FALSE(have);
}

TEST(ServiceFraming, FuzzedFramesNeverCrashTheDecoder)
{
    // Deterministic mutation fuzz: take valid frames, flip random
    // bytes/truncate/extend, and demand the decoder always returns
    // (OK or Corruption) without producing a bogus frame type.
    Rng rng(0xf00dULL);
    const auto base =
        encodeFrame(FrameType::SweepRequest, sampleRequest().encode());
    for (int round = 0; round < 2000; ++round) {
        std::vector<uint8_t> bytes = base;
        const int mutations = 1 + (int)rng.below(4);
        for (int m = 0; m < mutations; ++m) {
            switch (rng.below(3)) {
              case 0: // flip a byte
                bytes[rng.below(bytes.size())] ^=
                    (uint8_t)(1 + rng.below(255));
                break;
              case 1: // truncate
                bytes.resize(rng.below(bytes.size() + 1));
                break;
              default: // append garbage
                bytes.push_back((uint8_t)rng.below(256));
            }
            if (bytes.empty())
                break;
        }
        FrameDecoder dec;
        (void)dec.feed(bytes.data(), bytes.size());
        Frame frame;
        bool have = false;
        while (dec.next(&frame, &have).ok() && have) {
            EXPECT_TRUE(isKnownFrameType((uint8_t)frame.type));
            have = false;
        }
        EXPECT_LE(dec.buffered(), bytes.size());
    }
}

// --------------------------------------------------------- messages

TEST(ServiceMessages, SweepRequestRoundTrip)
{
    const SweepRequestMsg req = sampleRequest();
    auto decoded = SweepRequestMsg::decode(req.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->tenant, "team-a");
    EXPECT_EQ(decoded->scale, 2u);
    EXPECT_EQ(decoded->maxInsts, 123456u);
    EXPECT_EQ(decoded->deadlineMs, 9000u);
    EXPECT_EQ(decoded->workloads, req.workloads);
    ASSERT_EQ(decoded->configs.size(), 2u);
    EXPECT_EQ(decoded->configs[1].cloakEnabled, 1);
    EXPECT_EQ(decoded->numCells(), 4u);
}

TEST(ServiceMessages, RowAndDoneAndErrorRoundTrip)
{
    RowMsg row;
    row.cell = 7;
    row.fromStore = 1;
    row.errorCode = (uint8_t)StatusCode::DeadlineExceeded;
    row.errorMsg = "too slow";
    row.stats.instructions = 42;
    row.stats.specCyclesSaved = 9;
    auto r = RowMsg::decode(row.encode());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->cell, 7u);
    EXPECT_EQ(r->fromStore, 1);
    EXPECT_EQ(r->error().code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(r->stats.instructions, 42u);
    EXPECT_EQ(r->stats.specCyclesSaved, 9u);

    SweepDoneMsg done;
    done.cells = 4;
    done.errors = 1;
    done.storeHits = 2;
    done.errorsJson = "[{\"row\":\"li/cfg0\"}]";
    auto d = SweepDoneMsg::decode(done.encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->storeHits, 2u);
    EXPECT_EQ(d->errorsJson, done.errorsJson);

    ErrorReplyMsg err;
    err.code = (uint8_t)StatusCode::ResourceExhausted;
    err.message = "queue full";
    auto e = ErrorReplyMsg::decode(err.encode());
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->error().code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(e->error().message(), "queue full");
}

TEST(ServiceMessages, OversizedStringsTruncateOnEncodeAndStillDecode)
{
    // Encode and decode must enforce the *same* string bound: a long
    // error message is truncated (with a marker) by the encoder, and
    // the result decodes cleanly. Before this agreement, a reply
    // whose accumulated error text passed 4 KiB was encoded whole
    // and then rejected client-side as Corruption.
    RowMsg row;
    row.cell = 1;
    row.errorCode = (uint8_t)StatusCode::Internal;
    row.errorMsg.assign(100 * 1024, 'x');
    auto r = RowMsg::decode(row.encode());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->errorMsg.size(), kMaxString);
    EXPECT_NE(r->errorMsg.find(kTruncationMarker), std::string::npos);

    ErrorReplyMsg err;
    err.code = (uint8_t)StatusCode::Internal;
    err.message.assign((1u << 20) + 77, 'y');
    auto e = ErrorReplyMsg::decode(err.encode());
    ASSERT_TRUE(e.ok()) << e.status().toString();
    EXPECT_EQ(e->message.size(), kMaxString);

    // A message exactly at the bound passes through untouched.
    err.message.assign(kMaxString, 'z');
    e = ErrorReplyMsg::decode(err.encode());
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->message, std::string(kMaxString, 'z'));
}

TEST(ServiceMessages, WorstCaseSweepDoneFitsTheFrameBound)
{
    // Max grid (256x256), every cell failed: the bounded errors JSON
    // must keep the SweepDone payload under kMaxFramePayload — this
    // combination used to trip encodeFrame's assert and abort the
    // daemon — and the bounded report must still be valid-shaped
    // JSON that round-trips.
    constexpr size_t kCells = 256 * 256;
    driver::StatsMerger merger(kCells);
    for (size_t job = 0; job < kCells; ++job) {
        merger.setRowKey(job, "wl" + std::to_string(job / 256) +
                                  "/cfg" + std::to_string(job % 256));
        merger.setError(
            job, Status::deadlineExceeded(
                     "cell deadline of 1ms exceeded at record " +
                     std::to_string(job)));
    }
    SweepDoneMsg done;
    done.cells = kCells;
    done.errors = kCells;
    done.errorsJson = merger.errorsJson(kMaxErrorsJson);
    EXPECT_LE(done.errorsJson.size(), kMaxErrorsJson);
    EXPECT_NE(done.errorsJson.find("{\"omitted\":"),
              std::string::npos);
    EXPECT_EQ(done.errorsJson.back(), ']');

    const std::vector<uint8_t> payload = done.encode();
    ASSERT_LE(payload.size(), kMaxFramePayload);
    const auto frame = encodeFrame(FrameType::SweepDone, payload);
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(frame.data(), frame.size()).ok());
    Frame out;
    bool have = false;
    ASSERT_TRUE(dec.next(&out, &have).ok());
    ASSERT_TRUE(have);
    auto d = SweepDoneMsg::decode(out.payload);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    EXPECT_EQ(d->errorsJson, done.errorsJson);
}

TEST(ServiceMessages, StatusReplyRoundTrip)
{
    StatusReplyMsg reply;
    reply.ready = 1;
    reply.queueDepth = 3;
    reply.counters.storeHit = 11;
    reply.counters.protoErrors = 2;
    auto r = StatusReplyMsg::decode(reply.encode());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ready, 1);
    EXPECT_EQ(r->queueDepth, 3u);
    EXPECT_EQ(r->counters.storeHit, 11u);
    EXPECT_EQ(r->counters.protoErrors, 2u);
}

TEST(ServiceMessages, ValidateRejectsBadEnumsAndGeometry)
{
    SweepRequestMsg req = sampleRequest();
    req.configs[1].mode = 17; // not a CloakingMode
    EXPECT_FALSE(req.validate().ok());
    EXPECT_FALSE(SweepRequestMsg::decode(req.encode()).ok());

    req = sampleRequest();
    req.configs[1].dpntAssoc = 3; // does not divide 8192 evenly
    req.configs[1].dpntEntries = 8192;
    // Geometry validation delegates to CloakingConfig::validate so a
    // bad request can never reach a panicking table constructor.
    const bool geometry_ok = req.configs[1].validate().ok();
    if (!geometry_ok) {
        EXPECT_FALSE(SweepRequestMsg::decode(req.encode()).ok());
    }

    req = sampleRequest();
    req.workloads.clear();
    EXPECT_FALSE(req.validate().ok());

    req = sampleRequest();
    req.scale = 0;
    EXPECT_FALSE(req.validate().ok());
}

TEST(ServiceMessages, WorkerJobRequestRoundTrip)
{
    JobRequestMsg req;
    req.token = 0xfeedfaceULL;
    req.workload = "factory.fuzz:42";
    req.scale = 3;
    req.maxInsts = 77777;
    req.deadlineMs = 2500;
    req.fault = (uint8_t)WorkerFault::Crash;
    req.config.cloakEnabled = 1;
    req.config.mode = 1;
    EXPECT_TRUE(req.validate().ok());
    auto r = JobRequestMsg::decode(req.encode());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->token, req.token);
    EXPECT_EQ(r->workload, req.workload);
    EXPECT_EQ(r->scale, 3u);
    EXPECT_EQ(r->maxInsts, 77777u);
    EXPECT_EQ(r->deadlineMs, 2500u);
    EXPECT_EQ(r->fault, (uint8_t)WorkerFault::Crash);
    EXPECT_EQ(r->config.cloakEnabled, 1);
    EXPECT_EQ(r->config.mode, 1);
}

TEST(ServiceMessages, WorkerResultHelloHeartbeatRoundTrip)
{
    JobResultMsg res;
    res.token = 21;
    res.errorCode = (uint8_t)StatusCode::DeadlineExceeded;
    res.errorMsg = "watchdog";
    res.stats.instructions = 1000;
    res.stats.cycles = 4242;
    auto r = JobResultMsg::decode(res.encode());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->token, 21u);
    EXPECT_EQ(r->error().code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(r->error().message(), "watchdog");
    EXPECT_EQ(r->stats.instructions, 1000u);
    EXPECT_EQ(r->stats.cycles, 4242u);

    WorkerHelloMsg hello;
    hello.pid = 12345;
    auto h = WorkerHelloMsg::decode(hello.encode());
    ASSERT_TRUE(h.ok()) << h.status().toString();
    EXPECT_EQ(h->pid, 12345u);
    EXPECT_EQ(h->protoVersion, kWorkerProtoVersion);

    WorkerHeartbeatMsg beat;
    beat.token = 21;
    beat.seq = 9;
    auto b = WorkerHeartbeatMsg::decode(beat.encode());
    ASSERT_TRUE(b.ok()) << b.status().toString();
    EXPECT_EQ(b->token, 21u);
    EXPECT_EQ(b->seq, 9u);
}

TEST(ServiceMessages, DecodersSurviveRandomBytes)
{
    // Random payload fuzz against every message decoder: whatever
    // the bytes, the decoder must return a Status — never panic,
    // never hand out an un-validated enum.
    Rng rng(0xbeefULL);
    for (int round = 0; round < 2000; ++round) {
        std::vector<uint8_t> bytes(rng.below(200));
        for (uint8_t &b : bytes)
            b = (uint8_t)rng.below(256);
        auto req = SweepRequestMsg::decode(bytes);
        if (req.ok()) {
            EXPECT_TRUE(req->validate().ok());
            for (const CellConfigMsg &c : req->configs)
                EXPECT_TRUE(c.validate().ok());
        }
        auto row = RowMsg::decode(bytes);
        if (row.ok()) {
            EXPECT_LE(row->errorCode,
                      (uint8_t)StatusCode::Unavailable);
        }
        (void)SweepDoneMsg::decode(bytes);
        (void)ErrorReplyMsg::decode(bytes);
        (void)StatusReplyMsg::decode(bytes);
        auto job = JobRequestMsg::decode(bytes);
        if (job.ok()) {
            EXPECT_TRUE(job->config.validate().ok());
        }
        auto result = JobResultMsg::decode(bytes);
        if (result.ok()) {
            EXPECT_LE(result->errorCode,
                      (uint8_t)StatusCode::Unavailable);
        }
        (void)WorkerHelloMsg::decode(bytes);
        (void)WorkerHeartbeatMsg::decode(bytes);
    }
}

// ------------------------------------------------------ fingerprint

TEST(ServiceFingerprint, SensitiveToEveryInput)
{
    const SweepRequestMsg req = sampleRequest();
    const CellConfigMsg &cfg = req.configs[1];
    const uint64_t base = cellFingerprint("li", cfg, 1, 1000);

    EXPECT_EQ(cellFingerprint("li", cfg, 1, 1000), base);
    EXPECT_NE(cellFingerprint("com", cfg, 1, 1000), base);
    EXPECT_NE(cellFingerprint("li", cfg, 2, 1000), base);
    EXPECT_NE(cellFingerprint("li", cfg, 1, 1001), base);

    CellConfigMsg other = cfg;
    other.dpntEntries *= 2;
    EXPECT_NE(cellFingerprint("li", other, 1, 1000), base);
    other = cfg;
    other.recovery = (uint8_t)RecoveryModel::Squash;
    EXPECT_NE(cellFingerprint("li", other, 1, 1000), base);
}

} // namespace
} // namespace rarpred::service
