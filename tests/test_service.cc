/**
 * @file
 * End-to-end tests of the resident sweep service: admission control
 * and shedding, deadline propagation, the circuit breaker, store
 * corruption healing, client-disconnect survival, graceful drain —
 * all against an in-process SweepDaemon — plus subprocess drills
 * against the real rarpredd binary, including the acceptance
 * contract: kill -9 mid-sweep, restart over the same store, replay
 * byte-identically with store hits. (The long-running chaos soak
 * lives in test_service_soak.cc under the "slow" label.)
 *
 * The subprocess tests self-skip when the service binaries are not
 * built in this tree (RARPRED_SERVICE_DIR).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "cpu/ooo_cpu.hh"
#include "driver/trace_cache.hh"
#include "driver/worker_pool.hh"
#include "faultinject/driver_faults.hh"
#include "fd_test_util.hh"
#include "service_test_util.hh"
#include "vm/recorded_trace.hh"
#include "vm/trace.hh"
#include "workload/workload.hh"

namespace rarpred::service {
namespace {

using namespace std::chrono_literals;

class ServiceTest : public ::testing::Test
{
  protected:
    void TearDown() override { disarmDriverFaults(); }
};

// -------------------------------------------------- basic lifecycle

TEST_F(ServiceTest, StatusProbeReportsReady)
{
    Paths paths("status");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    const ServiceClient client(paths.socket);
    auto reply = client.status();
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->ready, 1);
    EXPECT_EQ(reply->draining, 0);
    EXPECT_EQ(reply->counters.admitted, 0u);
    daemon.stop();

    // After the drain the socket is gone; probes are Unavailable.
    EXPECT_EQ(client.status().status().code(),
              StatusCode::Unavailable);
}

TEST_F(ServiceTest, SweepMatchesDirectSimulation)
{
    Paths paths("direct");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    const SweepRequestMsg req = smallRequest();
    const ServiceClient client(paths.socket);
    auto reply = client.sweep(req);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    ASSERT_EQ(reply->rows.size(), 2u);
    EXPECT_EQ(reply->done.errors, 0u);

    // The daemon's answer must equal running the same cells here.
    driver::TraceCache cache;
    const auto trace =
        cache.get(findWorkload("li"), req.scale, req.maxInsts);
    for (size_t ci = 0; ci < req.configs.size(); ++ci) {
        RecordedTraceSource replay(*trace);
        CpuConfig core;
        core.memDep = req.configs[ci].memDepPolicy();
        OooCpu cpu(core, req.configs[ci].toTimingConfig());
        drainTraceBatched(replay, cpu);
        const CpuStats want = cpu.stats();
        const CpuStats &got = reply->rows[ci].stats;
        EXPECT_EQ(got.instructions, want.instructions) << ci;
        EXPECT_EQ(got.cycles, want.cycles) << ci;
        EXPECT_EQ(got.loads, want.loads) << ci;
        EXPECT_EQ(got.valueSpecUsed, want.valueSpecUsed) << ci;
    }
    daemon.stop();
}

TEST_F(ServiceTest, WarmStoreServesByteIdenticalReplies)
{
    Paths paths("warm");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    const SweepRequestMsg req = smallRequest();
    const ServiceClient client(paths.socket);
    auto cold = client.sweep(req);
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    EXPECT_EQ(cold->done.storeHits, 0u);

    auto warm = client.sweep(req);
    ASSERT_TRUE(warm.ok()) << warm.status().toString();
    EXPECT_EQ(warm->done.storeHits, 2u);
    for (const RowMsg &row : warm->rows)
        EXPECT_EQ(row.fromStore, 1);

    // The caller-visible table is identical cold vs warm: reply
    // provenance must never leak into the deterministic artifact.
    EXPECT_EQ(ServiceClient::replyTable(req, *cold),
              ServiceClient::replyTable(req, *warm));

    const auto counters = daemon.counters();
    EXPECT_EQ(counters.storeHit, 2u);
    EXPECT_EQ(counters.storeMiss, 2u);
    EXPECT_EQ(counters.cellsSimulated, 2u);
    daemon.stop();
}

// ----------------------------------------------- store corruption

TEST_F(ServiceTest, CorruptStoreEntryIsHealedByResimulation)
{
    Paths paths("heal");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    // The first durable write is bit-flipped after its CRC is
    // sealed: the entry lands corrupt on disk.
    armDriverFault(DriverFaultPoint::StoreCorrupt, 0);

    const SweepRequestMsg req = smallRequest();
    const ServiceClient client(paths.socket);
    auto first = client.sweep(req);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(first->done.errors, 0u);

    // The second sweep finds the corrupt entry, rejects it by CRC,
    // quarantines the file, re-simulates, and overwrites — the reply
    // is byte-identical. Corruption costs work; it never answers.
    auto second = client.sweep(req);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_EQ(second->done.errors, 0u);
    EXPECT_EQ(ServiceClient::replyTable(req, *first),
              ServiceClient::replyTable(req, *second));
    EXPECT_EQ(daemon.counters().storeCorrupt, 1u);
    EXPECT_EQ(second->done.storeHits, 1u); // the uncorrupted cell

    // Third time everything is served from the (healed) store.
    auto third = client.sweep(req);
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(third->done.storeHits, 2u);
    EXPECT_EQ(ServiceClient::replyTable(req, *first),
              ServiceClient::replyTable(req, *third));
    daemon.stop();
}

TEST_F(ServiceTest, FullDiskSkipsCachingButStillServesResults)
{
    Paths paths("enospc");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    // Every durable write hits a full disk for the whole first
    // sweep. A cache that cannot persist is a cache miss, never a
    // failed cell: the reply must complete with zero errors.
    armDriverFault(DriverFaultPoint::StoreEnospc,
                   kDriverFaultAnyIndex, /*times=*/100);
    const SweepRequestMsg req = smallRequest();
    const ServiceClient client(paths.socket);
    auto first = client.sweep(req);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(first->done.errors, 0u);
    EXPECT_EQ(daemon.counters().storeWrites, 0u)
        << "a failed put must not be counted as persisted";
    EXPECT_EQ(daemon.counters().cellsSimulated, 2u);

    // Disk recovered: the replay re-simulates (nothing was cached)
    // byte-identically and persists this time.
    disarmDriverFaults();
    auto second = client.sweep(req);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_EQ(second->done.storeHits, 0u);
    EXPECT_EQ(daemon.counters().storeWrites, 2u);
    EXPECT_EQ(ServiceClient::replyTable(req, *first),
              ServiceClient::replyTable(req, *second));
    daemon.stop();
}

// ---------------------------------------------- client deadlines

TEST_F(ServiceTest, ClientTimeoutBoundsASilentServer)
{
    // A listener that accepts connections and then never says a
    // word: without a client-side deadline, status() would block
    // forever on a daemon that wedged after accept.
    const std::string path = ::testing::TempDir() + "silent.sock";
    std::remove(path.c_str());
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, (const sockaddr *)&addr, sizeof(addr)), 0);
    ASSERT_EQ(::listen(lfd, 4), 0);

    const ServiceClient client(path, /*timeout_ms=*/300);
    const auto t0 = std::chrono::steady_clock::now();
    auto probe = client.status();
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    EXPECT_EQ(probe.status().code(), StatusCode::DeadlineExceeded)
        << probe.status().toString();
    EXPECT_LT(waited.count(), 5000) << "deadline did not bound the wait";

    auto swept = client.sweep(smallRequest());
    EXPECT_EQ(swept.status().code(), StatusCode::DeadlineExceeded)
        << swept.status().toString();
    ::close(lfd);
    std::remove(path.c_str());
}

// ------------------------------------------------------- admission

TEST_F(ServiceTest, FullQueueShedsWithResourceExhausted)
{
    Paths paths("shed");
    DaemonConfig config = testDaemonConfig(paths);
    config.maxQueue = 0; // admit nothing: every request sheds
    SweepDaemon daemon(config);
    ASSERT_TRUE(daemon.serve().ok());

    const ServiceClient client(paths.socket);
    const auto reply = client.sweep(smallRequest());
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::ResourceExhausted);
    const auto counters = daemon.counters();
    EXPECT_EQ(counters.shed, 1u);
    EXPECT_EQ(counters.admitted, 0u);
    daemon.stop();
}

TEST_F(ServiceTest, ConnectionFloodIsShedAtTheCap)
{
    Paths paths("conncap");
    DaemonConfig config = testDaemonConfig(paths);
    config.maxConnections = 2;
    SweepDaemon daemon(config);
    ASSERT_TRUE(daemon.serve().ok());

    // Two idle connections pin the cap (their handlers sit in the
    // request-read poll)...
    const int idle1 = rawConnect(paths.socket);
    const int idle2 = rawConnect(paths.socket);
    ASSERT_GE(idle1, 0);
    ASSERT_GE(idle2, 0);

    // ...so the third is refused up front with ResourceExhausted —
    // no handler thread is spent on it.
    const int fd = rawConnect(paths.socket);
    ASSERT_GE(fd, 0);
    FrameDecoder dec;
    Frame frame;
    bool have = false;
    uint8_t buf[4096];
    while (!have) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "daemon closed without an ErrorReply";
        ASSERT_TRUE(dec.feed(buf, (size_t)n).ok());
        ASSERT_TRUE(dec.next(&frame, &have).ok());
    }
    ::close(fd);
    ASSERT_EQ(frame.type, FrameType::ErrorReply);
    auto err = ErrorReplyMsg::decode(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->error().code(), StatusCode::ResourceExhausted);
    EXPECT_GE(daemon.counters().shed, 1u);

    // Once the flood clears, its handler slots are reaped and the
    // daemon serves again (retry: the reap happens on the *next*
    // accept, after the idle handlers notice EOF).
    ::close(idle1);
    ::close(idle2);
    const ServiceClient client(paths.socket);
    Result<SweepReply> reply = Status::unavailable("not tried");
    for (int attempt = 0; attempt < 200; ++attempt) {
        reply = client.sweep(smallRequest());
        if (reply.ok())
            break;
        std::this_thread::sleep_for(25ms);
    }
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->done.errors, 0u);
    daemon.stop();
}

TEST_F(ServiceTest, MalformedRequestGetsErrorReplyNotCrash)
{
    Paths paths("garbage");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    // Raw socket, straight garbage: the daemon must answer with an
    // ErrorReply frame and keep serving.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, paths.socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, (const sockaddr *)&addr, sizeof(addr)),
              0);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);

    FrameDecoder dec;
    Frame frame;
    bool have = false;
    uint8_t buf[4096];
    while (!have) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "daemon closed without an ErrorReply";
        ASSERT_TRUE(dec.feed(buf, (size_t)n).ok());
        ASSERT_TRUE(dec.next(&frame, &have).ok());
    }
    ::close(fd);
    EXPECT_EQ(frame.type, FrameType::ErrorReply);
    auto err = ErrorReplyMsg::decode(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->error().code(), StatusCode::Corruption);
    EXPECT_GE(daemon.counters().protoErrors, 1u);

    // Still serving.
    const ServiceClient client(paths.socket);
    EXPECT_TRUE(client.status().ok());
    daemon.stop();
}

TEST_F(ServiceTest, TornRequestIsARecoverableProtocolError)
{
    Paths paths("torn");
    DaemonConfig config = testDaemonConfig(paths);
    config.requestTimeoutMs = 500;
    SweepDaemon daemon(config);
    ASSERT_TRUE(daemon.serve().ok());

    armDriverFault(DriverFaultPoint::RequestTorn,
                   kDriverFaultAnyIndex, 1);
    const ServiceClient client(paths.socket);
    const auto reply = client.sweep(smallRequest());
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::Corruption);
    EXPECT_GE(daemon.counters().protoErrors, 1u);

    // The torn connection cost nothing but itself.
    const auto ok = client.sweep(smallRequest());
    EXPECT_TRUE(ok.ok()) << ok.status().toString();
    daemon.stop();
}

// -------------------------------------------- deadline propagation

TEST_F(ServiceTest, DeadlinePropagatesIntoTheJobWatchdog)
{
    Paths paths("deadline");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    // Wedge the first job: the request deadline, propagated into the
    // per-job watchdog, must unwind it as DeadlineExceeded while the
    // daemon stays healthy. The second cell normally finishes well
    // inside the deadline; under a sanitizer's slowdown it may
    // legitimately blow it too, so only its *kind* of failure is
    // pinned down.
    armDriverFault(DriverFaultPoint::JobHang, 0);
    SweepRequestMsg req = smallRequest();
    req.deadlineMs = 1000;
    const ServiceClient client(paths.socket);
    const auto reply = client.sweep(req);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_GE(reply->done.errors, 1u);
    EXPECT_EQ(reply->rows[0].error().code(),
              StatusCode::DeadlineExceeded);
    if (reply->rows[1].errorCode != 0) {
        EXPECT_EQ(reply->rows[1].error().code(),
                  StatusCode::DeadlineExceeded);
    }
    EXPECT_GE(daemon.counters().deadlineExceeded, 1u);

    // The machine-readable error report names the cell the same way
    // finishSweep() would.
    EXPECT_NE(reply->done.errorsJson.find("\"row\":\"li/cfg0\""),
              std::string::npos)
        << reply->done.errorsJson;
    EXPECT_NE(reply->done.errorsJson.find("deadline-exceeded"),
              std::string::npos);
    daemon.stop();
}

// ------------------------------------------------- circuit breaker

TEST_F(ServiceTest, BreakerOpensAfterRepeatedFailuresAndProbesShut)
{
    Paths paths("breaker");
    DaemonConfig config = testDaemonConfig(paths);
    config.breaker.openAfter = 2;
    config.breaker.probeEvery = 2;
    SweepDaemon daemon(config);
    ASSERT_TRUE(daemon.serve().ok());

    SweepRequestMsg req = smallRequest();
    req.configs.resize(1); // one cell: one fingerprint to poison
    const ServiceClient client(paths.socket);

    // Two requests whose only cell crashes: breaker opens.
    armDriverFault(DriverFaultPoint::JobCrash, 0, 2);
    for (int i = 0; i < 2; ++i) {
        const auto reply = client.sweep(req);
        ASSERT_TRUE(reply.ok()) << reply.status().toString();
        EXPECT_EQ(reply->rows[0].error().code(), StatusCode::Internal)
            << "request " << i;
    }

    // Open: the next attempt is refused without running anything
    // (the fault budget is spent — a run would have succeeded).
    auto refused = client.sweep(req);
    ASSERT_TRUE(refused.ok());
    EXPECT_EQ(refused->rows[0].error().code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(daemon.counters().breakerOpen, 1u);

    // Every second blocked attempt is a half-open probe; the now-
    // healthy cell closes the breaker and lands in the store.
    auto probe = client.sweep(req);
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(probe->rows[0].errorCode, 0);
    EXPECT_EQ(probe->done.errors, 0u);

    auto after = client.sweep(req);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->rows[0].errorCode, 0);
    EXPECT_EQ(after->done.storeHits, 1u);
    daemon.stop();
}

// --------------------------------------- disconnects and draining

TEST_F(ServiceTest, ClientDisconnectMidStreamDoesNotKillTheDaemon)
{
    Paths paths("drop");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    // The daemon "loses" the client before the first row.
    armDriverFault(DriverFaultPoint::ConnDrop, 0);
    const ServiceClient client(paths.socket);
    const auto dropped = client.sweep(smallRequest());
    EXPECT_FALSE(dropped.ok());
    EXPECT_EQ(daemon.counters().connDropped, 1u);

    // SIGPIPE was not our end: the daemon keeps serving, and the
    // retried request is answered from the store (the dropped
    // reply's cells were persisted before streaming).
    const auto retried = client.sweep(smallRequest());
    ASSERT_TRUE(retried.ok()) << retried.status().toString();
    EXPECT_EQ(retried->done.storeHits, 2u);
    daemon.stop();
}

TEST_F(ServiceTest, DrainFinishesAdmittedWorkBeforeExit)
{
    Paths paths("drain");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    // Launch a sweep, wait until it is *admitted*, then drain: the
    // admitted request must complete its reply stream, not be
    // abandoned.
    const ServiceClient client(paths.socket);
    std::atomic<bool> ok{false};
    std::thread sweeper([&] {
        const auto reply = client.sweep(smallRequest());
        ok.store(reply.ok() && reply->done.errors == 0);
    });
    for (int i = 0; i < 400 && daemon.counters().admitted == 0; ++i)
        std::this_thread::sleep_for(5ms);
    ASSERT_EQ(daemon.counters().admitted, 1u);
    daemon.stop();
    sweeper.join();
    EXPECT_TRUE(ok.load());
}

// ------------------------------------------- subprocess e2e drills

TEST_F(ServiceTest, KillNineRestartReplayIsByteIdentical)
{
    // The acceptance drill: SIGKILL the daemon mid-sweep (via the
    // daemon_kill fault, right after the 2nd durable store write),
    // restart it over the same store, replay the request, and demand
    // (a) a byte-identical merged table and (b) store hits from the
    // cells the killed daemon completed.
    if (!serviceBinariesBuilt())
        GTEST_SKIP() << "service binaries not built in this tree";

    const SweepRequestMsg req = [] {
        SweepRequestMsg r = smallRequest();
        r.workloads = {"li", "com"};
        return r;
    }();

    // Reference run against a pristine daemon/store.
    Paths ref_paths("e2e_ref");
    const int ref_pid = spawnDaemon("", ref_paths);
    ASSERT_GT(ref_pid, 0);
    auto reference = ServiceClient(ref_paths.socket).sweep(req);
    ASSERT_TRUE(reference.ok()) << reference.status().toString();
    stopDaemon(ref_pid);
    const std::string want =
        ServiceClient::replyTable(req, *reference);

    // Murdered run: the daemon dies mid-sweep with 2 of 4 cells
    // durably in the store.
    Paths paths("e2e_kill");
    const int killed_pid =
        spawnDaemon("RARPRED_FAULT=daemon_kill:1", paths);
    ASSERT_GT(killed_pid, 0);
    const auto interrupted = ServiceClient(paths.socket).sweep(req);
    EXPECT_FALSE(interrupted.ok()); // connection died mid-request
    for (int i = 0; i < 200 && ::kill(killed_pid, 0) == 0; ++i)
        std::this_thread::sleep_for(25ms);

    // Restart over the same store and replay.
    const int restarted_pid = spawnDaemon("", paths);
    ASSERT_GT(restarted_pid, 0);
    auto replayed = ServiceClient(paths.socket).sweep(req);
    ASSERT_TRUE(replayed.ok()) << replayed.status().toString();
    EXPECT_EQ(ServiceClient::replyTable(req, *replayed), want);
    // Zero loss: the killed daemon's completed cells came back from
    // the store.
    EXPECT_EQ(replayed->done.storeHits, 2u);
    EXPECT_EQ(replayed->done.errors, 0u);
    stopDaemon(restarted_pid);
}

// ------------------------------------- factory workloads over the wire

TEST_F(ServiceTest, FactoryWorkloadNamesResolveInSweepRequests)
{
    // Parameterized presets and dynamic fuzz workloads go through
    // the same lookupWorkload() the CLI drivers use, so a sweep
    // request can name them directly.
    Paths paths("factory");
    SweepDaemon daemon(testDaemonConfig(paths));
    ASSERT_TRUE(daemon.serve().ok());

    SweepRequestMsg req = smallRequest();
    req.workloads = {"li", "factory.rar_heavy", "factory.fuzz:42"};
    const ServiceClient client(paths.socket);
    auto reply = client.sweep(req);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    ASSERT_EQ(reply->rows.size(), 6u);
    EXPECT_EQ(reply->done.errors, 0u);
    for (const RowMsg &row : reply->rows) {
        EXPECT_EQ(row.errorCode, 0);
        EXPECT_GT(row.stats.instructions, 0u);
    }

    // A bogus factory name fails the whole request up front with
    // NotFound — no partial grid, no simulation work sunk.
    req.workloads = {"factory.no_such_preset"};
    EXPECT_EQ(client.sweep(req).status().code(),
              StatusCode::NotFound);
    daemon.stop();
}

// --------------------------------------- process-isolated execution

TEST_F(ServiceTest, IsolateJobsIsByteIdenticalAndLeavesNoZombies)
{
    if (driver::WorkerPool::resolveWorkerBinary("").empty())
        GTEST_SKIP() << "rarpred-worker not built in this tree";

    const SweepRequestMsg req = [] {
        SweepRequestMsg r = smallRequest();
        r.workloads = {"li", "factory.fuzz:42"};
        return r;
    }();

    // In-process reference.
    Paths ref_paths("iso_ref");
    SweepDaemon ref(testDaemonConfig(ref_paths));
    ASSERT_TRUE(ref.serve().ok());
    auto reference = ServiceClient(ref_paths.socket).sweep(req);
    ASSERT_TRUE(reference.ok()) << reference.status().toString();
    ref.stop();

    // Same request, every cell computed in a worker process.
    Paths paths("iso");
    DaemonConfig config = testDaemonConfig(paths);
    config.isolateJobs = true;
    SweepDaemon daemon(config);
    ASSERT_TRUE(daemon.serve().ok());
    auto isolated = ServiceClient(paths.socket).sweep(req);
    ASSERT_TRUE(isolated.ok()) << isolated.status().toString();
    EXPECT_EQ(ServiceClient::replyTable(req, *isolated),
              ServiceClient::replyTable(req, *reference));

    ASSERT_NE(daemon.workerPool(), nullptr);
    daemon.stop();
    const driver::WorkerPoolStats stats =
        daemon.workerPool()->stats();
    EXPECT_GE(stats.jobsCompleted, 4u)
        << "cells did not actually run out of process";
    EXPECT_GE(stats.spawned, 1u);
    EXPECT_EQ(stats.spawned, stats.reaped)
        << "drain left worker zombies";
    // Wildcard wait finds nothing at all: the drained daemon's pool
    // reaped every child it ever forked.
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST_F(ServiceTest, IsolatedWorkersInheritOnlyTheirJobSocket)
{
    // Workers fork while the daemon's listen socket, wake pipe and
    // the client's connection (both ends live in this process) are
    // open. None of those may reach a worker: it keeps only stdio and
    // its own job socket at fd 3.
    if (driver::WorkerPool::resolveWorkerBinary("").empty())
        GTEST_SKIP() << "rarpred-worker not built in this tree";
    std::set<int> want = testutil::inheritableFds();
    want.insert(3);

    Paths paths("isofds");
    DaemonConfig config = testDaemonConfig(paths);
    config.isolateJobs = true;
    config.workers = 4;
    SweepDaemon daemon(config);
    ASSERT_TRUE(daemon.serve().ok());
    SweepRequestMsg req = smallRequest();
    req.workloads = {"li", "com"};
    auto reply = ServiceClient(paths.socket).sweep(req);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->done.errors, 0u);

    ASSERT_NE(daemon.workerPool(), nullptr);
    const std::vector<int> kids = testutil::childPids();
    EXPECT_EQ(kids.size(), daemon.workerPool()->stats().spawned);
    EXPECT_GE(kids.size(), 1u);
    for (const int pid : kids)
        EXPECT_EQ(testutil::openFds(pid), want) << "worker pid " << pid;
    daemon.stop();
}

TEST_F(ServiceTest, IsolatedDaemonSurvivesWorkerCrashEndToEnd)
{
    // Acceptance drill against the real rarpredd: with
    // --isolate-jobs, SIGKILLing a worker mid-job (worker_crash)
    // must cost a retry, not the daemon — the reply stays
    // byte-identical to an unfaulted, un-isolated run.
    if (!serviceBinariesBuilt())
        GTEST_SKIP() << "service binaries not built in this tree";

    const SweepRequestMsg req = smallRequest();

    Paths ref_paths("isoe2e_ref");
    const int ref_pid = spawnDaemon("", ref_paths);
    ASSERT_GT(ref_pid, 0);
    auto reference = ServiceClient(ref_paths.socket).sweep(req);
    ASSERT_TRUE(reference.ok()) << reference.status().toString();
    stopDaemon(ref_pid);

    Paths paths("isoe2e");
    const int pid = spawnDaemon("RARPRED_FAULT=worker_crash:1", paths,
                                "--isolate-jobs");
    ASSERT_GT(pid, 0);
    auto isolated = ServiceClient(paths.socket).sweep(req);
    ASSERT_TRUE(isolated.ok()) << isolated.status().toString();
    EXPECT_EQ(isolated->done.errors, 0u);
    EXPECT_EQ(ServiceClient::replyTable(req, *isolated),
              ServiceClient::replyTable(req, *reference));
    stopDaemon(pid);
}

TEST_F(ServiceTest, CliEndToEnd)
{
    if (!serviceBinariesBuilt())
        GTEST_SKIP() << "service binaries not built in this tree";
    const std::string cli =
        std::string(RARPRED_SERVICE_DIR) + "/rarpred-cli";
    if (!std::ifstream(cli).good())
        GTEST_SKIP() << "rarpred-cli not built in this tree";

    Paths paths("cli");
    const int pid = spawnDaemon("", paths);
    ASSERT_GT(pid, 0);

    const std::string dir = ::testing::TempDir();
    const std::string out1 = dir + "rarpred_cli1.out";
    const std::string out2 = dir + "rarpred_cli2.out";
    const std::string base = cli + " --socket=" + paths.socket;
    EXPECT_EQ(std::system((base + " --status >/dev/null").c_str()),
              0);
    // Factory names ride the same positional-workload path as the
    // 18 paper workloads, including a dynamic fuzz workload.
    const std::string sweep =
        " --max-insts=20000 li factory.fuzz:7 >";
    EXPECT_EQ(
        std::system((base + sweep + out1 + " 2>/dev/null").c_str()),
        0);
    EXPECT_EQ(
        std::system((base + sweep + out2 + " 2>/dev/null").c_str()),
        0);
    const std::string cold = readWholeFile(out1);
    ASSERT_FALSE(cold.empty());
    EXPECT_EQ(cold, readWholeFile(out2)); // cold vs warm: identical
    EXPECT_NE(cold.find("li/cfg0.instructions 20000"),
              std::string::npos)
        << cold;
    EXPECT_NE(cold.find("factory.fuzz:7/cfg0.instructions"),
              std::string::npos)
        << cold;
    stopDaemon(pid);
    std::remove(out1.c_str());
    std::remove(out2.c_str());
}

} // namespace
} // namespace rarpred::service
