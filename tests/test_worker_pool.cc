/**
 * @file
 * Crash-containment battery for the process-isolated worker pool
 * (driver/worker_pool.hh). The contract under test: results computed
 * in sandboxed worker processes are byte-identical to the serial
 * in-process reference, and every way a worker can die — SIGKILL
 * mid-job, a wedge with no heartbeats, a torn result stream, spawn
 * flapping, a missing worker binary — costs at most a retry or a
 * transparent in-process fallback, never the sweep and never the
 * host process. After stop(), every child has been reaped: a drained
 * pool leaves no zombies behind.
 *
 * Self-skips when the rarpred-worker binary is not built in this
 * tree (the pool resolves it next to the test executable, then in
 * the sibling driver/ directory).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "driver/sim_job_runner.hh"
#include "driver/sweep.hh"
#include "driver/worker_pool.hh"
#include "faultinject/driver_faults.hh"
#include "fd_test_util.hh"
#include "service/proto.hh"
#include "workload/workload.hh"

namespace rarpred::driver {
namespace {

constexpr uint64_t kMaxInsts = 20000;

class WorkerPoolTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (WorkerPool::resolveWorkerBinary("").empty())
            GTEST_SKIP() << "rarpred-worker not built in this tree";
    }

    void
    TearDown() override
    {
        disarmDriverFaults();
        ::unsetenv("RARPRED_WORKER_BIN");
    }
};

/**
 * The chaos drills additionally depend on the kernel delivering
 * SIGCHLD through the pool's self-pipe promptly enough to observe
 * crash/hang recovery within test deadlines. Probe explicitly and
 * skip — not fail — where the guarantee is absent (some container
 * kernels and pid-namespace setups); the byte-identity and fallback
 * tests above still run everywhere.
 */
class WorkerPoolChaosTest : public WorkerPoolTest
{
  protected:
    void
    SetUp() override
    {
        WorkerPoolTest::SetUp();
        if (IsSkipped())
            return;
        if (!WorkerPool::probeChildReapCapability())
            GTEST_SKIP() << "kernel lacks the SIGCHLD self-pipe "
                            "delivery ordering the chaos drills need";
    }
};

/** Two workloads x {base core, RAR cloaking}: 4 cells, sub-second. */
std::vector<const Workload *>
testWorkloads()
{
    const auto all = allWorkloadPtrs();
    return {all[0], all[1]};
}

std::vector<service::CellConfigMsg>
testGrid()
{
    service::CellConfigMsg base;
    base.cloakEnabled = 0;
    service::CellConfigMsg rar;
    rar.cloakEnabled = 1;
    return {base, rar};
}

struct GridRun
{
    std::vector<CpuStats> cells;
    WorkerPoolStats pool;
    bool hadPool = false;
    Status status;
};

/** Run the test grid; procWorkers == 0 is the in-process reference. */
GridRun
runGrid(unsigned proc_workers, uint64_t heartbeat_ms = 10000)
{
    RunnerConfig rc;
    rc.workers = proc_workers != 0 ? proc_workers : 1;
    rc.maxInsts = kMaxInsts;
    rc.procWorkers = proc_workers;
    rc.workerHeartbeatTimeoutMs = heartbeat_ms;
    SimJobRunner runner(rc);

    const auto workloads = testWorkloads();
    const auto grid = testGrid();
    auto swept = runCellSweep(runner, workloads, grid);

    GridRun out;
    out.status = swept.status;
    if (swept.status.ok())
        for (size_t i = 0; i < swept.size(); ++i)
            out.cells.push_back(swept[i]);
    if (WorkerPool *pool = runner.workerPool()) {
        out.pool = pool->stats();
        out.hadPool = true;
    }
    return out;
}

void
expectByteIdentical(const GridRun &got, const GridRun &want)
{
    ASSERT_TRUE(got.status.ok()) << got.status.toString();
    ASSERT_TRUE(want.status.ok()) << want.status.toString();
    ASSERT_EQ(got.cells.size(), want.cells.size());
    for (size_t i = 0; i < got.cells.size(); ++i)
        EXPECT_EQ(std::memcmp(&got.cells[i], &want.cells[i],
                              sizeof(CpuStats)),
                  0)
            << "cell " << i << " diverged from the serial reference";
}

// ------------------------------------------------------- byte identity

TEST_F(WorkerPoolTest, ProcResultsMatchSerialByteForByte)
{
    const GridRun serial = runGrid(0);
    const GridRun proc = runGrid(2);
    expectByteIdentical(proc, serial);
    ASSERT_TRUE(proc.hadPool);
    EXPECT_GE(proc.pool.spawned, 1u);
    EXPECT_EQ(proc.pool.jobsFailed, 0u);
    EXPECT_EQ(proc.pool.restarts, 0u);
    EXPECT_FALSE(proc.pool.degraded);
    // Every dispatched job beaconed at least once on receipt.
    EXPECT_GE(proc.pool.heartbeats, proc.pool.jobsCompleted);
}

// ------------------------------------------------------ crash drills

TEST_F(WorkerPoolChaosTest, SigkilledWorkerIsContainedAndRetried)
{
    const GridRun serial = runGrid(0);
    // The parent arms and consumes the fault, so the worker holding
    // job 2 raises SIGKILL mid-job exactly once; the retry of that
    // attempt runs clean on a respawned worker.
    armDriverFault(DriverFaultPoint::WorkerCrash, 2);
    const GridRun proc = runGrid(2);
    expectByteIdentical(proc, serial);
    ASSERT_TRUE(proc.hadPool);
    EXPECT_GE(proc.pool.crashes, 1u);
    EXPECT_GE(proc.pool.restarts, 1u);
    EXPECT_FALSE(proc.pool.degraded);
}

TEST_F(WorkerPoolChaosTest, HungWorkerIsKilledAtTheHeartbeatDeadline)
{
    const GridRun serial = runGrid(0);
    armDriverFault(DriverFaultPoint::WorkerHang, 1);
    // A tight heartbeat deadline so the wedge is caught quickly; the
    // workload is small enough that a healthy worker beacons well
    // inside it.
    const GridRun proc = runGrid(2, /*heartbeat_ms=*/1500);
    expectByteIdentical(proc, serial);
    ASSERT_TRUE(proc.hadPool);
    EXPECT_GE(proc.pool.hangKills, 1u);
    EXPECT_FALSE(proc.pool.degraded);
}

TEST_F(WorkerPoolChaosTest, TornResultIsRejectedByCrcAndRetried)
{
    const GridRun serial = runGrid(0);
    armDriverFault(DriverFaultPoint::WorkerResultTorn, 1);
    const GridRun proc = runGrid(2);
    expectByteIdentical(proc, serial);
    ASSERT_TRUE(proc.hadPool);
    EXPECT_GE(proc.pool.tornResults, 1u);
    EXPECT_FALSE(proc.pool.degraded);
}

TEST_F(WorkerPoolTest, DuplicateResultFrameIsDroppedNotMisMatched)
{
    const GridRun serial = runGrid(0);
    // The worker holding job 0 sends its JobResult twice. The copy
    // lingers in the connection's byte stream until the next dispatch
    // to that worker, which must recognize the stale token, drop the
    // frame, and keep waiting for its own result — never credit job
    // 0's stats to a different cell. One worker guarantees the
    // poisoned stream is reused.
    armDriverFault(DriverFaultPoint::WorkerResultDup, 0);
    const GridRun proc = runGrid(1);
    expectByteIdentical(proc, serial);
    ASSERT_TRUE(proc.hadPool);
    EXPECT_GE(proc.pool.staleResults, 1u);
    EXPECT_EQ(proc.pool.jobsFailed, 0u);
    EXPECT_FALSE(proc.pool.degraded);
}

// ------------------------------------------- degradation + fallback

TEST_F(WorkerPoolTest, MissingWorkerBinaryFallsBackInProcess)
{
    const GridRun serial = runGrid(0);
    // The env override wins binary resolution, so the pool cannot
    // find a worker to exec: it must degrade at start() and every
    // cell must run in-process — same results, no failures.
    ::setenv("RARPRED_WORKER_BIN", "/nonexistent/rarpred-worker", 1);
    const GridRun proc = runGrid(2);
    expectByteIdentical(proc, serial);
    ASSERT_TRUE(proc.hadPool);
    EXPECT_TRUE(proc.pool.degraded);
    EXPECT_EQ(proc.pool.spawned, 0u);
    EXPECT_EQ(proc.pool.jobsDispatched, 0u);
}

TEST_F(WorkerPoolChaosTest, FlappingSpawnsDegradeThePoolNotTheSweep)
{
    const GridRun serial = runGrid(0);
    // Every spawn "succeeds" as a process that exits before its
    // hello. The flap detector must latch after the consecutive-
    // failure budget and the sweep must complete in-process.
    armDriverFault(DriverFaultPoint::WorkerFlap,
                   kDriverFaultAnyIndex, /*times=*/100);
    const GridRun proc = runGrid(2);
    expectByteIdentical(proc, serial);
    ASSERT_TRUE(proc.hadPool);
    EXPECT_TRUE(proc.pool.degraded);
    EXPECT_GE(proc.pool.spawnFailures, 3u);
    EXPECT_EQ(proc.pool.jobsCompleted, 0u);
}

// ------------------------------------------------------- no zombies

TEST_F(WorkerPoolTest, StopReapsEveryWorkerNoZombiesLeft)
{
    WorkerPoolConfig cfg;
    cfg.workers = 2;
    WorkerPool pool(cfg);
    ASSERT_TRUE(pool.start().ok());

    WorkerJobDesc job;
    job.token = 0;
    job.workload = testWorkloads()[0]->abbrev;
    job.maxInsts = kMaxInsts;
    job.config = testGrid()[1];
    auto r = pool.runJob(job);
    ASSERT_TRUE(r.ok()) << r.status().toString();

    pool.stop();
    const WorkerPoolStats stats = pool.stats();
    EXPECT_GE(stats.spawned, 1u);
    EXPECT_EQ(stats.spawned, stats.reaped)
        << "stop() left children unreaped";

    // Nothing is left for a wildcard wait: no zombie children at all
    // (the test process has no children besides the pool's).
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);

    // After stop, the pool refuses work instead of spawning anew.
    EXPECT_EQ(pool.runJob(job).status().code(),
              StatusCode::Unavailable);
}

TEST_F(WorkerPoolTest, WorkersInheritOnlyTheirJobSocket)
{
    // Four concurrent jobs on four slots: each worker is forked while
    // sibling slots' sockets and the SIGCHLD self-pipe are open in
    // this process. A worker may keep only stdio and its own job
    // socket at fd 3. An inherited sibling end would keep that
    // sibling's socket open after its worker dies, so the supervisor
    // would see no EOF and book the crash as a hang.
    std::set<int> want = testutil::inheritableFds();
    want.insert(3);

    WorkerPoolConfig cfg;
    cfg.workers = 4;
    WorkerPool pool(cfg);
    ASSERT_TRUE(pool.start().ok());
    std::vector<Status> results(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < results.size(); ++i)
        threads.emplace_back([&pool, &results, i] {
            WorkerJobDesc job;
            job.token = i;
            job.workload = testWorkloads()[i % 2]->abbrev;
            job.maxInsts = kMaxInsts;
            job.config = testGrid()[i / 2];
            results[i] = pool.runJob(job).status();
        });
    for (std::thread &t : threads)
        t.join();
    for (const Status &s : results)
        ASSERT_TRUE(s.ok()) << s.toString();

    const std::vector<int> kids = testutil::childPids();
    EXPECT_EQ(kids.size(), pool.stats().spawned);
    for (const int pid : kids)
        EXPECT_EQ(testutil::openFds(pid), want) << "worker pid " << pid;
    pool.stop();
}

TEST_F(WorkerPoolTest, WorkerReportsUnknownWorkloadAsAnError)
{
    WorkerPoolConfig cfg;
    cfg.workers = 1;
    WorkerPool pool(cfg);
    ASSERT_TRUE(pool.start().ok());

    WorkerJobDesc job;
    job.workload = "no-such-workload";
    job.config = testGrid()[0];
    const auto r = pool.runJob(job);
    ASSERT_FALSE(r.ok());
    // A clean application-level error from a healthy worker: not
    // Unavailable (which would mean "pool can't serve") and the
    // worker survives to serve the next job.
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
    job.workload = testWorkloads()[0]->abbrev;
    job.maxInsts = kMaxInsts;
    EXPECT_TRUE(pool.runJob(job).ok());
    pool.stop();
    const WorkerPoolStats stats = pool.stats();
    EXPECT_EQ(stats.spawned, 1u) << "error must not cost the worker";
    EXPECT_EQ(stats.spawned, stats.reaped);
}

} // namespace
} // namespace rarpred::driver
