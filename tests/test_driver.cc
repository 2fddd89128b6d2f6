/**
 * @file
 * Tests for the parallel sweep driver (src/driver): trace recording
 * fidelity, generate-once trace caching under concurrency, and —
 * the property the whole subsystem hangs on — byte-identical merged
 * sweep statistics for any worker count.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cloaking.hh"
#include "cpu/ooo_cpu.hh"
#include "driver/stats_merger.hh"
#include "driver/sweep.hh"
#include "driver/sweep_journal.hh"
#include "driver/worker_pool.hh"
#include "faultinject/driver_faults.hh"
#include "fd_test_util.hh"
#include "vm/micro_vm.hh"
#include "vm/recorded_trace.hh"
#include "workload/workload.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RARPRED_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RARPRED_UNDER_SANITIZER 1
#endif
#endif

#ifndef RARPRED_EXAMPLES_DIR
#define RARPRED_EXAMPLES_DIR ""
#endif

namespace rarpred {
namespace {

// ------------------------------------------------ recorded traces

TEST(RecordedTrace, ReplayReproducesEveryDynInstField)
{
    const Workload &w = findWorkload("li");
    Program prog = w.build(1);
    const uint64_t kMax = 100'000;

    RecordedTrace trace = RecordedTrace::record(prog, kMax);
    ASSERT_EQ(trace.size(), kMax);

    MicroVM vm(prog);
    DynInst want;
    for (size_t i = 0; i < trace.size(); ++i) {
        ASSERT_TRUE(vm.next(want));
        const DynInst got = trace.decode(i);
        ASSERT_EQ(got.seq, want.seq);
        ASSERT_EQ(got.pc, want.pc);
        ASSERT_EQ(got.nextPc, want.nextPc);
        ASSERT_EQ(got.op, want.op);
        ASSERT_EQ(got.dst, want.dst);
        ASSERT_EQ(got.src1, want.src1);
        ASSERT_EQ(got.src2, want.src2);
        ASSERT_EQ(got.eaddr, want.eaddr);
        ASSERT_EQ(got.value, want.value);
        ASSERT_EQ(got.taken, want.taken);
    }
}

TEST(RecordedTrace, SourceRewindsAndDrains)
{
    const Workload &w = findWorkload("com");
    Program prog = w.build(1);
    RecordedTrace trace = RecordedTrace::record(prog, 5000);

    RecordedTraceSource source(trace);
    DynInst di;
    uint64_t n = 0;
    while (source.next(di))
        ++n;
    EXPECT_EQ(n, trace.size());
    EXPECT_FALSE(source.next(di));

    source.rewind();
    ASSERT_TRUE(source.next(di));
    EXPECT_EQ(di.seq, 0u);
}

// ---------------------------------------------------- trace cache

TEST(TraceCache, GeneratesEachWorkloadExactlyOnceUnderConcurrency)
{
    driver::TraceCache cache;
    const Workload &w = findWorkload("li");
    constexpr unsigned kThreads = 8;

    std::vector<std::shared_ptr<const RecordedTrace>> got(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[t] = cache.get(w, 1, 50'000); });
    for (auto &t : threads)
        t.join();

    const auto s = cache.stats();
    EXPECT_EQ(s.generations, 1u);
    EXPECT_EQ(s.hits, kThreads - 1);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get());
    EXPECT_EQ(got[0]->size(), 50'000u);
}

TEST(TraceCache, DistinctKeysGenerateSeparately)
{
    driver::TraceCache cache;
    const Workload &li = findWorkload("li");
    const Workload &com = findWorkload("com");

    auto a = cache.get(li, 1, 10'000);
    auto b = cache.get(com, 1, 10'000);
    auto c = cache.get(li, 1, 20'000); // same workload, longer cap
    auto a2 = cache.get(li, 1, 10'000);

    EXPECT_EQ(cache.stats().generations, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(a.get(), a2.get());
    EXPECT_EQ(c->size(), 20'000u);
}

TEST(TraceCache, ClearDropsResidencyButNotOutstandingRefs)
{
    driver::TraceCache cache;
    auto trace = cache.get(findWorkload("li"), 1, 10'000);
    EXPECT_EQ(cache.stats().residentTraces, 1u);
    EXPECT_GT(cache.stats().residentBytes, 0u);
    cache.clear();
    EXPECT_EQ(cache.stats().residentTraces, 0u);
    EXPECT_EQ(trace->size(), 10'000u); // our ref stays valid
}

// ------------------------------------------------------- job seeds

TEST(JobSeed, StableAndSensitiveToBothInputs)
{
    const uint64_t s = driver::jobSeed("li", 0);
    EXPECT_EQ(s, driver::jobSeed("li", 0));
    EXPECT_NE(s, driver::jobSeed("li", 1));
    EXPECT_NE(s, driver::jobSeed("com", 0));
    EXPECT_NE(driver::jobSeed("li", 1), driver::jobSeed("com", 1));
}

// ------------------------------------------- sweep determinism

/**
 * A small but real sweep: 3 workloads × 3 DDT sizes through the
 * cloaking engine, merged stats recorded from the worker threads.
 * @return the canonical serialized table.
 */
std::string
runCloakingSweep(unsigned workers)
{
    const std::vector<const Workload *> workloads = {
        &findWorkload("li"), &findWorkload("com"), &findWorkload("go")};
    const std::vector<size_t> ddt_sizes = {32, 128, 512};

    driver::RunnerConfig rc;
    rc.workers = workers;
    rc.maxInsts = 150'000;
    driver::SimJobRunner runner(rc);

    driver::StatsMerger merger(workloads.size() * ddt_sizes.size());
    for (size_t wi = 0; wi < workloads.size(); ++wi)
        for (size_t ci = 0; ci < ddt_sizes.size(); ++ci)
            merger.setRowKey(wi * ddt_sizes.size() + ci,
                             workloads[wi]->abbrev + "/ddt" +
                                 std::to_string(ddt_sizes[ci]));

    const auto result = driver::runSweep(
        runner, workloads, ddt_sizes.size(),
        [&](const Workload &w, size_t ci, TraceSource &trace, Rng &rng) {
            CloakingConfig config;
            config.ddt.entries = ddt_sizes[ci];
            CloakingEngine engine(config);
            drainTrace(trace, engine);

            // Exercise the per-job RNG so seeding feeds the output:
            // deterministic per job, not per worker.
            const uint64_t salt = rng.next();

            size_t wi = 0;
            while (workloads[wi]->abbrev != w.abbrev)
                ++wi;
            const size_t job = wi * ddt_sizes.size() + ci;
            const auto &s = engine.stats();
            merger.recordCount(job, "loads", s.loads);
            merger.recordCount(job, "coveredRaw", s.coveredRaw);
            merger.recordCount(job, "coveredRar", s.coveredRar);
            merger.recordCount(job, "detectedRaw", s.detectedRaw);
            merger.recordCount(job, "detectedRar", s.detectedRar);
            merger.recordCount(job, "rngSalt", salt);
            merger.record(job, "coverage", s.coverage());
            return 0;
        });

    EXPECT_TRUE(result.status.ok()) << result.status.toString();
    return merger.serialize();
}

TEST(SweepDeterminism, MergedStatsAreByteIdenticalForAnyWorkerCount)
{
    const std::string serial = runCloakingSweep(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_NE(serial.find("li/ddt32.loads "), std::string::npos);
    EXPECT_NE(serial.find("total.loads "), std::string::npos);

    const std::string four = runCloakingSweep(4);
    const std::string eight = runCloakingSweep(8);
    EXPECT_EQ(serial, four);
    EXPECT_EQ(serial, eight);
}

TEST(SweepDeterminism, RepeatedRunsAreByteIdentical)
{
    EXPECT_EQ(runCloakingSweep(4), runCloakingSweep(4));
}

// ----------------------------------------------- runner plumbing

TEST(SimJobRunner, CountsJobsTracesAndTiming)
{
    const std::vector<const Workload *> workloads = {
        &findWorkload("li"), &findWorkload("com")};

    driver::RunnerConfig rc;
    rc.workers = 4;
    rc.maxInsts = 20'000;
    driver::SimJobRunner runner(rc);
    EXPECT_EQ(runner.workers(), 4u);

    auto loads = driver::runSweep(
        runner, workloads, 3,
        [](const Workload &, size_t, TraceSource &trace, Rng &) {
            DynInst di;
            uint64_t loads = 0;
            while (trace.next(di))
                loads += di.isLoad();
            return loads;
        });
    ASSERT_TRUE(loads.status.ok()) << loads.status.toString();
    ASSERT_EQ(loads.size(), 6u);
    for (size_t i = 0; i < loads.size(); ++i)
        EXPECT_GT(loads[i], 0u);

    // Each workload generated once, all other jobs were cache hits.
    const auto cs = runner.traceCache().stats();
    EXPECT_EQ(cs.generations, 2u);
    EXPECT_EQ(cs.hits, 4u);

    std::ostringstream os;
    runner.dumpStats(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("driver.jobsCompleted 6"), std::string::npos);
    EXPECT_NE(s.find("driver.sweepsRun 1"), std::string::npos);
    EXPECT_NE(s.find("driver.traceGenerations 2"), std::string::npos);
    EXPECT_NE(s.find("driver.jobMicrosTotal"), std::string::npos);
    EXPECT_NE(s.find("driver.queueMicrosTotal"), std::string::npos);
}

TEST(SimJobRunner, ZeroWorkersResolvesToHardwareConcurrency)
{
    driver::SimJobRunner runner(driver::RunnerConfig{});
    EXPECT_GE(runner.workers(), 1u);
}

// --------------------------------------- cache budgets & eviction

TEST(TraceCacheBudget, EvictsLeastRecentlyUsedWithinBudget)
{
    driver::TraceCache cache(driver::TraceCacheConfig{0, 2});
    const Workload &a = findWorkload("li");
    const Workload &b = findWorkload("com");
    const Workload &c = findWorkload("go");

    auto ta = cache.get(a, 1, 5'000);
    auto tb = cache.get(b, 1, 5'000);
    EXPECT_EQ(cache.stats().residentTraces, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    auto tc = cache.get(c, 1, 5'000); // must evict 'a', the LRU
    const auto s = cache.stats();
    EXPECT_EQ(s.residentTraces, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_LE(s.peakResidentTraces, 2u);

    // 'b' survived the eviction: getting it again is a plain hit.
    EXPECT_EQ(cache.get(b, 1, 5'000).get(), tb.get());
    // 'a' was evicted but our reference keeps it alive: the cache
    // reuses it rather than re-running the generator.
    EXPECT_EQ(cache.get(a, 1, 5'000).get(), ta.get());
    EXPECT_EQ(cache.stats().regenerations, 0u);
    EXPECT_EQ(cache.stats().generations, 3u);
}

TEST(TraceCacheBudget, RegeneratesEvictedTraceWithNoSurvivingRefs)
{
    driver::TraceCache cache(driver::TraceCacheConfig{0, 1});
    const Workload &a = findWorkload("li");
    const Workload &b = findWorkload("com");

    cache.get(a, 1, 5'000); // ref dropped immediately
    cache.get(b, 1, 5'000); // evicts 'a'; nothing keeps it alive
    auto ta = cache.get(a, 1, 5'000); // generator must run again

    const auto s = cache.stats();
    EXPECT_EQ(s.generations, 3u);
    EXPECT_EQ(s.regenerations, 1u);
    EXPECT_GE(s.evictions, 1u);
    EXPECT_EQ(s.peakResidentTraces, 1u);
    EXPECT_EQ(ta->size(), 5'000u);
}

TEST(TraceCacheBudget, ByteBudgetEvictsToo)
{
    driver::TraceCache unbounded;
    const uint64_t one_trace =
        unbounded.get(findWorkload("li"), 1, 5'000)->memoryBytes();
    ASSERT_GT(one_trace, 0u);

    // Room for one trace but not two.
    driver::TraceCache cache(driver::TraceCacheConfig{one_trace + 1, 0});
    cache.get(findWorkload("li"), 1, 5'000);
    cache.get(findWorkload("com"), 1, 5'000);
    const auto s = cache.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_LE(s.residentBytes, one_trace + 1);
}

TEST(TraceCacheBudget, MemoryBytesIsTheFullFootprintIncludingHeader)
{
    // Regression: memoryBytes() used to charge only the packed record
    // storage, so --trace-budget-bytes under-counted every resident
    // trace by its header. The documented contract is the full
    // in-memory footprint: object header plus record storage.
    driver::TraceCache cache;
    const auto trace = cache.get(findWorkload("li"), 1, 5'000);
    EXPECT_EQ(trace->memoryBytes(),
              sizeof(RecordedTrace) + trace->size() * sizeof(PackedInst));
    // And the cache's residency accounting uses exactly that figure.
    EXPECT_EQ(cache.stats().residentBytes, trace->memoryBytes());
}

TEST(SweepDeterminism, TwoTraceBudgetOnFullSuiteIsByteIdentical)
{
    // The acceptance drill: all 18 workloads through a cache that may
    // hold only 2 traces. Evictions and regenerations must occur, the
    // budget must hold at every instant, and the merged table must be
    // byte-identical to the unbudgeted run.
    auto run = [](uint32_t budget, driver::TraceCache::CacheStats *out) {
        const auto workloads = driver::allWorkloadPtrs();
        driver::RunnerConfig rc;
        rc.workers = 4;
        rc.maxInsts = 5'000;
        rc.traceBudgetTraces = budget;
        driver::SimJobRunner runner(rc);

        driver::StatsMerger merger(workloads.size());
        for (size_t wi = 0; wi < workloads.size(); ++wi)
            merger.setRowKey(wi, workloads[wi]->abbrev);

        const auto result = driver::runSweep(
            runner, workloads, 1,
            [&](const Workload &w, size_t, TraceSource &trace, Rng &) {
                CloakingEngine engine{CloakingConfig{}};
                drainTrace(trace, engine);
                size_t wi = 0;
                while (workloads[wi]->abbrev != w.abbrev)
                    ++wi;
                merger.recordCount(wi, "loads", engine.stats().loads);
                merger.recordCount(wi, "coveredRaw",
                                   engine.stats().coveredRaw);
                merger.recordCount(wi, "coveredRar",
                                   engine.stats().coveredRar);
                return 0;
            });
        EXPECT_TRUE(result.status.ok()) << result.status.toString();
        if (out != nullptr)
            *out = runner.traceCache().stats();
        return merger.serialize();
    };

    driver::TraceCache::CacheStats budgeted_stats;
    const std::string unbudgeted = run(0, nullptr);
    const std::string budgeted = run(2, &budgeted_stats);
    EXPECT_EQ(unbudgeted, budgeted);
    EXPECT_GT(budgeted_stats.evictions, 0u);
    EXPECT_LE(budgeted_stats.peakResidentTraces, 2u);
    EXPECT_LE(budgeted_stats.residentTraces, 2u);
}

// ------------------------------------ retry, quarantine, watchdog

/** Driver fault points and the stop flag are process-global state;
 *  these tests must always leave both clean. */
class RunnerFaults : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        disarmDriverFaults();
        driver::clearStopRequest();
    }

    void TearDown() override
    {
        disarmDriverFaults();
        driver::clearStopRequest();
    }

    /** Cell: count loads in the trace. Deterministic and cheap. */
    static uint64_t
    countLoads(TraceSource &trace)
    {
        DynInst di;
        uint64_t loads = 0;
        while (trace.next(di))
            loads += di.isLoad();
        return loads;
    }
};

TEST_F(RunnerFaults, RetriesTransientCrashThenSucceeds)
{
    armDriverFault(DriverFaultPoint::JobCrash, 2, 1);

    const std::vector<const Workload *> workloads = {
        &findWorkload("li"), &findWorkload("com")};
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = 10'000;
    rc.maxAttempts = 3;
    driver::SimJobRunner runner(rc);

    const auto result = driver::runSweep(
        runner, workloads, 2,
        [](const Workload &, size_t, TraceSource &trace, Rng &) {
            return countLoads(trace);
        });

    EXPECT_TRUE(result.status.ok()) << result.status.toString();
    for (size_t i = 0; i < result.size(); ++i)
        EXPECT_GT(result[i], 0u);
    EXPECT_EQ(driverFaultFireCount(DriverFaultPoint::JobCrash), 1u);
    EXPECT_TRUE(runner.quarantined().empty());

    std::ostringstream os;
    runner.dumpStats(os);
    EXPECT_NE(os.str().find("driver.retries 1"), std::string::npos);
    EXPECT_NE(os.str().find("driver.quarantined 0"), std::string::npos);
    EXPECT_NE(os.str().find("driver.jobsCompleted 4"), std::string::npos);
}

TEST_F(RunnerFaults, QuarantinesPermanentCrashAndKeepsGoing)
{
    armDriverFault(DriverFaultPoint::JobCrash, 1, 100);

    const std::vector<const Workload *> workloads = {
        &findWorkload("li"), &findWorkload("com")};
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = 10'000;
    rc.maxAttempts = 2;
    driver::SimJobRunner runner(rc);

    const auto result = driver::runSweep(
        runner, workloads, 2,
        [](const Workload &, size_t, TraceSource &trace, Rng &) {
            return countLoads(trace);
        });

    EXPECT_EQ(result.status.code(), StatusCode::FailedPrecondition);
    ASSERT_EQ(runner.quarantined().size(), 1u);
    const driver::JobFailure &f = runner.quarantined()[0];
    EXPECT_EQ(f.job, 1u);
    EXPECT_EQ(f.workload, "li");
    EXPECT_EQ(f.attempts, 2u);
    EXPECT_EQ(f.error.code(), StatusCode::Internal);
    EXPECT_EQ(driverFaultFireCount(DriverFaultPoint::JobCrash), 2u);

    // The failed cell carries its error; every other cell has data.
    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_FALSE(result.cells[1].ok());
    EXPECT_EQ(result.cells[1].status().code(), StatusCode::Internal);
    for (size_t i : {0u, 2u, 3u}) {
        ASSERT_TRUE(result.cells[i].ok()) << "cell " << i;
        EXPECT_GT(result[i], 0u);
    }

    std::ostringstream os;
    runner.dumpFailureTable(os);
    EXPECT_NE(os.str().find("quarantined jobs (1)"), std::string::npos);
    EXPECT_NE(os.str().find("li"), std::string::npos);
    EXPECT_NE(os.str().find("internal"), std::string::npos);
}

TEST_F(RunnerFaults, WatchdogUnwindsInjectedHang)
{
    armDriverFault(DriverFaultPoint::JobHang, 0, 1);

    const std::vector<const Workload *> workloads = {
        &findWorkload("li"), &findWorkload("com")};
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = 10'000;
    rc.maxAttempts = 1;
    // Generous deadline: honest jobs must never trip it, even under
    // a sanitizer's ~10x slowdown — only the injected hang (which
    // sleeps out the whole deadline) may be quarantined.
    rc.jobDeadlineMs = 1000;
    driver::SimJobRunner runner(rc);

    const auto result = driver::runSweep(
        runner, workloads, 2,
        [](const Workload &, size_t, TraceSource &trace, Rng &) {
            return countLoads(trace);
        });

    EXPECT_EQ(result.status.code(), StatusCode::FailedPrecondition);
    ASSERT_EQ(runner.quarantined().size(), 1u);
    EXPECT_EQ(runner.quarantined()[0].error.code(),
              StatusCode::DeadlineExceeded);
    for (size_t i : {1u, 2u, 3u})
        EXPECT_TRUE(result.cells[i].ok()) << "cell " << i;
}

TEST_F(RunnerFaults, WatchdogCatchesGenuinelySlowJobAtRecordBoundary)
{
    // Not an injected hang: the job body really does outlive its
    // deadline, and the watchdog wrapped around its trace source must
    // unwind it on its own worker thread — every other job completes
    // and run() reports the quarantine. This is the no-leaked-threads
    // acceptance drill; TSan runs this test in CI.
    const std::vector<const Workload *> workloads = {&findWorkload("li")};
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = 10'000;
    rc.maxAttempts = 2;
    // Same margin as above: only the deliberately oversleeping cell
    // may exceed this, sanitizers included.
    rc.jobDeadlineMs = 500;
    driver::SimJobRunner runner(rc);

    const auto result = driver::runSweep(
        runner, workloads, 3,
        [](const Workload &, size_t ci, TraceSource &trace, Rng &) {
            if (ci == 1) // this cell is permanently too slow
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1000));
            return countLoads(trace);
        });

    EXPECT_EQ(result.status.code(), StatusCode::FailedPrecondition);
    ASSERT_EQ(runner.quarantined().size(), 1u);
    const driver::JobFailure &f = runner.quarantined()[0];
    EXPECT_EQ(f.job, 1u);
    EXPECT_EQ(f.attempts, 2u);
    EXPECT_EQ(f.error.code(), StatusCode::DeadlineExceeded);
    EXPECT_TRUE(result.cells[0].ok());
    EXPECT_TRUE(result.cells[2].ok());
    EXPECT_FALSE(result.cells[1].ok());
}

TEST_F(RunnerFaults, StopRequestCancelsWithoutRunningJobs)
{
    driver::requestStop();

    const std::vector<const Workload *> workloads = {&findWorkload("li")};
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = 5'000;
    driver::SimJobRunner runner(rc);

    const auto result = driver::runSweep(
        runner, workloads, 2,
        [](const Workload &, size_t, TraceSource &trace, Rng &) {
            return countLoads(trace);
        });

    EXPECT_EQ(result.status.code(), StatusCode::Cancelled);
    for (const auto &cell : result.cells)
        EXPECT_FALSE(cell.ok());

    std::ostringstream os;
    runner.dumpStats(os);
    EXPECT_NE(os.str().find("driver.jobsCompleted 0"), std::string::npos);
}

// -------------------------------------------------- sweep journal

TEST(SweepJournal, RoundTripsRecordsThroughLoad)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_journal_roundtrip.rarj";
    auto journal = driver::SweepJournal::create(path, 0xabcdef, 6);
    ASSERT_TRUE(journal.ok()) << journal.status().toString();

    const uint64_t p0 = 111, p1 = 222;
    EXPECT_TRUE((*journal)->append(4, &p0, sizeof(p0)).ok());
    EXPECT_TRUE((*journal)->append(1, &p1, sizeof(p1)).ok());
    EXPECT_EQ((*journal)->recordsAppended(), 2u);
    EXPECT_TRUE((*journal)->status().ok());

    auto replay = driver::SweepJournal::load(path);
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ(replay->fingerprint, 0xabcdefull);
    EXPECT_EQ(replay->numJobs, 6u);
    EXPECT_EQ(replay->tornRecords, 0u);
    ASSERT_EQ(replay->records.size(), 2u);
    EXPECT_EQ(replay->records[0].job, 4u);
    EXPECT_EQ(replay->records[1].job, 1u);
    ASSERT_EQ(replay->records[0].payload.size(), sizeof(p0));
    uint64_t got = 0;
    std::memcpy(&got, replay->records[0].payload.data(), sizeof(got));
    EXPECT_EQ(got, p0);
    std::remove(path.c_str());
}

TEST(SweepJournal, TornTailIsDetectedByCrcAndTruncatedOnResume)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_journal_torn.rarj";
    {
        auto journal = driver::SweepJournal::create(path, 0x11, 4);
        ASSERT_TRUE(journal.ok());
        const uint64_t p = 7;
        ASSERT_TRUE((*journal)->append(0, &p, sizeof(p)).ok());
        ASSERT_TRUE((*journal)->append(1, &p, sizeof(p)).ok());
    }
    // Tear the final record the way a power cut would: chop bytes off
    // the tail so its CRC can never validate.
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        const auto size = in.tellg();
        ASSERT_GT(size, 3);
        std::string bytes((size_t)size - 3, '\0');
        in.seekg(0);
        in.read(bytes.data(), (std::streamsize)bytes.size());
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << bytes;
    }

    auto replay = driver::SweepJournal::load(path);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->records.size(), 1u);
    EXPECT_EQ(replay->tornRecords, 1u);

    // Resume truncates the torn bytes and appends cleanly after them.
    driver::SweepJournal::Replay resumed;
    auto journal = driver::SweepJournal::openResume(path, 0x11, 4,
                                                    &resumed);
    ASSERT_TRUE(journal.ok()) << journal.status().toString();
    EXPECT_EQ(resumed.records.size(), 1u);
    const uint64_t p = 9;
    EXPECT_TRUE((*journal)->append(1, &p, sizeof(p)).ok());

    auto healed = driver::SweepJournal::load(path);
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(healed->records.size(), 2u);
    EXPECT_EQ(healed->tornRecords, 0u);
    std::remove(path.c_str());
}

TEST(SweepJournal, RefusesToResumeADifferentSweep)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_journal_mismatch.rarj";
    {
        auto journal = driver::SweepJournal::create(path, 0x22, 4);
        ASSERT_TRUE(journal.ok());
    }
    driver::SweepJournal::Replay replay;
    EXPECT_EQ(driver::SweepJournal::openResume(path, 0x33, 4, &replay)
                  .status()
                  .code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(driver::SweepJournal::openResume(path, 0x22, 5, &replay)
                  .status()
                  .code(),
              StatusCode::FailedPrecondition);
    EXPECT_TRUE(
        driver::SweepJournal::openResume(path, 0x22, 4, &replay).ok());
    std::remove(path.c_str());
}

TEST(SweepJournal, RejectsFilesThatAreNotJournals)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_not_a_journal.rarj";
    std::ofstream(path, std::ios::binary) << "these are not the bytes";
    EXPECT_EQ(driver::SweepJournal::load(path).status().code(),
              StatusCode::Corruption);
    std::remove(path.c_str());

    EXPECT_EQ(driver::SweepJournal::load("/nonexistent/x.rarj")
                  .status()
                  .code(),
              StatusCode::IoError);
}

TEST(SweepJournal, FingerprintIsSensitiveToEveryGridParameter)
{
    const std::vector<std::string> w = {"li", "com"};
    const uint64_t base = driver::sweepFingerprint(w, 3, 8, 1, 1000);
    EXPECT_EQ(base, driver::sweepFingerprint(w, 3, 8, 1, 1000));
    EXPECT_NE(base, driver::sweepFingerprint({"li", "go"}, 3, 8, 1, 1000));
    EXPECT_NE(base, driver::sweepFingerprint(w, 4, 8, 1, 1000));
    EXPECT_NE(base, driver::sweepFingerprint(w, 3, 16, 1, 1000));
    EXPECT_NE(base, driver::sweepFingerprint(w, 3, 8, 2, 1000));
    EXPECT_NE(base, driver::sweepFingerprint(w, 3, 8, 1, 2000));
}

TEST(SweepJournal, CreateWritesDurableHeaderImmediately)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_journal_header.rarj";
    std::remove(path.c_str());
    auto journal = driver::SweepJournal::create(path, 0xabcd, 8);
    ASSERT_TRUE(journal.ok()) << journal.status().toString();

    // The header is on disk (durably, via temp+fsync+rename) before
    // any append: a SIGKILL here can no longer leave a zero-length
    // journal that a later --resume chokes on.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    EXPECT_GE((size_t)in.tellg(), 32u);
    journal.value().reset(); // close before load
    auto replay = driver::SweepJournal::load(path);
    EXPECT_TRUE(replay.ok()) << replay.status().toString();
    std::remove(path.c_str());
}

/** F_GETFD flags of this process's fd open on @p path; -1 if none. */
int
fdFlagsOfOpenFile(const std::string &path)
{
    char want[PATH_MAX];
    if (::realpath(path.c_str(), want) == nullptr)
        return -1;
    for (const int fd : testutil::numericEntries("/proc/self/fd")) {
        char link[PATH_MAX];
        const std::string proc = "/proc/self/fd/" + std::to_string(fd);
        const ssize_t n = ::readlink(proc.c_str(), link, sizeof(link) - 1);
        if (n <= 0)
            continue;
        link[n] = '\0';
        if (std::strcmp(link, want) == 0)
            return ::fcntl(fd, F_GETFD);
    }
    return -1;
}

TEST(SweepJournal, AppendFdIsCloseOnExec)
{
    // A --workers-proc sweep forks rarpred-worker processes while the
    // journal is open; its append fd must not leak into them.
    const std::string path =
        ::testing::TempDir() + "rarpred_journal_cloexec.rarj";
    std::remove(path.c_str());
    {
        auto journal = driver::SweepJournal::create(path, 0x44, 2);
        ASSERT_TRUE(journal.ok()) << journal.status().toString();
        const int flags = fdFlagsOfOpenFile(path);
        ASSERT_GE(flags, 0) << "journal fd not found";
        EXPECT_TRUE(flags & FD_CLOEXEC);
        const uint64_t p = 5;
        ASSERT_TRUE((*journal)->append(0, &p, sizeof(p)).ok());
    }
    EXPECT_EQ(fdFlagsOfOpenFile(path), -1) << "journal fd leaked";

    driver::SweepJournal::Replay replay;
    auto resumed =
        driver::SweepJournal::openResume(path, 0x44, 2, &replay);
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(replay.records.size(), 1u);
    const int flags = fdFlagsOfOpenFile(path);
    ASSERT_GE(flags, 0) << "journal fd not found";
    EXPECT_TRUE(flags & FD_CLOEXEC);
    resumed.value().reset();
    std::remove(path.c_str());
}

// ------------------------------------------------ resume semantics

TEST_F(RunnerFaults, ResumeRunsOnlyTheMissingJobs)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_resume_inproc.rarj";
    std::remove(path.c_str());

    const std::vector<const Workload *> workloads = {
        &findWorkload("li"), &findWorkload("com")};
    auto cell = [](const Workload &, size_t ci, TraceSource &trace,
                   Rng &) {
        DynInst di;
        uint64_t loads = 0;
        while (trace.next(di))
            loads += di.isLoad();
        return loads + ci;
    };
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = 10'000;
    rc.maxAttempts = 1;

    // Clean reference run, no journal.
    std::vector<uint64_t> want;
    {
        driver::SimJobRunner runner(rc);
        const auto result =
            driver::runSweep(runner, workloads, 3, cell);
        ASSERT_TRUE(result.status.ok());
        for (size_t i = 0; i < result.size(); ++i)
            want.push_back(result[i]);
    }

    // Interrupted run: job 4 fails permanently, the rest journal.
    armDriverFault(DriverFaultPoint::JobCrash, 4, 100);
    {
        driver::SimJobRunner runner(rc);
        const auto result = driver::runSweep(runner, workloads, 3, cell,
                                             {path, false});
        EXPECT_FALSE(result.status.ok());
        EXPECT_FALSE(result.cells[4].ok());
    }
    disarmDriverFaults();

    // Resume: only the one missing job runs; every value matches the
    // uninterrupted reference exactly.
    {
        driver::SimJobRunner runner(rc);
        const auto result = driver::runSweep(runner, workloads, 3, cell,
                                             {path, true});
        ASSERT_TRUE(result.status.ok()) << result.status.toString();
        ASSERT_EQ(result.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(result[i], want[i]) << "cell " << i;

        std::ostringstream os;
        runner.dumpStats(os);
        EXPECT_NE(os.str().find("driver.jobsCompleted 1"),
                  std::string::npos);
        EXPECT_NE(os.str().find("driver.journalReplayed 5"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

#ifndef RARPRED_BENCH_DIR
#define RARPRED_BENCH_DIR ""
#endif

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(SweepResumeE2E, KilledParallelBenchResumesByteIdentical)
{
    // The end-to-end acceptance drill: SIGKILL a real 4-worker
    // bench_fig9_speedup sweep mid-run via the injected fault, resume
    // it from the journal, and demand stdout byte-identical to an
    // uninterrupted serial run.
    const std::string bench =
        std::string(RARPRED_BENCH_DIR) + "/bench_fig9_speedup";
    if (!std::ifstream(bench).good())
        GTEST_SKIP() << "bench binaries not built in this tree";

    const std::string dir = ::testing::TempDir();
    const std::string journal = dir + "rarpred_fig9_kill.rarj";
    const std::string out_clean = dir + "rarpred_fig9_clean.out";
    const std::string out_resumed = dir + "rarpred_fig9_resumed.out";
    std::remove(journal.c_str());

    const std::string args = " --max-insts=20000 ";

    // Uninterrupted serial reference.
    int rc = std::system(
        (bench + args + "--serial >" + out_clean + " 2>/dev/null")
            .c_str());
    ASSERT_EQ(rc, 0);

    // 4-worker run murdered by SIGKILL when job 40 is claimed.
    rc = std::system(("RARPRED_FAULT=job_kill:40 " + bench + args +
                      "--workers=4 --journal=" + journal +
                      " >/dev/null 2>/dev/null")
                         .c_str());
    EXPECT_NE(rc, 0);

    // The journal survived with some, but not all, of the 90 jobs —
    // flushed per append, so completed work is durable.
    auto replay = driver::SweepJournal::load(journal);
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_GT(replay->records.size(), 0u);
    EXPECT_LT(replay->records.size(), 90u);

    rc = std::system((bench + args + "--serial --resume=" + journal +
                      " >" + out_resumed + " 2>/dev/null")
                         .c_str());
    EXPECT_EQ(rc, 0);

    const std::string clean = readWholeFile(out_clean);
    ASSERT_FALSE(clean.empty());
    EXPECT_EQ(clean, readWholeFile(out_resumed));

    std::remove(journal.c_str());
    std::remove(out_clean.c_str());
    std::remove(out_resumed.c_str());
}

TEST(SweepResumeE2E, CrashedWorkerProcessBenchStaysByteIdentical)
{
    // The process-isolation acceptance drill: run the real bench
    // grid with --workers-proc=4 while the worker_crash fault
    // SIGKILLs a worker process mid-job. The sweep must finish with
    // exit 0, stdout byte-identical to --serial, and the stderr stat
    // dump must show the supervised restart.
    const std::string bench =
        std::string(RARPRED_BENCH_DIR) + "/bench_fig9_speedup";
    if (!std::ifstream(bench).good())
        GTEST_SKIP() << "bench binaries not built in this tree";
    if (driver::WorkerPool::resolveWorkerBinary("").empty())
        GTEST_SKIP() << "rarpred-worker not built in this tree";

    const std::string dir = ::testing::TempDir();
    const std::string out_serial = dir + "rarpred_fig9_serial.out";
    const std::string out_proc = dir + "rarpred_fig9_proc.out";
    const std::string err_proc = dir + "rarpred_fig9_proc.err";
    const std::string args = " --max-insts=20000 ";

    int rc = std::system(
        (bench + args + "--serial >" + out_serial + " 2>/dev/null")
            .c_str());
    ASSERT_EQ(rc, 0);

    rc = std::system(("RARPRED_FAULT=worker_crash:7 " + bench + args +
                      "--workers-proc=4 >" + out_proc + " 2>" +
                      err_proc)
                         .c_str());
    EXPECT_EQ(rc, 0);

    const std::string serial = readWholeFile(out_serial);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, readWholeFile(out_proc));
    const std::string stats = readWholeFile(err_proc);
    EXPECT_NE(stats.find("driver.worker.crashes 1"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("driver.worker.restarts 1"),
              std::string::npos)
        << stats;

    std::remove(out_serial.c_str());
    std::remove(out_proc.c_str());
    std::remove(err_proc.c_str());
}

TEST(SweepStop, PipelineSpeedupStopsGracefullyOnSigterm)
{
    const std::string bin =
        std::string(RARPRED_EXAMPLES_DIR) + "/pipeline_speedup";
    if (!std::ifstream(bin).good())
        GTEST_SKIP() << "example binaries not built in this tree";

    // SIGTERM mid-sweep: the worker finishes its current job, stops
    // claiming new ones, and the process exits 130 with a --resume
    // hint — never a crash or a hang. The instruction count must keep
    // the sweep alive well past the 0.5 s kill delay even on a fast
    // host (trace generation alone outlasts it), while one job stays
    // small enough to drain within the test timeout under sanitizers.
    const int rc = std::system(
        ("sh -c '" + bin +
         " tom --serial --max-insts=8000000 >/dev/null 2>/dev/null & "
         "pid=$!; sleep 0.5; kill -TERM $pid; wait $pid'")
            .c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 130);
}

/** Run @p cmd through the shell with stderr folded into stdout.
 *  @return its exit code (-1 if it did not exit normally); the
 *  output lands in @p out. */
int
runCapture(const std::string &cmd, std::string *out)
{
    FILE *p = ::popen((cmd + " 2>&1").c_str(), "r");
    if (p == nullptr)
        return -1;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out->append(buf, n);
    const int rc = ::pclose(p);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(BenchCli, EveryFlagWorksOrIsRejected)
{
    // A flag a bench does not implement must fail with usage and
    // exit 2, never run the experiment as if it were absent.
    const std::string dir = RARPRED_BENCH_DIR;
    if (!std::ifstream(dir + "/bench_fig9_speedup").good())
        GTEST_SKIP() << "bench binaries not built in this tree";

    for (const char *bench :
         {"bench_fig2_locality", "bench_fig6_cloaking_accuracy",
          "bench_fig7_locality_breakdown", "bench_table_5_1_workloads",
          "bench_table_5_2_vp_overlap", "bench_ext_renaming",
          "bench_ext_value_predictors"}) {
        std::string out;
        EXPECT_EQ(runCapture(dir + "/" + bench + " --bogus-flag", &out),
                  2)
            << bench;
        EXPECT_NE(out.find("usage:"), std::string::npos)
            << bench << ": " << out;
    }

    // There is no multi-host fleet: its flag and its fault points are
    // unknown names, rejected like any other.
    const std::string fig9 =
        dir + "/bench_fig9_speedup --max-insts=1000";
    std::string out;
    EXPECT_EQ(runCapture(fig9 + " --workers-remote=127.0.0.1:1", &out),
              2);
    EXPECT_NE(out.find("unknown flag '--workers-remote"),
              std::string::npos)
        << out;
    out.clear();
    EXPECT_EQ(runCapture("RARPRED_FAULT=net_drop:0 " + fig9, &out), 2);
    EXPECT_NE(out.find("unknown fault point: net_drop"),
              std::string::npos)
        << out;

    // Nor is there mid-cell checkpointing or an online auditor.
    out.clear();
    EXPECT_EQ(runCapture("RARPRED_FAULT=epoch_kill:0 " + fig9, &out), 2);
    EXPECT_NE(out.find("unknown fault point: epoch_kill"),
              std::string::npos)
        << out;

    // fig5's cells are closures, which cannot run in a worker
    // process: --workers-proc is refused before any cell runs instead
    // of being silently ignored.
    out.clear();
    EXPECT_EQ(runCapture(dir + "/bench_fig5_ddt_sweep --max-insts=1000 "
                               "--workers-proc=2",
                         &out),
              2);
    EXPECT_NE(out.find("--workers-proc"), std::string::npos) << out;
    EXPECT_EQ(out.find("Figure 5"), std::string::npos) << out;
}

// ------------------------------------------- merged error surfacing

TEST(StatsMergerErrors, ErrorRowsReplaceStatsAndAddErrorTotal)
{
    driver::StatsMerger merger(2);
    merger.setRowKey(0, "li");
    merger.setRowKey(1, "com");
    merger.recordCount(0, "loads", 10);
    merger.recordCount(1, "loads", 20);
    merger.setError(1, Status::deadlineExceeded("too slow"));

    const std::string s = merger.serialize();
    EXPECT_NE(s.find("li.loads 10"), std::string::npos);
    EXPECT_NE(s.find("com.error deadline-exceeded: too slow"),
              std::string::npos);
    // The failed row's partial stats are suppressed everywhere,
    // including the totals.
    EXPECT_EQ(s.find("com.loads"), std::string::npos);
    EXPECT_NE(s.find("total.loads 10"), std::string::npos);
    EXPECT_NE(s.find("total.errors 1"), std::string::npos);
    EXPECT_EQ(merger.numErrors(), 1u);
}

TEST(StatsMergerErrors, CleanSweepsSerializeExactlyAsBefore)
{
    driver::StatsMerger merger(1);
    merger.setRowKey(0, "li");
    merger.recordCount(0, "loads", 5);
    const std::string s = merger.serialize();
    EXPECT_EQ(s, "li.loads 5\ntotal.loads 5\n");
    EXPECT_EQ(s.find("errors"), std::string::npos);
    EXPECT_EQ(merger.numErrors(), 0u);
}

TEST(StatsMergerErrors, ErrorsJsonIsMachineReadable)
{
    // The same machine-readable error report is shared between
    // finishSweep() ("sweep.errorsJson ...") and the service's
    // SweepDone frames, so tooling parses one format everywhere.
    driver::StatsMerger merger(3);
    merger.setRowKey(0, "li/cfg0");
    merger.setRowKey(1, "li/cfg1");
    merger.setRowKey(2, "com/cfg0");
    merger.recordCount(0, "loads", 10);
    merger.setError(1, Status::deadlineExceeded("too slow"));
    merger.setError(2, Status::internal("job threw: \"boom\""));

    EXPECT_EQ(merger.errorsJson(),
              "[{\"row\":\"li/cfg1\",\"job\":1,"
              "\"code\":\"deadline-exceeded\","
              "\"message\":\"too slow\"},"
              "{\"row\":\"com/cfg0\",\"job\":2,"
              "\"code\":\"internal\","
              "\"message\":\"job threw: \\\"boom\\\"\"}]");

    driver::StatsMerger clean(1);
    clean.setRowKey(0, "li");
    clean.recordCount(0, "loads", 5);
    EXPECT_EQ(clean.errorsJson(), "[]");
}

TEST(StatsMergerErrors, ErrorsJsonHonorsAByteBudget)
{
    // The service must fit the report into one wire frame: under a
    // byte budget, entries are dropped whole (never cut mid-object)
    // and counted in a trailing {"omitted":N} element, and the
    // bounded report is deterministic.
    driver::StatsMerger merger(100);
    for (size_t job = 0; job < 100; ++job) {
        merger.setRowKey(job, "li/cfg" + std::to_string(job));
        merger.setError(job, Status::internal("boom " +
                                              std::to_string(job)));
    }
    const std::string unbounded = merger.errorsJson();
    ASSERT_GT(unbounded.size(), 2048u);

    const std::string bounded = merger.errorsJson(2048);
    EXPECT_LE(bounded.size(), 2048u);
    EXPECT_EQ(bounded.front(), '[');
    EXPECT_EQ(bounded.back(), ']');
    // Kept entries are a prefix, intact; the rest are counted.
    EXPECT_NE(bounded.find("\"row\":\"li/cfg0\""), std::string::npos);
    const size_t kept = (size_t)std::count(bounded.begin(),
                                           bounded.end(), '{') -
                        1; // minus the omitted-marker object
    ASSERT_LT(kept, 100u);
    EXPECT_NE(bounded.find("{\"omitted\":" +
                           std::to_string(100 - kept) + "}"),
              std::string::npos)
        << bounded;
    EXPECT_EQ(bounded, merger.errorsJson(2048));

    // A budget comfortably above the report changes nothing.
    EXPECT_EQ(merger.errorsJson(1u << 20), unbounded);
}

TEST(StatsMergerErrors, EmbeddedNewlinesCannotForgeRows)
{
    // An adversarial error message must not be able to inject extra
    // lines into the line-oriented table nor break the JSON report.
    driver::StatsMerger merger(1);
    merger.setRowKey(0, "li");
    merger.setError(
        0, Status::internal("line1\nli.loads 999\r\ttab\"quote\""));

    const std::string s = merger.serialize();
    // The newline was escaped in place: the forged text survives
    // only *inside* the one error line, never as a line of its own.
    EXPECT_EQ(s.find("\nli.loads 999"), std::string::npos) << s;
    EXPECT_NE(s.find("\\nli.loads 999\\r"), std::string::npos) << s;
    EXPECT_TRUE(s.rfind("li.error ", 0) == 0) << s;

    const std::string json = merger.errorsJson();
    EXPECT_NE(json.find("line1\\nli.loads 999\\r\\ttab"
                        "\\\"quote\\\""),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

// ------------------------------------------------- shared CLI args

/** Build argv and run parseSweepArgs with RARPRED_WORKERS unset. */
Result<driver::SweepOptions>
parseArgs(std::vector<std::string> args)
{
    unsetenv("RARPRED_WORKERS");
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (std::string &a : args)
        argv.push_back(a.data());
    return driver::parseSweepArgs((int)argv.size(), argv.data());
}

TEST(ParseSweepArgs, DefaultsAreTheRunnerDefaults)
{
    auto opts = parseArgs({});
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->runner.workers, 0u);
    EXPECT_EQ(opts->runner.scale, 1u);
    EXPECT_EQ(opts->runner.maxInsts, ~0ull);
    EXPECT_EQ(opts->runner.maxAttempts, 3u);
    EXPECT_FALSE(opts->help);
    EXPECT_TRUE(opts->io.journalPath.empty());
    EXPECT_FALSE(opts->io.resume);
    EXPECT_TRUE(opts->positional.empty());
}

TEST(ParseSweepArgs, ParsesEveryFlag)
{
    auto opts = parseArgs({"--workers=3", "--scale=2",
                           "--max-insts=1000", "--retries=5",
                           "--deadline-ms=100", "--retry-backoff-ms=10",
                           "--trace-budget=2", "--trace-budget-bytes=64",
                           "--journal=/tmp/x.rarj", "tom"});
    ASSERT_TRUE(opts.ok()) << opts.status().toString();
    EXPECT_EQ(opts->runner.workers, 3u);
    EXPECT_EQ(opts->runner.scale, 2u);
    EXPECT_EQ(opts->runner.maxInsts, 1000u);
    EXPECT_EQ(opts->runner.maxAttempts, 6u); // retries + first attempt
    EXPECT_EQ(opts->runner.jobDeadlineMs, 100u);
    EXPECT_EQ(opts->runner.retryBackoffMs, 10u);
    EXPECT_EQ(opts->runner.traceBudgetTraces, 2u);
    EXPECT_EQ(opts->runner.traceBudgetBytes, 64u);
    EXPECT_EQ(opts->io.journalPath, "/tmp/x.rarj");
    ASSERT_EQ(opts->positional.size(), 1u);
    EXPECT_EQ(opts->positional[0], "tom");
}

TEST(ParseSweepArgs, WorkersProcSetsThreadsUnlessOverridden)
{
    // --workers-proc alone sizes both the process pool and the
    // dispatching thread pool...
    auto opts = parseArgs({"--workers-proc=4",
                           "--worker-heartbeat-ms=1234"});
    ASSERT_TRUE(opts.ok()) << opts.status().toString();
    EXPECT_EQ(opts->runner.procWorkers, 4u);
    EXPECT_EQ(opts->runner.workers, 4u);
    EXPECT_EQ(opts->runner.workerHeartbeatTimeoutMs, 1234u);

    // ...but an explicit thread count (or --serial) wins.
    opts = parseArgs({"--workers-proc=4", "--workers=2"});
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->runner.procWorkers, 4u);
    EXPECT_EQ(opts->runner.workers, 2u);
    opts = parseArgs({"--serial", "--workers-proc=4"});
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->runner.workers, 1u);
    EXPECT_EQ(opts->runner.procWorkers, 4u);
}

TEST(ParseSweepArgs, SerialMeansOneWorkerAndZeroRetriesMeansOneAttempt)
{
    auto opts = parseArgs({"--serial", "--retries=0"});
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->runner.workers, 1u);
    EXPECT_EQ(opts->runner.maxAttempts, 1u);
}

TEST(ParseSweepArgs, ResumeVariants)
{
    auto bare = parseArgs({"--resume"});
    ASSERT_FALSE(bare.ok());
    EXPECT_EQ(bare.status().code(), StatusCode::InvalidArgument);

    auto with_path = parseArgs({"--resume=/tmp/j.rarj"});
    ASSERT_TRUE(with_path.ok());
    EXPECT_TRUE(with_path->io.resume);
    EXPECT_EQ(with_path->io.journalPath, "/tmp/j.rarj");

    auto with_journal = parseArgs({"--journal=/tmp/j.rarj", "--resume"});
    ASSERT_TRUE(with_journal.ok());
    EXPECT_TRUE(with_journal->io.resume);
    EXPECT_EQ(with_journal->io.journalPath, "/tmp/j.rarj");
}

TEST(ParseSweepArgs, RejectsUnknownFlagsAndBadNumbers)
{
    auto unknown = parseArgs({"--frobnicate"});
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(unknown.status().message().find("--frobnicate"),
              std::string::npos);

    EXPECT_FALSE(parseArgs({"--workers=three"}).ok());
    EXPECT_FALSE(parseArgs({"--max-insts="}).ok());
    EXPECT_FALSE(parseArgs({"--scale=0"}).ok());
    EXPECT_FALSE(parseArgs({"--deadline-ms=12a"}).ok());

    // Mid-cell checkpoint/restore and the online auditor are gone:
    // their flags are unknown.
    for (const char *gone : {"--snapshot-dir=/tmp/s", "--snapshot-every=10",
                             "--restore", "--audit-every=10"}) {
        auto r = parseArgs({gone});
        ASSERT_FALSE(r.ok()) << gone;
        EXPECT_NE(r.status().message().find("unknown flag"),
                  std::string::npos)
            << gone;
    }
}

TEST(ParseSweepArgs, RejectsValuesThatDoNotFitTheirField)
{
    // Parsed, never run: a runner built from a value that fits would
    // start that many threads or processes.
    const auto rejects = [](std::vector<std::string> args,
                            const std::string &flag) {
        auto r = parseArgs(std::move(args));
        ASSERT_FALSE(r.ok()) << flag;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find(flag), std::string::npos)
            << r.status().message();
    };
    rejects({"--workers=4294967297"}, "--workers");
    rejects({"--workers-proc=4294967296"}, "--workers-proc");
    rejects({"--scale=4294967296"}, "--scale");
    rejects({"--trace-budget=4294967296"}, "--trace-budget");
    // maxAttempts = retries + 1 must not wrap to 0.
    rejects({"--retries=4294967295"}, "--retries");

    auto most = parseArgs({"--scale=4294967295", "--retries=4294967294",
                           "--trace-budget=4294967295"});
    ASSERT_TRUE(most.ok()) << most.status().toString();
    EXPECT_EQ(most->runner.scale, 4294967295u);
    EXPECT_EQ(most->runner.maxAttempts, 4294967295u);
    EXPECT_EQ(most->runner.traceBudgetTraces, 4294967295u);

    ASSERT_EQ(setenv("RARPRED_WORKERS", "4294967296", 1), 0);
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    auto from_env = driver::parseSweepArgs(1, argv.data());
    unsetenv("RARPRED_WORKERS");
    ASSERT_FALSE(from_env.ok());
    EXPECT_NE(from_env.status().message().find("RARPRED_WORKERS"),
              std::string::npos);
}

TEST(ParseSweepArgs, WorkersEnvAppliesUntilFlagOverrides)
{
    ASSERT_EQ(setenv("RARPRED_WORKERS", "7", 1), 0);
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    auto from_env = driver::parseSweepArgs(1, argv.data());
    ASSERT_TRUE(from_env.ok());
    EXPECT_EQ(from_env->runner.workers, 7u);

    static std::string flag = "--workers=2";
    argv.push_back(flag.data());
    auto overridden = driver::parseSweepArgs(2, argv.data());
    unsetenv("RARPRED_WORKERS");
    ASSERT_TRUE(overridden.ok());
    EXPECT_EQ(overridden->runner.workers, 2u);
}

TEST(ParseSweepArgs, HelpFlagIsRecognizedAndUsageMentionsEveryFlag)
{
    auto opts = parseArgs({"--help"});
    ASSERT_TRUE(opts.ok());
    EXPECT_TRUE(opts->help);

    const std::string usage = driver::sweepUsage();
    for (const char *flag :
         {"--workers", "--serial", "--scale", "--max-insts", "--retries",
          "--deadline-ms", "--retry-backoff-ms", "--trace-budget",
          "--trace-budget-bytes", "--journal", "--resume",
          "--workers-proc", "--worker-heartbeat-ms"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

// ------------------------------------------------ sweep speedup

/** Wall-clock one OoO sweep at the given worker count. */
double
timeOooSweep(unsigned workers)
{
    const std::vector<const Workload *> workloads = {
        &findWorkload("li"), &findWorkload("com")};

    driver::RunnerConfig rc;
    rc.workers = workers;
    rc.maxInsts = 150'000;
    driver::SimJobRunner runner(rc);
    // Pre-generate traces so we time simulation, not generation.
    for (const Workload *w : workloads)
        runner.traceCache().get(*w, rc.scale, rc.maxInsts);

    const auto start = std::chrono::steady_clock::now();
    driver::runSweep(runner, workloads, 8,
                     [](const Workload &, size_t, TraceSource &trace,
                        Rng &) {
                         OooCpu cpu(CpuConfig{}, {});
                         drainTrace(trace, cpu);
                         return cpu.stats().cycles;
                     });
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

TEST(SweepSpeedup, FourWorkersBeatSerialByTwoX)
{
#ifdef RARPRED_UNDER_SANITIZER
    GTEST_SKIP() << "wall-clock ratios are not meaningful under "
                    "sanitizers";
#endif
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 hardware threads, have "
                     << std::thread::hardware_concurrency();

    // Best of two runs each, to damp scheduler noise.
    const double serial =
        std::min(timeOooSweep(1), timeOooSweep(1));
    const double parallel =
        std::min(timeOooSweep(4), timeOooSweep(4));
    EXPECT_GE(serial / parallel, 2.0)
        << "serial " << serial << "s, 4 workers " << parallel << "s";
}

} // namespace
} // namespace rarpred
