/**
 * @file
 * Fault-injection harness and speculation-safety oracle tests.
 *
 * The headline property: with bits flipping in the DDT, DPNT, synonym
 * file and store-set tables while a program runs, the committed
 * architectural results must be bit-identical to a fault-free golden
 * execution — on every workload in the suite. Predictor state is
 * performance-only; the verification load is the safety net, and these
 * tests tear holes in everything above it.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/cloaking.hh"
#include "driver/sweep_journal.hh"
#include "driver/trace_cache.hh"
#include "faultinject/driver_faults.hh"
#include "faultinject/fault_injector.hh"
#include "faultinject/safety_oracle.hh"
#include "predictor/store_sets.hh"
#include "vm/micro_vm.hh"
#include "vm/trace_file.hh"
#include "workload/workload.hh"

namespace rarpred {
namespace {

/** Run @p n instructions of a small workload through @p engine so its
 *  tables hold live state worth corrupting. */
void
warmEngine(CloakingEngine &engine, uint64_t n)
{
    const Program program = findWorkload("com").build(1);
    MicroVM vm(program); // the Program must outlive the VM
    DynInst di;
    for (uint64_t i = 0; i < n && vm.next(di); ++i)
        engine.processInst(di);
}

TEST(FaultInjector, InjectsIntoEveryWarmedStructure)
{
    CloakingEngine engine{CloakingConfig{}};
    warmEngine(engine, 20'000);
    ASSERT_GT(engine.synonymFile().size(), 0u);
    StoreSetPredictor store_sets;

    FaultInjectorConfig config;
    config.seed = 42;
    config.ratePerStep = 1.0; // hit every structure on every step
    FaultInjector injector(config);
    injector.attach(&engine);
    injector.attach(&store_sets);
    for (int i = 0; i < 200; ++i)
        injector.step();

    EXPECT_GT(injector.faultsDdt(), 0u);
    EXPECT_GT(injector.faultsDpnt(), 0u);
    EXPECT_GT(injector.faultsSynonymFile(), 0u);
    EXPECT_GT(injector.faultsStoreSets(), 0u);
    EXPECT_EQ(injector.faultsInjected(),
              injector.faultsDdt() + injector.faultsDpnt() +
                  injector.faultsSynonymFile() +
                  injector.faultsStoreSets());
}

TEST(FaultInjector, SameSeedReplaysSameFaultSequence)
{
    auto run = [](uint64_t seed) {
        CloakingEngine engine{CloakingConfig{}};
        warmEngine(engine, 10'000);
        FaultInjectorConfig config;
        config.seed = seed;
        config.ratePerStep = 0.25;
        FaultInjector injector(config);
        injector.attach(&engine);
        for (int i = 0; i < 1000; ++i)
            injector.step();
        return injector.faultsInjected();
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8)); // and the seed actually matters
}

TEST(FaultInjector, DisabledTargetsAreNeverTouched)
{
    CloakingEngine engine{CloakingConfig{}};
    warmEngine(engine, 10'000);
    FaultInjectorConfig config;
    config.ratePerStep = 1.0;
    config.targetDdt = false;
    config.targetSynonymFile = false;
    FaultInjector injector(config);
    injector.attach(&engine);
    for (int i = 0; i < 100; ++i)
        injector.step();
    EXPECT_EQ(injector.faultsDdt(), 0u);
    EXPECT_EQ(injector.faultsSynonymFile(), 0u);
    EXPECT_GT(injector.faultsDpnt(), 0u);
}

TEST(FaultInjector, ZeroRateIsInert)
{
    CloakingEngine engine{CloakingConfig{}};
    warmEngine(engine, 5'000);
    FaultInjector injector(FaultInjectorConfig{});
    injector.attach(&engine);
    for (int i = 0; i < 100; ++i)
        injector.step();
    EXPECT_EQ(injector.faultsInjected(), 0u);
}

TEST(FaultInjector, StoreSetInjectionAlwaysLands)
{
    // SSIT/LFST are plain arrays: every injection attempt must land.
    StoreSetPredictor store_sets;
    Rng rng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(store_sets.injectFault(rng));
}

TEST(FaultInjector, RegisterStatsExposesPerTargetCounters)
{
    CloakingEngine engine{CloakingConfig{}};
    warmEngine(engine, 10'000);
    FaultInjectorConfig config;
    config.ratePerStep = 1.0;
    FaultInjector injector(config);
    injector.attach(&engine);
    StatGroup group("faults");
    injector.registerStats(group);
    for (int i = 0; i < 50; ++i)
        injector.step();
    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("faults.faultsDdt"), std::string::npos);
    EXPECT_NE(os.str().find("faults.faultsDpnt"), std::string::npos);
    EXPECT_NE(os.str().find("faults.faultsSynonymFile"),
              std::string::npos);
    EXPECT_NE(os.str().find("faults.faultsStoreSets"), std::string::npos);
}

TEST(CorruptTraceFile, DamageIsCaughtByReaderCrc)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_corrupt_me.rar";
    {
        TraceFileWriter writer(path);
        const Program program = findWorkload("li").build(1);
        MicroVM vm(program);
        pumpTrace(vm, writer, 2'000);
        ASSERT_TRUE(writer.finish().ok());
    }

    auto flipped = corruptTraceFile(path, 16, /*seed=*/11);
    ASSERT_TRUE(flipped.ok());
    EXPECT_EQ(*flipped, 16u);

    TraceFileReader::Options options;
    options.resyncOnCorruption = true;
    TraceFileReader reader(path, options);
    ASSERT_TRUE(reader.status().ok());
    DynInst di;
    while (reader.next(di)) {
    }
    // Flips can land in a record's trailing pad (harmless by design),
    // but with 16 of them some must hit checksummed payload bytes.
    EXPECT_GT(reader.stats().corruptionsDetected.value() +
                  reader.stats().invalidRecords.value(),
              0u);
    EXPECT_EQ(reader.stats().recordsSkipped.value(),
              reader.totalRecords() - reader.recordsRead());
}

TEST(CorruptTraceFile, MissingFileIsIoError)
{
    auto flipped = corruptTraceFile("/nonexistent/trace.rar", 4, 1);
    ASSERT_FALSE(flipped.ok());
    EXPECT_EQ(flipped.status().code(), StatusCode::IoError);
}

// -------------------------------------------- driver fault points

/** Driver fault points are process-global; always leave them clean. */
class DriverFaults : public ::testing::Test
{
  protected:
    void SetUp() override { disarmDriverFaults(); }
    void TearDown() override { disarmDriverFaults(); }
};

TEST_F(DriverFaults, FiresOnlyAtArmedIndexAndConsumesBudget)
{
    armDriverFault(DriverFaultPoint::JobCrash, 3, 2);
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobCrash, 2));
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobHang, 3));
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::JobCrash, 3));
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::JobCrash, 3));
    // Budget exhausted: the point goes inert.
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobCrash, 3));
    EXPECT_EQ(driverFaultFireCount(DriverFaultPoint::JobCrash), 2u);
}

TEST_F(DriverFaults, WildcardIndexMatchesEverything)
{
    armDriverFault(DriverFaultPoint::CachePressure, kDriverFaultAnyIndex,
                   3);
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::CachePressure, 0));
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::CachePressure, 17));
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::CachePressure, 99));
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::CachePressure, 0));
}

TEST_F(DriverFaults, DisarmedPointsNeverFire)
{
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobCrash, i));
        EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobKill, i));
    }
}

TEST_F(DriverFaults, SpecParsesPointsIndicesAndBudgets)
{
    ASSERT_TRUE(
        armDriverFaultsFromSpec("job_crash:3x2,cache_pressure:*").ok());
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobCrash, 2));
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::JobCrash, 3));
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::JobCrash, 3));
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobCrash, 3));
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::CachePressure, 7));
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::CachePressure, 7));
}

TEST_F(DriverFaults, SpecRejectsGarbageRecoverably)
{
    EXPECT_EQ(armDriverFaultsFromSpec("launch_missiles:1").code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(armDriverFaultsFromSpec("job_crash").code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(armDriverFaultsFromSpec("job_crash:zap").code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(armDriverFaultsFromSpec("job_crash:1x").code(),
              StatusCode::InvalidArgument);
}

TEST_F(DriverFaults, EnvArmingMatchesSpecArming)
{
    ASSERT_EQ(setenv("RARPRED_FAULT", "job_hang:5", 1), 0);
    EXPECT_TRUE(armDriverFaultsFromEnv().ok());
    unsetenv("RARPRED_FAULT");
    EXPECT_TRUE(driverFaultFires(DriverFaultPoint::JobHang, 5));
    EXPECT_FALSE(driverFaultFires(DriverFaultPoint::JobHang, 5));

    // Unset env is a no-op, not an error.
    EXPECT_TRUE(armDriverFaultsFromEnv().ok());
}

TEST_F(DriverFaults, TornWriteLatchesJournalError)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_torn_journal.rarj";
    auto journal = driver::SweepJournal::create(path, 0xfeed, 4);
    ASSERT_TRUE(journal.ok());
    const uint64_t payload = 42;
    ASSERT_TRUE((*journal)->append(0, &payload, sizeof(payload)).ok());

    armDriverFault(DriverFaultPoint::JournalTornWrite, 1);
    EXPECT_EQ((*journal)->append(1, &payload, sizeof(payload)).code(),
              StatusCode::IoError);
    // The error latches: later appends refuse instead of writing a
    // record after the torn bytes.
    EXPECT_EQ((*journal)->append(2, &payload, sizeof(payload)).code(),
              StatusCode::IoError);
    EXPECT_EQ((*journal)->recordsAppended(), 1u);

    // Recovery sees the completed record and drops the torn tail.
    auto replay = driver::SweepJournal::load(path);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->records.size(), 1u);
    EXPECT_EQ(replay->tornRecords, 1u);
    std::remove(path.c_str());
}

// ------------------------- corrupt trace files through the cache

TEST(TraceCacheRecovery, CorruptTraceLoadsThroughCacheUnderContention)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_corrupt_cached.rar";
    {
        TraceFileWriter writer(path);
        const Program program = findWorkload("li").build(1);
        MicroVM vm(program);
        pumpTrace(vm, writer, 4'000);
        ASSERT_TRUE(writer.finish().ok());
    }
    auto flipped = corruptTraceFile(path, 16, /*seed=*/23);
    ASSERT_TRUE(flipped.ok());

    // Eight threads race the same damaged file through the cache with
    // resync-recovery on: every thread must get the *same* recovered
    // trace, generated exactly once, with the reader's corruption
    // counters surfaced in the cache stats.
    driver::TraceCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const RecordedTrace>> got(kThreads);
    std::vector<Status> errors(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            auto r = cache.getFile(path, ~0ull, /*resync=*/true);
            if (r.ok())
                got[t] = *r;
            else
                errors[t] = r.status();
        });
    for (auto &t : threads)
        t.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(got[t] != nullptr) << errors[t].toString();
        EXPECT_EQ(got[t].get(), got[0].get());
    }
    const auto s = cache.stats();
    EXPECT_EQ(s.generations, 1u);
    EXPECT_EQ(s.hits, kThreads - 1);
    EXPECT_GT(s.fileCorruptions, 0u);
    EXPECT_GT(got[0]->size(), 0u);
    std::remove(path.c_str());
}

TEST(TraceCacheRecovery, StrictModeSurfacesCorruptionAsError)
{
    const std::string path =
        ::testing::TempDir() + "rarpred_corrupt_strict.rar";
    {
        TraceFileWriter writer(path);
        const Program program = findWorkload("com").build(1);
        MicroVM vm(program);
        pumpTrace(vm, writer, 2'000);
        ASSERT_TRUE(writer.finish().ok());
    }
    ASSERT_TRUE(corruptTraceFile(path, 32, /*seed=*/5).ok());

    driver::TraceCache cache;
    auto strict = cache.getFile(path, ~0ull, /*resync=*/false);
    // 32 flips are overwhelmingly likely to hit checksummed bytes; in
    // strict mode that is a hard error, not a silent skip.
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::Corruption);
    std::remove(path.c_str());
}

TEST(SafetyOracle, InvalidConfigIsRecoverable)
{
    OracleConfig config;
    config.cloaking.dpnt.geometry = {24, 2}; // 12 sets: not a power of 2
    auto report = runSafetyOracle(findWorkload("go").build(1), config);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
}

TEST(SafetyOracle, FaultFreeRunPasses)
{
    OracleConfig config;
    config.maxInsts = 50'000;
    auto report = runSafetyOracle(findWorkload("gcc").build(1), config);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->passed) << report->firstDivergence;
    EXPECT_EQ(report->faultsInjected, 0u);
    EXPECT_EQ(report->instructions, 50'000u);
    EXPECT_GT(report->specUsed, 0u);
    EXPECT_EQ(report->goldenDigest, report->faultedDigest);
}

TEST(SafetyOracle, ReportIsDeterministic)
{
    OracleConfig config;
    config.maxInsts = 30'000;
    config.faults.ratePerStep = 1e-2;
    config.faults.seed = 99;
    const Program program = findWorkload("swm").build(1);
    auto a = runSafetyOracle(program, config);
    auto b = runSafetyOracle(program, config);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->faultsInjected, b->faultsInjected);
    EXPECT_EQ(a->specUsed, b->specUsed);
    EXPECT_EQ(a->specSquashed, b->specSquashed);
    EXPECT_EQ(a->faultedDigest, b->faultedDigest);
}

/** The headline suite: the safety property must hold on every workload
 *  with faults landing at well above the required 1e-4 rate. The
 *  parameter indexes allWorkloads(); a Workload pointer would print a
 *  different address into the test's name on every run. */
class SafetyOracleAllWorkloads : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SafetyOracleAllWorkloads, SurvivesFaultInjection)
{
    const Workload &wl = allWorkloads()[GetParam()];
    OracleConfig config;
    config.cloaking.dpnt.geometry = {8192, 2}; // the paper's tables:
    config.cloaking.sf = {1024, 2};            // realistic conflict load
    config.faults.ratePerStep = 1e-3;
    config.faults.seed = 0xC0FFEE;
    config.maxInsts = 120'000;
    auto report = runSafetyOracle(wl.build(1), config);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report->passed)
        << wl.fullName << ": " << report->firstDivergence;
    EXPECT_GT(report->faultsInjected, 0u) << wl.fullName;
    EXPECT_GT(report->instructions, 0u);
    EXPECT_EQ(report->divergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SafetyOracleAllWorkloads,
    ::testing::Range<size_t>(0, allWorkloads().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        // Abbreviations like "fp*" aren't valid gtest identifiers;
        // keep alphanumerics and index-suffix for uniqueness.
        std::string name;
        for (char c : allWorkloads()[info.param].abbrev)
            if (std::isalnum((unsigned char)c))
                name += c;
        return name + "_" + std::to_string(info.index);
    });

} // namespace
} // namespace rarpred
