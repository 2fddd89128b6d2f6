/**
 * @file
 * Equivalence battery for the batched hot-path simulate loop.
 *
 * The performance work (DESIGN.md §7) must be invisible to every
 * counter: drainTraceBatched(), the one pump every cell runs through,
 * must produce CpuStats and CloakingStats whose dump() output is
 * byte-identical to the retained straight-line reference pump
 * drainTrace(), on every one of the paper's 18 workloads — and a
 * sweep's merged result must stay byte-identical across worker
 * counts {1, 4, 8} while each cell runs the batched pump.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/cloaking.hh"
#include "cpu/cpu_config.hh"
#include "cpu/ooo_cpu.hh"
#include "driver/sweep.hh"
#include "driver/trace_cache.hh"
#include "vm/recorded_trace.hh"
#include "vm/trace.hh"
#include "workload/workload.hh"

namespace rarpred {
namespace {

constexpr uint64_t kMaxInsts = 200'000;

/** Section 5.6.1 default mechanism, the golden-stats configuration. */
CloakTimingConfig
defaultCloakTiming()
{
    CloakTimingConfig cloak;
    cloak.enabled = true;
    cloak.engine.mode = CloakingMode::RawPlusRar;
    cloak.engine.ddt.entries = 128;
    cloak.engine.dpnt.geometry = {8192, 2};
    cloak.engine.sf = {1024, 2};
    cloak.bypassing = true;
    return cloak;
}

/** Every stat line the simulator can emit, as one comparable blob. */
std::string
statsDumpOf(OooCpu &cpu)
{
    std::ostringstream os;
    cpu.stats().dump(os);
    if (cpu.cloakingEngine() != nullptr)
        cpu.cloakingEngine()->stats().dump(os);
    return os.str();
}

/** Shared across all parameterized cases: each trace records once. */
driver::TraceCache &
sharedCache()
{
    static driver::TraceCache cache;
    return cache;
}

class HotPathEquivalence : public ::testing::TestWithParam<size_t>
{
};

TEST_P(HotPathEquivalence, BatchedPumpMatchesReferenceByteForByte)
{
    const Workload &w = allWorkloads()[GetParam()];
    auto trace = sharedCache().get(w, 1, kMaxInsts);

    // Reference: the straight-line record-at-a-time pump.
    OooCpu ref(CpuConfig{}, defaultCloakTiming());
    RecordedTraceSource ref_src(*trace);
    const uint64_t ref_n = drainTrace(ref_src, ref);

    // The hot path: the batched pump.
    OooCpu batched(CpuConfig{}, defaultCloakTiming());
    RecordedTraceSource batched_src(*trace);
    const uint64_t batched_n = drainTraceBatched(batched_src, batched);

    EXPECT_EQ(ref_n, batched_n);
    EXPECT_EQ(statsDumpOf(ref), statsDumpOf(batched)) << w.abbrev;
}

TEST_P(HotPathEquivalence, BatchedCloakingEngineMatchesReference)
{
    // The functional accuracy pipeline (the golden-stats layer's
    // subject) through both pumps.
    const Workload &w = allWorkloads()[GetParam()];
    auto trace = sharedCache().get(w, 1, kMaxInsts);

    CloakingConfig config;
    config.mode = CloakingMode::RawPlusRar;
    config.ddt.entries = 128;
    config.dpnt.geometry = {8192, 2};
    config.sf = {1024, 2};

    CloakingEngine ref(config);
    RecordedTraceSource ref_src(*trace);
    drainTrace(ref_src, ref);

    CloakingEngine batched(config);
    RecordedTraceSource batched_src(*trace);
    drainTraceBatched(batched_src, batched);

    std::ostringstream want, got;
    ref.stats().dump(want);
    batched.stats().dump(got);
    EXPECT_EQ(want.str(), got.str()) << w.abbrev;
}

std::string
testNameFor(const ::testing::TestParamInfo<size_t> &info)
{
    std::string name;
    for (char c : allWorkloads()[info.param].abbrev)
        name += std::isalnum((unsigned char)c) ? c : '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, HotPathEquivalence,
                         ::testing::Range<size_t>(0, 18), testNameFor);

TEST(HotPathEquivalenceSuite, CoversEveryWorkload)
{
    ASSERT_EQ(allWorkloads().size(), 18u);
}

// ------------------------------------- merged sweep equivalence

/** One sweep over all 18 workloads, cells on the batched pump. */
std::string
mergedSweepDump(unsigned workers, driver::TraceCache *cache)
{
    driver::RunnerConfig rc;
    rc.workers = workers;
    rc.maxInsts = 60'000;
    driver::SimJobRunner runner(rc, cache);

    const CloakTimingConfig cloak = defaultCloakTiming();
    auto result = driver::runSweep(
        runner, driver::allWorkloadPtrs(), 1,
        [&cloak](const Workload &, size_t, TraceSource &trace, Rng &) {
            OooCpu cpu(CpuConfig{}, cloak);
            drainTraceBatched(trace, cpu);
            return cpu.stats();
        });
    EXPECT_TRUE(result.status.ok()) << result.status.toString();

    std::ostringstream os;
    for (size_t i = 0; i < result.size(); ++i)
        result[i].dump(os, "cell" + std::to_string(i));
    return os.str();
}

TEST(HotPathSweepEquivalence, MergedStatsIdenticalAcrossWorkerCounts)
{
    // One warm cache serves every run: worker-count comparisons then
    // replay literally the same recorded traces.
    driver::TraceCache cache;
    const std::string serial = mergedSweepDump(1, &cache);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, mergedSweepDump(4, &cache));
    EXPECT_EQ(serial, mergedSweepDump(8, &cache));

    // And the reference pump agrees with the batched cells.
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = 60'000;
    driver::SimJobRunner runner(rc, &cache);
    const CloakTimingConfig cloak = defaultCloakTiming();
    auto ref = driver::runSweep(
        runner, driver::allWorkloadPtrs(), 1,
        [&cloak](const Workload &, size_t, TraceSource &trace, Rng &) {
            OooCpu cpu(CpuConfig{}, cloak);
            drainTrace(trace, cpu);
            return cpu.stats();
        });
    ASSERT_TRUE(ref.status.ok());
    std::ostringstream os;
    for (size_t i = 0; i < ref.size(); ++i)
        ref[i].dump(os, "cell" + std::to_string(i));
    EXPECT_EQ(serial, os.str());
}

} // namespace
} // namespace rarpred
