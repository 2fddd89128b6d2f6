/**
 * @file
 * Property-based tests: randomized traces are checked against
 * brute-force reference models, and configuration sweeps are checked
 * for the invariants the design guarantees (detection monotonicity,
 * stat conservation, timing sanity).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "core/cloaking.hh"
#include "core/ddt.hh"
#include "cpu/ooo_cpu.hh"
#include "driver/sim_job_runner.hh"
#include "vm/micro_vm.hh"
#include "workload/workload.hh"

namespace rarpred {
namespace {

/** A random mixed load/store trace over a small address universe. */
std::vector<DynInst>
randomTrace(uint64_t seed, size_t length, size_t num_addrs,
            size_t num_pcs, double store_frac)
{
    Rng rng(seed);
    std::vector<DynInst> trace(length);
    for (size_t i = 0; i < length; ++i) {
        DynInst &di = trace[i];
        di.seq = i;
        di.pc = (rng.below(num_pcs) + 1) * 4;
        di.eaddr = (rng.below(num_addrs) + 1) * 8;
        di.value = rng.below(64);
        di.op = rng.chance(store_frac) ? Opcode::Sw : Opcode::Lw;
        if (di.isLoad())
            di.dst = 1;
        else
            di.src2 = 1;
        di.src1 = 2;
    }
    return trace;
}

/**
 * Brute-force reference for unbounded dependence detection, applying
 * the Section 3.1 recording rules directly.
 */
class ReferenceDetector
{
  public:
    std::optional<Dependence>
    onLoad(uint64_t pc, uint64_t addr)
    {
        auto it = last_.find(addr >> 3);
        if (it == last_.end()) {
            last_[addr >> 3] = {false, pc};
            return std::nullopt;
        }
        if (it->second.isStore)
            return Dependence{DepType::Raw, it->second.pc, pc};
        return Dependence{DepType::Rar, it->second.pc, pc};
    }

    void
    onStore(uint64_t pc, uint64_t addr)
    {
        last_[addr >> 3] = {true, pc};
    }

  private:
    struct Rec
    {
        bool isStore;
        uint64_t pc;
    };
    std::map<uint64_t, Rec> last_;
};

class RandomTraceTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomTraceTest, UnboundedDetectorMatchesReference)
{
    auto trace = randomTrace(GetParam(), 20000, 64, 32, 0.25);
    DdtConfig config;
    config.entries = 0;
    DependenceDetector dut(config);
    ReferenceDetector ref;
    for (const auto &di : trace) {
        if (di.isStore()) {
            dut.onStore(di.pc, di.eaddr);
            ref.onStore(di.pc, di.eaddr);
            continue;
        }
        auto got = dut.onLoad(di.pc, di.eaddr);
        auto want = ref.onLoad(di.pc, di.eaddr);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
            ASSERT_EQ(got->type, want->type);
            ASSERT_EQ(got->sourcePc, want->sourcePc);
            ASSERT_EQ(got->sinkPc, want->sinkPc);
        }
    }
}

TEST_P(RandomTraceTest, BoundedDetectionIsSubsetOfUnbounded)
{
    // Whatever a finite DDT detects, the unbounded one detects the
    // same dependence for the same dynamic load (the finite table can
    // only forget).
    auto trace = randomTrace(GetParam(), 20000, 256, 32, 0.2);
    DdtConfig small_config;
    small_config.entries = 16;
    DdtConfig big_config;
    big_config.entries = 0;
    DependenceDetector small(small_config), big(big_config);
    for (const auto &di : trace) {
        if (di.isStore()) {
            small.onStore(di.pc, di.eaddr);
            big.onStore(di.pc, di.eaddr);
            continue;
        }
        auto s = small.onLoad(di.pc, di.eaddr);
        auto b = big.onLoad(di.pc, di.eaddr);
        if (s && b) {
            // When both detect, the finite table may know a *newer*
            // chain head (it forgot the old one) but never an older
            // one of the other type for RAW.
            if (s->type == DepType::Raw && b->type == DepType::Raw) {
                ASSERT_EQ(s->sourcePc, b->sourcePc);
            }
        }
        if (s && s->type == DepType::Raw) {
            // A RAW seen by the small table implies the big table saw
            // the same store (stores are never silently replaced).
            ASSERT_TRUE(b.has_value());
            ASSERT_EQ(b->type, DepType::Raw);
        }
    }
}

TEST_P(RandomTraceTest, CloakingStatsAreConserved)
{
    auto trace = randomTrace(GetParam(), 30000, 128, 64, 0.3);
    CloakingConfig config;
    config.ddt.entries = 64;
    CloakingEngine engine(config);
    uint64_t loads = 0, stores = 0;
    for (const auto &di : trace) {
        engine.onInst(di);
        loads += di.isLoad();
        stores += di.isStore();
    }
    const auto &s = engine.stats();
    EXPECT_EQ(s.loads, loads);
    EXPECT_EQ(s.stores, stores);
    // Covered + mispredicted loads cannot exceed all loads.
    EXPECT_LE(s.covered() + s.mispredicted(), s.loads);
    // Detections cannot exceed load count.
    EXPECT_LE(s.detectedRaw + s.detectedRar, s.loads);
}

TEST_P(RandomTraceTest, OneBitCoverageBoundsAdaptiveCoverage)
{
    // The non-adaptive predictor is an upper bound on used
    // speculations (it never locks out).
    auto trace = randomTrace(GetParam(), 30000, 64, 32, 0.2);
    CloakingConfig naive_config, adaptive_config;
    naive_config.ddt.entries = 128;
    naive_config.dpnt.confidence = ConfidenceKind::OneBitNonAdaptive;
    adaptive_config.ddt.entries = 128;
    adaptive_config.dpnt.confidence = ConfidenceKind::TwoBitAdaptive;
    CloakingEngine naive(naive_config), adaptive(adaptive_config);
    for (const auto &di : trace) {
        naive.onInst(di);
        adaptive.onInst(di);
    }
    EXPECT_GE(naive.stats().covered() + naive.stats().mispredicted(),
              adaptive.stats().covered() +
                  adaptive.stats().mispredicted());
}

TEST_P(RandomTraceTest, TimingModelBasicSanity)
{
    auto trace = randomTrace(GetParam(), 20000, 64, 64, 0.25);
    CpuConfig config;
    OooCpu cpu(config, {});
    uint64_t prev_cycles = 0;
    for (const auto &di : trace) {
        cpu.onInst(di);
        // Committed-cycle counter is monotonic.
        ASSERT_GE(cpu.stats().cycles, prev_cycles);
        prev_cycles = cpu.stats().cycles;
    }
    const auto &s = cpu.stats();
    EXPECT_EQ(s.instructions, trace.size());
    // IPC within physical bounds.
    EXPECT_LE(s.ipc(), 8.0);
    EXPECT_GT(s.ipc(), 0.01);
}

TEST_P(RandomTraceTest, CloakingNeverSlowsTimingMuch)
{
    // With selective recovery the mechanism's worst case is bounded:
    // correct speculation only helps, wrong speculation costs one
    // extra cycle per dependent chain.
    auto trace = randomTrace(GetParam(), 20000, 32, 32, 0.3);
    CpuConfig config;
    OooCpu base(config, {});
    CloakTimingConfig cloak;
    cloak.enabled = true;
    cloak.engine.ddt.entries = 128;
    OooCpu mech(config, cloak);
    for (const auto &di : trace) {
        base.onInst(di);
        mech.onInst(di);
    }
    EXPECT_LT((double)mech.stats().cycles,
              1.05 * (double)base.stats().cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

// ------------------------------------------------- sweep invariants

// The workload is a std::string, not a const char *: gtest prints the
// parameter into the test's name, and would print a pointer's address.
class DdtSweepProperty
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>>
{
};

TEST_P(DdtSweepProperty, DetectionGrowsWithDdtSize)
{
    const auto [abbrev, size] = GetParam();
    auto detected = [&](size_t entries) {
        CloakingConfig config;
        config.ddt.entries = entries;
        CloakingEngine engine(config);
        Program p = findWorkload(abbrev).build(1);
        MicroVM vm(p);
        vm.run(engine, 2'000'000ull);
        return engine.stats().detectedRaw + engine.stats().detectedRar;
    };
    // Detection with a larger table is within epsilon of never being
    // worse (LRU aliasing can cost a hair on pathological streams).
    EXPECT_GE((double)detected(size * 4) * 1.02 + 1000,
              (double)detected(size));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DdtSweepProperty,
    ::testing::Combine(::testing::Values("li", "com", "tom", "fp*"),
                       ::testing::Values(32, 128)));

// ------------------------------------- driver/serial equivalence

void
expectEqualCpuStats(const CpuStats &a, const CpuStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.memOrderViolations, b.memOrderViolations);
    EXPECT_EQ(a.valueSpecUsed, b.valueSpecUsed);
    EXPECT_EQ(a.valueSpecCorrect, b.valueSpecCorrect);
    EXPECT_EQ(a.valueSpecWrong, b.valueSpecWrong);
    EXPECT_EQ(a.squashes, b.squashes);
    EXPECT_EQ(a.specCyclesSaved, b.specCyclesSaved);
}

class DriverEquivalence : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DriverEquivalence, RunnerJobMatchesSerialOooExecution)
{
    // For any random workload/config pair, executing the OoO core
    // serially off the MicroVM and executing it as a SimJobRunner
    // job replaying the memoized trace produce identical Stats.
    Rng rng(GetParam());
    const auto &workloads = allWorkloads();
    const Workload &w = workloads[rng.below(workloads.size())];

    CpuConfig config;
    config.memDep = (MemDepPolicy)rng.below(3);
    CloakTimingConfig cloak;
    if (rng.chance(0.7)) {
        cloak.enabled = true;
        cloak.engine.mode =
            rng.chance(0.5) ? CloakingMode::RawPlusRar
                            : CloakingMode::RawOnly;
        cloak.engine.ddt.entries = 1ull << rng.range(5, 9);
        cloak.engine.dpnt.geometry = {8192, 2};
        cloak.engine.sf = {1024, 2};
        cloak.recovery = (RecoveryModel)rng.below(3);
        cloak.bypassing = rng.chance(0.5);
    }
    const uint64_t kMax = 120'000;

    // Serial reference: MicroVM straight into the core.
    Program prog = w.build(1);
    MicroVM vm(prog);
    OooCpu serial(config, cloak);
    vm.run(serial, kMax);

    // Driver path: one job replaying the cached recorded trace.
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = kMax;
    driver::SimJobRunner runner(rc);
    CpuStats job_stats;
    std::vector<driver::JobSpec> jobs;
    driver::JobSpec job;
    job.workload = &w;
    job.configHash = GetParam();
    job.run = [&](TraceSource &trace, Rng &) {
        OooCpu cpu(config, cloak);
        drainTrace(trace, cpu);
        job_stats = cpu.stats();
        return Status{};
    };
    jobs.push_back(std::move(job));
    EXPECT_TRUE(runner.run(jobs).ok());

    expectEqualCpuStats(serial.stats(), job_stats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverEquivalence,
                         ::testing::Values(101, 202, 303, 404, 505,
                                           606));

} // namespace
} // namespace rarpred
