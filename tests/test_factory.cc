/**
 * @file
 * WorkloadFactory + fuzzer test battery (DESIGN.md §8):
 *
 *  - determinism: (seed, params) -> byte-identical program listing
 *    and RecordedTrace, across repeated builds and across 1/4/8-worker
 *    runSweep(); distinct seeds -> distinct traces;
 *  - knob fidelity: the measured RAR-sharing fraction, store
 *    fraction, and conditional-branch taken-rate move monotonically
 *    with their knobs (src/analysis/ measurements);
 *  - cloaking sensitivity: default-config coverage rises
 *    monotonically with the RAR-sharing knob (the acceptance
 *    criterion bench_factory_sensitivity plots);
 *  - registry: "factory.*" presets and "factory.fuzz:SEED" dynamic
 *    cases resolve through lookupWorkload() without disturbing the
 *    18 paper workloads;
 *  - fuzzer: .case round-trips, the corpus under tests/corpus/
 *    replays green, a fixed-seed smoke fuzz runs the full oracle
 *    battery, and the minimizer shrinks a failing case.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/inst_mix.hh"
#include "analysis/locality.hh"
#include "core/cloaking.hh"
#include "driver/sweep.hh"
#include "vm/recorded_trace.hh"
#include "vm/trace.hh"
#include "workload/factory.hh"
#include "workload/fuzz.hh"

#ifndef RARPRED_CORPUS_DIR
#error "build must define RARPRED_CORPUS_DIR"
#endif

namespace rarpred {
namespace {

constexpr uint64_t kTraceInsts = 60'000;

CloakingConfig
defaultCloakingConfig()
{
    CloakingConfig config;
    config.mode = CloakingMode::RawPlusRar;
    config.ddt.entries = 128;
    config.dpnt.geometry = {8192, 2};
    config.dpnt.confidence = ConfidenceKind::TwoBitAdaptive;
    config.sf = {1024, 2};
    return config;
}

bool
sameInst(const DynInst &a, const DynInst &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.nextPc == b.nextPc &&
           a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.eaddr == b.eaddr &&
           a.value == b.value && a.taken == b.taken;
}

/** Record the trace of (seed, params) at the given budget. */
RecordedTrace
traceOf(uint64_t seed, const FactoryParams &p,
        uint64_t max_insts = kTraceInsts)
{
    const Program prog = buildFactoryProgram("t", seed, p);
    return RecordedTrace::record(prog, max_insts);
}

std::string
cloakingDump(const CloakingStats &s)
{
    std::ostringstream os;
    s.dump(os);
    return os.str();
}

// ------------------------------------------------------------------
// Parameter validation
// ------------------------------------------------------------------

TEST(FactoryParams, DefaultsValidate)
{
    EXPECT_TRUE(FactoryParams{}.validate().ok());
    for (const FactoryPreset &preset : factoryPresets())
        EXPECT_TRUE(preset.params.validate().ok()) << preset.name;
}

TEST(FactoryParams, RejectsOutOfRangeKnobs)
{
    FactoryParams p;
    p.rarSharing = 1.5;
    EXPECT_FALSE(p.validate().ok());
    p = {};
    p.storeIntervention = -0.1;
    EXPECT_FALSE(p.validate().ok());
    p = {};
    p.workingSetWords = 4; // below the floor
    EXPECT_FALSE(p.validate().ok());
    p = {};
    p.workingSetWords = 1ull << 20; // above the plan-word offset range
    EXPECT_FALSE(p.validate().ok());
    p = {};
    p.planEntries = 1ull << 20;
    EXPECT_FALSE(p.validate().ok());
    p = {};
    p.outerIters = 0;
    EXPECT_FALSE(p.validate().ok());
    p = {};
    p.depChainLength = 1000;
    EXPECT_FALSE(p.validate().ok());

    EXPECT_FALSE(makeFactoryWorkload("bad", 1, p).ok());
}

TEST(FactoryParams, AddressPickNamesRoundTrip)
{
    for (AddressPick pick :
         {AddressPick::Sequential, AddressPick::Strided,
          AddressPick::Shuffled, AddressPick::Pooled}) {
        const auto parsed = parseAddressPick(addressPickName(pick));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(*parsed, pick);
    }
    EXPECT_FALSE(parseAddressPick("zigzag").ok());
}

TEST(FactoryParams, FingerprintSeparatesKnobs)
{
    const FactoryParams base;
    for (auto mutate : std::vector<void (*)(FactoryParams &)>{
             [](FactoryParams &p) { p.rarSharing = 0.25; },
             [](FactoryParams &p) { p.storeIntervention = 0.25; },
             [](FactoryParams &p) { p.chaseDepth = 3; },
             [](FactoryParams &p) { p.workingSetWords = 512; },
             [](FactoryParams &p) { p.branchEntropy = 0.25; },
             [](FactoryParams &p) { p.depChainLength = 7; },
             [](FactoryParams &p) {
                 p.addrPick = AddressPick::Strided;
             },
             [](FactoryParams &p) { p.planEntries = 128; },
             [](FactoryParams &p) { p.accessesPerCall = 32; },
             [](FactoryParams &p) { p.outerIters = 77; },
             [](FactoryParams &p) { p.fpData = true; }}) {
        FactoryParams mutated = base;
        mutate(mutated);
        EXPECT_NE(base.fingerprint(), mutated.fingerprint());
    }
}

// ------------------------------------------------------------------
// Determinism properties (satellite 1)
// ------------------------------------------------------------------

TEST(FactoryDeterminism, SameSeedSameParamsByteIdenticalTrace)
{
    for (const FactoryPreset &preset :
         {factoryPresets()[0], factoryPresets()[5]}) {
        const Program p1 =
            buildFactoryProgram(preset.name, preset.seed, preset.params);
        const Program p2 =
            buildFactoryProgram(preset.name, preset.seed, preset.params);
        ASSERT_EQ(p1.listing(), p2.listing()) << preset.name;

        const RecordedTrace t1 = RecordedTrace::record(p1, kTraceInsts);
        const RecordedTrace t2 = RecordedTrace::record(p2, kTraceInsts);
        ASSERT_EQ(t1.size(), t2.size()) << preset.name;
        ASSERT_GT(t1.size(), 10'000u) << preset.name;
        for (size_t i = 0; i < t1.size(); ++i)
            ASSERT_TRUE(sameInst(t1.decode(i), t2.decode(i)))
                << preset.name << " record " << i;
    }
}

TEST(FactoryDeterminism, DistinctSeedsDistinctTraces)
{
    const FactoryParams p; // defaults
    const RecordedTrace t1 = traceOf(11, p, 20'000);
    const RecordedTrace t2 = traceOf(12, p, 20'000);
    ASSERT_FALSE(t1.empty());
    ASSERT_FALSE(t2.empty());
    bool differs = t1.size() != t2.size();
    for (size_t i = 0; !differs && i < t1.size(); ++i)
        differs = !sameInst(t1.decode(i), t2.decode(i));
    EXPECT_TRUE(differs)
        << "different seeds produced identical traces";
}

TEST(FactoryDeterminism, SweepStatsWorkerCountInvariant)
{
    // The full preset list through a real cloaking sweep: merged
    // stats must be byte-identical for 1, 4 and 8 workers and match
    // a serial replay of the same traces.
    std::vector<const Workload *> workloads;
    for (const Workload &w : factoryPresetWorkloads())
        workloads.push_back(&w);

    std::vector<std::string> dumps;
    for (unsigned workers : {1u, 4u, 8u}) {
        driver::RunnerConfig rc;
        rc.workers = workers;
        rc.maxInsts = kTraceInsts;
        driver::SimJobRunner runner(rc);
        auto cells = driver::runSweep(
            runner, workloads, 1,
            [](const Workload &, size_t, TraceSource &trace, Rng &) {
                CloakingEngine engine(defaultCloakingConfig());
                drainTraceBatched(trace, engine);
                return engine.stats();
            });
        ASSERT_TRUE(cells.status.ok()) << cells.status.toString();
        std::string dump;
        for (size_t i = 0; i < cells.size(); ++i)
            dump += cloakingDump(cells[i]);
        dumps.push_back(std::move(dump));
    }
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_EQ(dumps[0], dumps[2]);

    // Serial reference: same traces, no driver.
    std::string serial;
    for (const Workload *w : workloads) {
        const RecordedTrace trace =
            RecordedTrace::record(w->build(1), kTraceInsts);
        CloakingEngine engine(defaultCloakingConfig());
        trace.replayInto(engine);
        serial += cloakingDump(engine.stats());
    }
    EXPECT_EQ(serial, dumps[0]);
}

// ------------------------------------------------------------------
// Knob fidelity (satellite 2)
// ------------------------------------------------------------------

/** Counts conditional-branch executions and how many were taken. */
class BranchTakenCounter : public TraceSink
{
  public:
    void
    onInst(const DynInst &di) override
    {
        if (!di.isCondBranch())
            return;
        ++branches_;
        if (di.taken)
            ++taken_;
    }

    double
    takenFraction() const
    {
        return branches_ == 0 ? 0.0 : (double)taken_ / branches_;
    }

  private:
    uint64_t branches_ = 0;
    uint64_t taken_ = 0;
};

TEST(FactoryKnobs, RarSharingDrivesMeasuredRarFraction)
{
    // Large sequential working set: the only short-distance re-read
    // of a pool word is the knob-injected site-B load, so the
    // measured RAR-sink fraction must track the knob.
    FactoryParams p;
    p.addrPick = AddressPick::Sequential;
    p.workingSetWords = 4096;
    p.planEntries = 4096;
    p.storeIntervention = 0.05;
    p.branchEntropy = 0.3;

    std::vector<double> fraction;
    for (double knob : {0.1, 0.5, 0.9}) {
        p.rarSharing = knob;
        RarLocalityAnalyzer rar(/*window_entries=*/0);
        traceOf(5, p, 120'000).replayInto(rar);
        ASSERT_GT(rar.totalLoads(), 0u);
        fraction.push_back((double)rar.sinkExecutions() /
                           (double)rar.totalLoads());
    }
    EXPECT_LT(fraction[0], fraction[1]);
    EXPECT_LT(fraction[1], fraction[2]);
}

TEST(FactoryKnobs, StoreInterventionDrivesStoreFraction)
{
    FactoryParams p;
    p.addrPick = AddressPick::Pooled;

    std::vector<double> store_frac;
    std::vector<double> rar_frac;
    for (double knob : {0.0, 0.4, 0.8}) {
        p.storeIntervention = knob;
        InstMixCounter mix;
        RarLocalityAnalyzer rar(/*window_entries=*/0);
        TeeSink tee{&mix, &rar};
        traceOf(6, p, 120'000).replayInto(tee);
        ASSERT_GT(mix.total(), 0u);
        store_frac.push_back(mix.storeFraction());
        rar_frac.push_back((double)rar.sinkExecutions() /
                           (double)rar.totalLoads());
    }
    // More interventions -> more stores...
    EXPECT_LT(store_frac[0], store_frac[1]);
    EXPECT_LT(store_frac[1], store_frac[2]);
    // ...and fewer surviving RAR chains (stores cut them).
    EXPECT_GT(rar_frac[0], rar_frac[1]);
    EXPECT_GT(rar_frac[1], rar_frac[2]);
}

TEST(FactoryKnobs, BranchEntropyDrivesTakenRate)
{
    // The plan's branch bit is set with probability entropy/2 and
    // guarded by a beq-skip, so the aggregate conditional taken
    // fraction falls strictly as entropy rises (all other branch
    // sites are held fixed).
    FactoryParams p;
    std::vector<double> taken;
    for (double knob : {0.0, 0.5, 1.0}) {
        p.branchEntropy = knob;
        BranchTakenCounter branches;
        traceOf(7, p, 120'000).replayInto(branches);
        taken.push_back(branches.takenFraction());
    }
    EXPECT_GT(taken[0], taken[1]);
    EXPECT_GT(taken[1], taken[2]);
}

TEST(FactoryKnobs, CloakingCoverageMonotoneInRarSharing)
{
    // The acceptance criterion bench_factory_sensitivity emits:
    // default-mechanism coverage must rise monotonically with the
    // RAR-sharing knob.
    FactoryParams p;
    p.addrPick = AddressPick::Pooled;
    p.workingSetWords = 128;
    p.storeIntervention = 0.02;

    std::vector<double> coverage;
    for (double knob : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        p.rarSharing = knob;
        CloakingEngine engine(defaultCloakingConfig());
        traceOf(8, p, 120'000).replayInto(engine);
        coverage.push_back(engine.stats().coverage());
    }
    for (size_t i = 1; i < coverage.size(); ++i)
        EXPECT_GE(coverage[i], coverage[i - 1])
            << "coverage dipped between rarSharing point " << i - 1
            << " and " << i;
    EXPECT_GT(coverage.back(), coverage.front());
}

// ------------------------------------------------------------------
// Registry integration
// ------------------------------------------------------------------

TEST(FactoryRegistry, PresetsResolveWithoutDisturbingThePaperSuite)
{
    ASSERT_EQ(allWorkloads().size(), 18u);
    ASSERT_EQ(factoryPresets().size(), 6u);
    ASSERT_EQ(factoryPresetWorkloads().size(), 6u);

    for (size_t i = 0; i < factoryPresets().size(); ++i) {
        const auto found =
            lookupWorkload(factoryPresets()[i].name);
        ASSERT_TRUE(found.ok()) << factoryPresets()[i].name;
        EXPECT_EQ(*found, &factoryPresetWorkloads()[i]);
        EXPECT_EQ((*found)->isFp,
                  factoryPresets()[i].params.fpData);
    }
    EXPECT_FALSE(lookupWorkload("factory.no_such_preset").ok());
}

TEST(FactoryRegistry, FuzzNamesResolveDynamically)
{
    const auto first = lookupWorkload("factory.fuzz:42");
    ASSERT_TRUE(first.ok());
    const auto again = lookupWorkload("factory.fuzz:42");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*first, *again) << "dynamic lookups must be memoized";

    const RecordedTrace trace =
        RecordedTrace::record((*first)->build(1), 5'000);
    EXPECT_EQ(trace.size(), 5'000u);

    EXPECT_FALSE(lookupWorkload("factory.fuzz:").ok());
    EXPECT_FALSE(lookupWorkload("factory.fuzz:notanumber").ok());
}

// ------------------------------------------------------------------
// Fuzzer: case format, corpus, smoke fuzz, minimizer
// ------------------------------------------------------------------

TEST(FactoryFuzz, CaseFormatRoundTrips)
{
    const FuzzCase drawn = drawFuzzCase(7);
    const auto parsed = parseFuzzCase(formatFuzzCase(drawn));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->seed, drawn.seed);
    EXPECT_EQ(parsed->maxInsts, drawn.maxInsts);
    EXPECT_EQ(parsed->params.fingerprint(),
              drawn.params.fingerprint());
    EXPECT_EQ(fuzzCaseName(*parsed), fuzzCaseName(drawn));
}

TEST(FactoryFuzz, ParserRejectsMalformedCases)
{
    EXPECT_FALSE(parseFuzzCase("").ok());       // missing seed
    EXPECT_FALSE(parseFuzzCase("seed").ok());   // no '='
    EXPECT_FALSE(parseFuzzCase("seed=x").ok()); // bad number
    EXPECT_FALSE(parseFuzzCase("seed=1\nwombat=3").ok());
    EXPECT_FALSE(parseFuzzCase("seed=1\naddrPick=zigzag").ok());
    EXPECT_FALSE(parseFuzzCase("seed=1\nrarSharing=2.0").ok());
    EXPECT_FALSE(parseFuzzCase("seed=1\nmaxInsts=10").ok());
    EXPECT_TRUE(
        parseFuzzCase("# comment\n\nseed=1\n").ok());
}

TEST(FactoryFuzz, DrawnCasesAreValidAndDiverse)
{
    bool saw_fp = false, saw_chase = false;
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        const FuzzCase c = drawFuzzCase(seed);
        EXPECT_TRUE(c.params.validate().ok()) << "seed " << seed;
        saw_fp |= c.params.fpData;
        saw_chase |= c.params.chaseDepth > 0;
    }
    EXPECT_TRUE(saw_fp);
    EXPECT_TRUE(saw_chase);
}

TEST(FactoryFuzz, CorpusReplaysGreen)
{
    // Every checked-in reproducer must parse and pass the full
    // battery — deterministically. A failure here means a regression
    // an earlier fuzz run already caught once.
    namespace fs = std::filesystem;
    std::vector<fs::path> cases;
    for (const auto &entry : fs::directory_iterator(RARPRED_CORPUS_DIR))
        if (entry.path().extension() == ".case")
            cases.push_back(entry.path());
    ASSERT_FALSE(cases.empty())
        << "no .case files under " << RARPRED_CORPUS_DIR;

    for (const fs::path &path : cases) {
        std::ifstream is(path);
        ASSERT_TRUE(is.good()) << path;
        std::stringstream buf;
        buf << is.rdbuf();
        const auto c = parseFuzzCase(buf.str());
        ASSERT_TRUE(c.ok())
            << path << ": " << c.status().toString();
        const FuzzVerdict v = checkFuzzCase(*c);
        EXPECT_TRUE(v.passed)
            << path << " failed: " << v.failure;
        EXPECT_GT(v.instructions, 0u);
    }
}

TEST(FactoryFuzz, FixedSeedSmokeFuzz)
{
    // The tier-1 slice of the nightly job: a handful of fixed seeds
    // through the full determinism + oracle + sweep battery, capped
    // small enough to stay inside the tier-1 budget.
    for (uint64_t seed : {1001ull, 1002ull, 1003ull, 1004ull}) {
        FuzzCase c = drawFuzzCase(seed);
        c.maxInsts = std::min<uint64_t>(c.maxInsts, 30'000);
        const FuzzVerdict v = checkFuzzCase(c);
        EXPECT_TRUE(v.passed)
            << "seed " << seed << " failed: " << v.failure << "\n"
            << formatFuzzCase(c);
    }
}

TEST(FactoryFuzz, MinimizerShrinksWhileFailurePersists)
{
    FuzzCase big = drawFuzzCase(99);
    big.params.workingSetWords = 4096;
    big.params.planEntries = 1024;
    big.params.outerIters = 400;
    big.params.chaseDepth = 64;

    // Synthetic failure: anything with a working set >= 64 words
    // "fails". The minimizer must walk ws down to exactly the
    // predicate floor and flatten every other axis it can.
    auto still_fails = [](const FuzzCase &c) {
        return c.params.workingSetWords >= 64;
    };
    unsigned shrinks = 0;
    const FuzzCase small =
        minimizeFuzzCase(big, still_fails, &shrinks);

    EXPECT_TRUE(still_fails(small));
    EXPECT_EQ(small.params.workingSetWords, 64u);
    EXPECT_GT(shrinks, 0u);
    EXPECT_EQ(small.params.outerIters, 1u);
    EXPECT_EQ(small.params.planEntries, 16u);
    EXPECT_EQ(small.params.chaseDepth, 0u);
    EXPECT_TRUE(small.params.validate().ok());
}

} // namespace
} // namespace rarpred
