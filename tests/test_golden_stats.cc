/**
 * @file
 * Golden-regression test: every workload runs through the paper's
 * default RAW+RAR cloaking configuration (Section 5.6.1 geometry) and
 * its key counters — loads, detected RAW/RAR dependences, covered and
 * mispredicted loads — are compared exactly against checked-in
 * baselines in tests/golden/*.json.
 *
 * A mismatch means simulator behaviour changed. If the change is
 * intended, regenerate the baselines and review the diff like any
 * other code change:
 *
 *     ./build/tests/test_golden_stats --update-golden
 *
 * (writes to the source tree's tests/golden/; see tests/README.md).
 * Traces are capped at 500k instructions per workload so the whole
 * suite stays inside the tier1 budget.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/cloaking.hh"
#include "driver/trace_cache.hh"
#include "vm/trace.hh"
#include "workload/factory.hh"
#include "workload/workload.hh"

#ifndef RARPRED_GOLDEN_DIR
#error "build must define RARPRED_GOLDEN_DIR"
#endif

namespace rarpred {

/** Set by main() when invoked with --update-golden. */
bool g_update_golden = false;

namespace {

constexpr uint64_t kMaxInsts = 500'000;

/** The paper's default mechanism (Section 5.6.1), RAW+RAR. */
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

/** "fp*" is a valid workload name but not a valid file name. */
std::string
fileNameFor(const std::string &abbrev)
{
    std::string out;
    for (char c : abbrev) {
        if (std::isalnum((unsigned char)c))
            out += c;
        else if (c == '*')
            out += "star";
        else
            out += '_';
    }
    return out + ".json";
}

std::string
goldenPathFor(const std::string &abbrev)
{
    return std::string(RARPRED_GOLDEN_DIR) + "/" + fileNameFor(abbrev);
}

/** The counters pinned by the baselines, in serialization order. */
std::vector<std::pair<std::string, uint64_t>>
pinnedCounters(const CloakingStats &s)
{
    return {
        {"loads", s.loads},
        {"stores", s.stores},
        {"detectedRaw", s.detectedRaw},
        {"detectedRar", s.detectedRar},
        {"coveredRaw", s.coveredRaw},
        {"coveredRar", s.coveredRar},
        {"mispredRaw", s.mispredRaw},
        {"mispredRar", s.mispredRar},
        {"predictedEmpty", s.predictedEmpty},
    };
}

std::string
toJson(const std::string &abbrev, const CloakingStats &s)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"workload\": \"" << abbrev << "\",\n";
    os << "  \"maxInsts\": " << kMaxInsts << ",\n";
    const auto counters = pinnedCounters(s);
    for (size_t i = 0; i < counters.size(); ++i)
        os << "  \"" << counters[i].first << "\": "
           << counters[i].second
           << (i + 1 < counters.size() ? ",\n" : "\n");
    os << "}\n";
    return os.str();
}

/**
 * Minimal parser for the flat JSON this test writes: extracts every
 * "key": <unsigned integer> pair. Quoted values (the workload name)
 * are ignored.
 */
std::map<std::string, uint64_t>
parseCounters(const std::string &json)
{
    std::map<std::string, uint64_t> out;
    size_t pos = 0;
    while ((pos = json.find('"', pos)) != std::string::npos) {
        const size_t key_end = json.find('"', pos + 1);
        if (key_end == std::string::npos)
            break;
        const std::string key = json.substr(pos + 1, key_end - pos - 1);
        size_t v = json.find_first_not_of(": \t", key_end + 1);
        if (v != std::string::npos && std::isdigit((unsigned char)json[v])) {
            uint64_t value = 0;
            while (v < json.size() && std::isdigit((unsigned char)json[v]))
                value = value * 10 + (json[v++] - '0');
            out[key] = value;
        }
        pos = key_end + 1;
    }
    return out;
}

/** Shared across all 18 test cases: each trace generates once. */
driver::TraceCache &
sharedCache()
{
    static driver::TraceCache cache;
    return cache;
}

CloakingStats
runDefaultCloaking(const Workload &w)
{
    auto trace = sharedCache().get(w, 1, kMaxInsts);
    CloakingEngine engine(defaultCloakingConfig());
    trace->replayInto(engine);
    return engine.stats();
}

/**
 * The paper's 18 workloads followed by the 6 factory presets. The
 * suite is parameterized by an index into this list, not by a
 * Workload pointer: gtest prints the parameter into the test's name,
 * and a pointer would make that name change from run to run.
 */
const std::vector<const Workload *> &
goldenWorkloads()
{
    static const std::vector<const Workload *> all = [] {
        std::vector<const Workload *> out;
        for (const Workload &w : allWorkloads())
            out.push_back(&w);
        for (const Workload &w : factoryPresetWorkloads())
            out.push_back(&w);
        return out;
    }();
    return all;
}

class GoldenStatsTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(GoldenStatsTest, MatchesCheckedInBaseline)
{
    const Workload &w = *goldenWorkloads()[GetParam()];
    const CloakingStats stats = runDefaultCloaking(w);
    const std::string path = goldenPathFor(w.abbrev);

    if (g_update_golden) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << toJson(w.abbrev, stats);
        ASSERT_TRUE(os.good());
        std::printf("updated %s\n", path.c_str());
        return;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden baseline " << path
        << " — run test_golden_stats --update-golden and commit it";
    std::stringstream buf;
    buf << is.rdbuf();
    const auto golden = parseCounters(buf.str());

    const auto it = golden.find("maxInsts");
    ASSERT_NE(it, golden.end());
    ASSERT_EQ(it->second, kMaxInsts)
        << "baseline " << path << " was generated with a different "
        << "trace cap; regenerate with --update-golden";

    for (const auto &[name, value] : pinnedCounters(stats)) {
        const auto g = golden.find(name);
        ASSERT_NE(g, golden.end())
            << "baseline " << path << " lacks counter " << name;
        EXPECT_EQ(g->second, value)
            << w.abbrev << ": counter '" << name
            << "' diverged from " << path
            << " — if intended, rerun with --update-golden";
    }
}

std::string
testNameFor(const ::testing::TestParamInfo<size_t> &info)
{
    std::string name;
    for (char c : goldenWorkloads()[info.param]->abbrev)
        name += std::isalnum((unsigned char)c) ? c : '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GoldenStatsTest,
                         ::testing::Range<size_t>(0, allWorkloads().size()),
                         testNameFor);

// The factory presets are pinned the same way: a drifting generator
// (or Rng, or kernel emitter) shows up as a counter diff here.
INSTANTIATE_TEST_SUITE_P(FactoryPresets, GoldenStatsTest,
                         ::testing::Range<size_t>(allWorkloads().size(),
                                                  goldenWorkloads().size()),
                         testNameFor);

TEST(GoldenStatsSuite, CoversEveryWorkload)
{
    ASSERT_EQ(allWorkloads().size(), 18u);
    ASSERT_EQ(factoryPresetWorkloads().size(), 6u);
}

} // namespace
} // namespace rarpred

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--update-golden") == 0)
            rarpred::g_update_golden = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
