/**
 * @file
 * Ablations over the mechanism's structures:
 *  1. separate load/store DDTs (Section 5.6.2's fix for the common-
 *     DDT eviction anomaly) vs the shared table;
 *  2. DPNT geometry (finite vs infinite);
 *  3. synonym file size;
 *  4. DDT detection granularity.
 *
 * Reported as mean coverage / misspeculation over the whole suite.
 *
 * Runs as an 18 × 9 grid on the parallel sweep driver (--workers=N /
 * --serial); every variant replays the same recorded traces.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/cloaking.hh"
#include "driver/sweep.hh"

namespace {

struct Variant
{
    std::string name;
    std::function<void(rarpred::CloakingConfig &)> apply;
};

} // namespace

int
main(int argc, char **argv)
{
    using rarpred::CloakingConfig;

    const std::vector<Variant> variants = {
        {"baseline (128 DDT, 8K/2 DPNT, 1K/2 SF)", [](CloakingConfig &) {}},
        {"separate load/store DDTs",
         [](CloakingConfig &c) { c.ddt.separateTables = true; }},
        {"DDT 512 entries",
         [](CloakingConfig &c) { c.ddt.entries = 512; }},
        {"DDT 32 entries",
         [](CloakingConfig &c) { c.ddt.entries = 32; }},
        {"infinite DPNT",
         [](CloakingConfig &c) { c.dpnt.geometry = {0, 0}; }},
        {"DPNT 1K 2-way",
         [](CloakingConfig &c) { c.dpnt.geometry = {1024, 2}; }},
        {"infinite SF", [](CloakingConfig &c) { c.sf = {0, 0}; }},
        {"SF 128 2-way", [](CloakingConfig &c) { c.sf = {128, 2}; }},
        {"DDT granularity 32B",
         [](CloakingConfig &c) { c.ddt.granularityLog2 = 5; }},
    };

    rarpred::driver::installStopHandlers();
    const auto parsed = rarpred::driver::parseSweepArgs(argc, argv);
    if (!parsed.ok()) {
        std::cerr << parsed.status().toString() << "\n"
                  << rarpred::driver::sweepUsage();
        return 2;
    }
    if (parsed->help) {
        std::fputs(rarpred::driver::sweepUsage(), stdout);
        return 0;
    }

    rarpred::driver::SimJobRunner runner(parsed->runner);
    const auto workloads = rarpred::driver::allWorkloadPtrs();

    const auto stats = rarpred::driver::runSweep(
        runner, workloads, variants.size(),
        [&variants](const rarpred::Workload &, size_t ci,
                    rarpred::TraceSource &trace, rarpred::Rng &) {
            CloakingConfig config;
            config.ddt.entries = 128;
            config.dpnt.geometry = {8192, 2};
            config.sf = {1024, 2};
            variants[ci].apply(config);
            rarpred::CloakingEngine engine(config);
            rarpred::drainTraceBatched(trace, engine);
            return engine.stats();
        },
        parsed->io);
    if (!stats.status.ok())
        return rarpred::driver::finishSweep(runner, stats.status,
                                            std::cerr);

    std::printf("Ablation: structure geometry "
                "(suite mean coverage / misspeculation)\n\n");
    for (size_t ci = 0; ci < variants.size(); ++ci) {
        double cov = 0, misp = 0, raw = 0, rar = 0;
        for (size_t wi = 0; wi < workloads.size(); ++wi) {
            const auto &s = stats[wi * variants.size() + ci];
            cov += s.coverage();
            misp += s.mispredictionRate();
            raw += s.detectedRaw / (double)s.loads;
            rar += s.detectedRar / (double)s.loads;
        }
        std::printf("%-40s cov %6.2f%%  misp %6.3f%%  "
                    "(det RAW %5.1f%% RAR %5.1f%%)\n",
                    variants[ci].name.c_str(), 100 * cov / 18,
                    100 * misp / 18, 100 * raw / 18, 100 * rar / 18);
    }
    std::printf("\nExpected: separate DDTs recover RAW detections the "
                "shared table loses to load\nevictions; accuracy "
                "degrades gracefully with smaller DPNT/SF.\n");

    return rarpred::driver::finishSweep(runner, stats.status, std::cerr);
}
