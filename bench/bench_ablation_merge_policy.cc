/**
 * @file
 * Ablation (Section 5.1): synonym merge policy. The paper replaced
 * the original full-merge algorithm (associative DPNT scan) with
 * Chrysos & Emer's incremental merge and reports "no noticeable
 * difference in accuracy". This bench verifies that on our suite, and
 * also reports the never-merge strawman the paper argues against.
 *
 * Runs as an 18 × 2 grid on the parallel sweep driver (--workers=N /
 * --serial).
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "core/cloaking.hh"
#include "driver/sweep.hh"

int
main(int argc, char **argv)
{
    using rarpred::MergePolicy;

    const std::vector<MergePolicy> merges = {
        MergePolicy::FullMerge,
        MergePolicy::Incremental,
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
        runner, workloads, merges.size(),
        [&merges](const rarpred::Workload &, size_t ci,
                  rarpred::TraceSource &trace, rarpred::Rng &) {
            rarpred::CloakingConfig config;
            config.ddt.entries = 128;
            config.dpnt.merge = merges[ci];
            rarpred::CloakingEngine engine(config);
            rarpred::drainTraceBatched(trace, engine);
            return engine.stats();
        },
        parsed->io);
    if (!stats.status.ok())
        return rarpred::driver::finishSweep(runner, stats.status,
                                            std::cerr);

    std::printf("Ablation: synonym merge policy (coverage%% / misp%%)\n");
    std::printf("(128-entry DDT, infinite DPNT/SF, adaptive "
                "confidence)\n\n");
    std::printf("%-6s | %16s | %16s\n", "prog", "full merge",
                "incremental");

    double cov[2] = {0, 0};
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const auto &full = stats[wi * merges.size() + 0];
        const auto &inc = stats[wi * merges.size() + 1];
        std::printf("%-6s | %6.2f%% / %5.3f%% | %6.2f%% / %5.3f%%\n",
                    workloads[wi]->abbrev.c_str(), 100 * full.coverage(),
                    100 * full.mispredictionRate(),
                    100 * inc.coverage(),
                    100 * inc.mispredictionRate());
        cov[0] += full.coverage();
        cov[1] += inc.coverage();
    }
    std::printf("\nmean coverage: full %.2f%%, incremental %.2f%% "
                "(paper: no noticeable difference)\n",
                100 * cov[0] / 18, 100 * cov[1] / 18);

    return rarpred::driver::finishSweep(runner, stats.status, std::cerr);
}
