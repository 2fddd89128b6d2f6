/**
 * @file
 * Ablation of the base machine's memory dependence policy: naive
 * speculation (the paper's base, [14]), store-set prediction
 * (Chrysos & Emer [5]), and no speculation (the Figure 10 base).
 *
 * The paper reports that for its centralized-window processor naive
 * speculation performs "very close to ideal"; store sets should
 * therefore match naive closely while eliminating the order
 * violations, and the conservative machine should trail.
 *
 * Runs as an 18 × 3 grid on the parallel sweep driver (--workers=N /
 * --serial).
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "cpu/ooo_cpu.hh"
#include "driver/sweep.hh"

int
main(int argc, char **argv)
{
    using rarpred::MemDepPolicy;

    const std::vector<MemDepPolicy> policies = {
        MemDepPolicy::Conservative,
        MemDepPolicy::Naive,
        MemDepPolicy::StoreSets,
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
        runner, workloads, policies.size(),
        [&policies](const rarpred::Workload &, size_t ci,
                    rarpred::TraceSource &trace, rarpred::Rng &) {
            rarpred::CpuConfig config;
            config.memDep = policies[ci];
            rarpred::OooCpu cpu(config, {});
            rarpred::drainTraceBatched(trace, cpu);
            return cpu.stats();
        },
        parsed->io);
    if (!stats.status.ok())
        return rarpred::driver::finishSweep(runner, stats.status,
                                            std::cerr);

    std::printf("Ablation: base-machine memory dependence policy\n");
    std::printf("(speedup over the conservative machine; order "
                "violations in parens)\n\n");
    std::printf("%-6s | %18s | %18s\n", "prog", "naive [14]",
                "store sets [5]");

    double sums[2] = {0, 0};
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const size_t row = wi * policies.size();
        const auto &cons = stats[row];
        const auto &naive = stats[row + 1];
        const auto &ss = stats[row + 2];
        const double s_naive =
            100.0 * ((double)cons.cycles / naive.cycles - 1.0);
        const double s_ss =
            100.0 * ((double)cons.cycles / ss.cycles - 1.0);
        std::printf("%-6s | %8.2f%% (%6llu) | %8.2f%% (%6llu)\n",
                    workloads[wi]->abbrev.c_str(), s_naive,
                    (unsigned long long)naive.memOrderViolations, s_ss,
                    (unsigned long long)ss.memOrderViolations);
        sums[0] += s_naive;
        sums[1] += s_ss;
    }
    std::printf("%-6s | %8.2f%%          | %8.2f%%\n", "MEAN",
                sums[0] / 18, sums[1] / 18);
    std::printf("\nExpected: store sets keep naive's performance while "
                "eliminating most\nviolations; both beat the "
                "conservative machine where store addresses resolve\n"
                "late.\n");

    return rarpred::driver::finishSweep(runner, stats.status, std::cerr);
}
