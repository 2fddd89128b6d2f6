/**
 * @file
 * Ablation: cloaking alone vs cloaking + bypassing (Section 3.2).
 * Bypassing links the consumers of a cloaked load directly to the
 * producer; without it, every covered load costs one extra propagation
 * cycle on the speculative path.
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

namespace {

/** Config points: base, cloaking only, cloaking + bypassing. */
rarpred::CloakTimingConfig
variant(size_t ci)
{
    rarpred::CloakTimingConfig cloak;
    if (ci > 0) {
        cloak.enabled = true;
        cloak.engine.ddt.entries = 128;
        cloak.engine.dpnt.geometry = {8192, 2};
        cloak.engine.sf = {1024, 2};
        cloak.bypassing = ci == 2;
    }
    return cloak;
}

} // namespace

int
main(int argc, char **argv)
{
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

    const auto cycles = rarpred::driver::runSweep(
        runner, workloads, 3,
        [](const rarpred::Workload &, size_t ci,
           rarpred::TraceSource &trace, rarpred::Rng &) {
            rarpred::CpuConfig config;
            rarpred::OooCpu cpu(config, variant(ci));
            rarpred::drainTraceBatched(trace, cpu);
            return cpu.stats().cycles;
        },
        parsed->io);
    if (!cycles.status.ok())
        return rarpred::driver::finishSweep(runner, cycles.status,
                                            std::cerr);

    std::printf("Ablation: cloaking alone vs cloaking + bypassing\n");
    std::printf("(speedup over the uncloaked base)\n\n");
    std::printf("%-6s | %12s %12s\n", "prog", "cloak only",
                "cloak+bypass");

    double sums[2] = {};
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const size_t row = wi * 3;
        const double s0 =
            100.0 * ((double)cycles[row] / cycles[row + 1] - 1.0);
        const double s1 =
            100.0 * ((double)cycles[row] / cycles[row + 2] - 1.0);
        std::printf("%-6s | %11.2f%% %11.2f%%\n",
                    workloads[wi]->abbrev.c_str(), s0, s1);
        sums[0] += s0;
        sums[1] += s1;
    }
    std::printf("%-6s | %11.2f%% %11.2f%%\n", "MEAN", sums[0] / 18,
                sums[1] / 18);
    std::printf("\nExpected: bypassing adds on top of cloaking by "
                "removing the value-propagation\nhop from every covered "
                "load's consumers.\n");

    return rarpred::driver::finishSweep(runner, cycles.status, std::cerr);
}
