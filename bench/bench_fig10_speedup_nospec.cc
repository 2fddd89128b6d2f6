/**
 * @file
 * Reproduces Figure 10: speedup of cloaking/bypassing when the base
 * processor does NOT speculate on memory dependences (loads wait for
 * the addresses of all preceding stores). Left bar RAW-based, right
 * bar RAW+RAR-based, both with selective invalidation.
 *
 * Paper expectations: speedups significantly higher (often double)
 * than over the speculating base of Figure 9 — paper averages 9.8%
 * (int) and 6.1% (fp) for RAW+RAR — though a few programs gain less
 * because the critical path becomes loads cloaking cannot attack.
 *
 * Execution: 18 × 3 grid on the parallel sweep driver (--workers=N /
 * --serial), one recorded trace per workload shared by all cores.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "cpu/ooo_cpu.hh"
#include "driver/sweep.hh"

namespace {

rarpred::CloakTimingConfig
mechanism(rarpred::CloakingMode mode)
{
    rarpred::CloakTimingConfig cloak;
    cloak.enabled = true;
    cloak.engine.mode = mode;
    cloak.engine.ddt.entries = 128;
    cloak.engine.dpnt.geometry = {8192, 2};
    cloak.engine.dpnt.confidence =
        rarpred::ConfidenceKind::TwoBitAdaptive;
    cloak.engine.sf = {1024, 2};
    cloak.recovery = rarpred::RecoveryModel::Selective;
    return cloak;
}

} // namespace

int
main(int argc, char **argv)
{
    using rarpred::CloakingMode;

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

    const std::vector<rarpred::CloakTimingConfig> configs = {
        {},
        mechanism(CloakingMode::RawOnly),
        mechanism(CloakingMode::RawPlusRar),
    };

    rarpred::driver::SimJobRunner runner(parsed->runner);
    const auto workloads = rarpred::driver::allWorkloadPtrs();

    const auto cycles = rarpred::driver::runSweep(
        runner, workloads, configs.size(),
        [&configs](const rarpred::Workload &, size_t ci,
                   rarpred::TraceSource &trace, rarpred::Rng &) {
            rarpred::CpuConfig config;
            config.memDep = rarpred::MemDepPolicy::Conservative;
            rarpred::OooCpu cpu(config, configs[ci]);
            rarpred::drainTraceBatched(trace, cpu);
            return cpu.stats().cycles;
        },
        parsed->io);
    if (!cycles.status.ok())
        return rarpred::driver::finishSweep(runner, cycles.status,
                                            std::cerr);

    std::printf("Figure 10: speedup when the base does not speculate on "
                "memory dependences\n\n");
    std::printf("%-6s | %10s %10s\n", "prog", "RAW", "RAW+RAR");

    double sums[2][2] = {};
    int counts[2] = {0, 0};

    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const rarpred::Workload &w = *workloads[wi];
        const size_t row = wi * configs.size();
        const double s0 =
            100.0 * ((double)cycles[row] / cycles[row + 1] - 1.0);
        const double s1 =
            100.0 * ((double)cycles[row] / cycles[row + 2] - 1.0);
        std::printf("%-6s | %9.2f%% %9.2f%%\n", w.abbrev.c_str(), s0,
                    s1);
        const int fp = w.isFp ? 1 : 0;
        ++counts[fp];
        sums[0][fp] += s0;
        sums[1][fp] += s1;
    }
    for (int fp = 0; fp < 2; ++fp)
        std::printf("%-6s | %9.2f%% %9.2f%%\n", fp ? "FP" : "INT",
                    sums[0][fp] / counts[fp], sums[1][fp] / counts[fp]);
    std::printf("\nPaper: RAW+RAR 9.8%% (int), 6.1%% (fp); speedups "
                "often double those of Figure 9.\n");

    return rarpred::driver::finishSweep(runner, cycles.status, std::cerr);
}
