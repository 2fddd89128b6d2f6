/**
 * @file
 * Timing demonstration (Section 5.6): run one synthetic benchmark
 * through the out-of-order core with and without cloaking/bypassing,
 * for both misspeculation recovery mechanisms, and report speedups.
 *
 * The four machine configurations run as one sweep on the parallel
 * driver (src/driver): the workload executes functionally once, and
 * the recorded trace feeds all four cores — on multi-core hosts,
 * concurrently.
 *
 *   ./examples/pipeline_speedup [workload] [--workers=N|--serial]
 *   (default workload: tom)
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cpu/ooo_cpu.hh"
#include "driver/sweep.hh"
#include "workload/workload.hh"

namespace {

rarpred::CloakTimingConfig
mechanism(rarpred::RecoveryModel recovery)
{
    rarpred::CloakTimingConfig cloak;
    cloak.enabled = true;
    cloak.engine.mode = rarpred::CloakingMode::RawPlusRar;
    cloak.engine.ddt.entries = 128;
    cloak.engine.dpnt.geometry = {8192, 2};
    cloak.engine.sf = {1024, 2};
    cloak.recovery = recovery;
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
    std::string name = "tom";
    if (!parsed->positional.empty())
        name = parsed->positional.back();
    const rarpred::Workload &w = rarpred::findWorkload(name);

    // Config grid: base plus the three recovery mechanisms.
    const std::vector<rarpred::CloakTimingConfig> configs = {
        {},
        mechanism(rarpred::RecoveryModel::Selective),
        mechanism(rarpred::RecoveryModel::Squash),
        mechanism(rarpred::RecoveryModel::Oracle),
    };

    rarpred::driver::SimJobRunner runner(parsed->runner);

    const auto stats = rarpred::driver::runSweep(
        runner, {&w}, configs.size(),
        [&configs](const rarpred::Workload &, size_t ci,
                   rarpred::TraceSource &trace, rarpred::Rng &) {
            rarpred::CpuConfig config;
            rarpred::OooCpu cpu(config, configs[ci]);
            rarpred::drainTraceBatched(trace, cpu);
            return cpu.stats();
        },
        parsed->io);
    if (!stats.status.ok())
        return rarpred::driver::finishSweep(runner, stats.status,
                                            std::cerr);

    std::printf("workload %s (%s)\n\n", w.fullName.c_str(),
                w.abbrev.c_str());

    const rarpred::CpuStats &base = stats[0];
    std::printf("base:       %10llu cycles  IPC %.2f  "
                "branch misp %llu\n",
                (unsigned long long)base.cycles, base.ipc(),
                (unsigned long long)base.branchMispredicts);

    const char *labels[3] = {"selective", "squash", "oracle"};
    for (size_t i = 0; i < 3; ++i) {
        const rarpred::CpuStats &s = stats[i + 1];
        std::printf("%-10s  %10llu cycles  IPC %.2f  speedup %+.2f%%  "
                    "(spec used %llu, wrong %llu)\n",
                    labels[i], (unsigned long long)s.cycles, s.ipc(),
                    100.0 * ((double)base.cycles / s.cycles - 1.0),
                    (unsigned long long)s.valueSpecUsed,
                    (unsigned long long)s.valueSpecWrong);
    }
    std::printf("\nSelective invalidation re-executes only the "
                "instructions that read a wrong\nvalue; squash "
                "invalidation re-fetches everything after it "
                "(Section 5.6.1).\n");

    return rarpred::driver::finishSweep(runner, stats.status, std::cerr);
}
