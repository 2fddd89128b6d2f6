/**
 * @file
 * Reproduces Figure 6: cloaking coverage and misspeculation rates for
 * the two confidence mechanisms (1-bit non-adaptive vs 2-bit adaptive
 * automaton), with a RAW/RAR breakdown. Configuration per Section
 * 5.3: 128-entry DDT, infinite DPNT/SF.
 *
 * Paper expectations: RAR adds roughly +20% (int) / +30% (fp) of all
 * loads to coverage; the adaptive predictor loses only a little
 * coverage but cuts misspeculation by about an order of magnitude
 * (to ~2% int / ~0.35% fp).
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/cloaking.hh"

namespace {

rarpred::CloakingConfig
makeConfig(rarpred::ConfidenceKind conf)
{
    rarpred::CloakingConfig config;
    config.mode = rarpred::CloakingMode::RawPlusRar;
    config.ddt.entries = 128;
    config.dpnt.geometry = {0, 0}; // infinite
    config.dpnt.confidence = conf;
    config.sf = {0, 0}; // infinite
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const int rc = rarpred::benchutil::rejectArguments(argc, argv))
        return rc;
    using rarpred::ConfidenceKind;

    std::printf("Figure 6: cloaking accuracy per dependence type\n");
    std::printf("(128-entry DDT, infinite DPNT/SF; percentages over all "
                "loads)\n\n");
    std::printf("%-6s | %28s | %28s\n", "",
                "1-bit non-adaptive", "2-bit adaptive");
    std::printf("%-6s | %9s %9s %8s | %9s %9s %8s\n", "prog", "cov RAW",
                "cov RAR", "misp", "cov RAW", "cov RAR", "misp");

    double sum_cov[2][2][2] = {}; // [conf][isFp][type]
    double sum_misp[2][2] = {};   // [conf][isFp]
    int counts[2] = {0, 0};

    for (const auto &w : rarpred::allWorkloads()) {
        rarpred::CloakingEngine naive(
            makeConfig(ConfidenceKind::OneBitNonAdaptive));
        rarpred::CloakingEngine adaptive(
            makeConfig(ConfidenceKind::TwoBitAdaptive));
        rarpred::Program prog = w.build(1);
        rarpred::MicroVM vm(prog);
        rarpred::DynInst di;
        while (vm.next(di)) {
            naive.onInst(di);
            adaptive.onInst(di);
        }

        const auto &sn = naive.stats();
        const auto &sa = adaptive.stats();
        const double loads = (double)sn.loads;
        std::printf("%-6s | %8.2f%% %8.2f%% %7.3f%% | "
                    "%8.2f%% %8.2f%% %7.3f%%\n",
                    w.abbrev.c_str(), 100 * sn.coveredRaw / loads,
                    100 * sn.coveredRar / loads,
                    100 * sn.mispredicted() / loads,
                    100 * sa.coveredRaw / loads,
                    100 * sa.coveredRar / loads,
                    100 * sa.mispredicted() / loads);

        const int fp = w.isFp ? 1 : 0;
        ++counts[fp];
        sum_cov[0][fp][0] += sn.coveredRaw / loads;
        sum_cov[0][fp][1] += sn.coveredRar / loads;
        sum_misp[0][fp] += (double)sn.mispredicted() / loads;
        sum_cov[1][fp][0] += sa.coveredRaw / loads;
        sum_cov[1][fp][1] += sa.coveredRar / loads;
        sum_misp[1][fp] += (double)sa.mispredicted() / loads;
    }

    for (int fp = 0; fp < 2; ++fp) {
        std::printf("%-6s | %8.2f%% %8.2f%% %7.3f%% | "
                    "%8.2f%% %8.2f%% %7.3f%%\n",
                    fp ? "FP" : "INT",
                    100 * sum_cov[0][fp][0] / counts[fp],
                    100 * sum_cov[0][fp][1] / counts[fp],
                    100 * sum_misp[0][fp] / counts[fp],
                    100 * sum_cov[1][fp][0] / counts[fp],
                    100 * sum_cov[1][fp][1] / counts[fp],
                    100 * sum_misp[1][fp] / counts[fp]);
    }
    std::printf("\nPaper (adaptive): RAR adds ~20%% (int) / ~30%% (fp) "
                "coverage;\nmisspeculation ~2%% (int), ~0.35%% (fp), "
                "~1.01%% overall.\n");
    return 0;
}
