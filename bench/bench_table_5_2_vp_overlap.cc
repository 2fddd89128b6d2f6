/**
 * @file
 * Reproduces the second table of Section 5.5 (printed as "Table 5.1"
 * in the paper): the fraction of loads that get a correct value from
 * cloaking/bypassing but NOT from a last-value predictor (broken down
 * by dependence type), and vice versa ("VP" column).
 *
 * Configuration per the paper: 16K-entry DPNT, 128-entry DDT, 2K
 * synonym file; 16K-entry fully-associative last-value predictor.
 *
 * Paper expectation: for most programs the cloaking-only fraction
 * exceeds the VP-only fraction — the two mechanisms are
 * complementary.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/cloaking.hh"
#include "core/value_predictor.hh"

int
main(int argc, char **argv)
{
    if (const int rc = rarpred::benchutil::rejectArguments(argc, argv))
        return rc;
    std::printf("Table 5.2: loads correct via cloaking/bypassing but not "
                "value prediction, and vice versa\n");
    std::printf("(16K DPNT, 128 DDT, 2K SF; 16K fully-assoc last-value "
                "predictor)\n\n");
    std::printf("%-6s | %9s %9s %9s | %9s\n", "prog", "RAW only",
                "RAR only", "Total", "VP only");

    for (const auto &w : rarpred::allWorkloads()) {
        rarpred::CloakingConfig config;
        config.ddt.entries = 128;
        config.dpnt.geometry = {16384, 0}; // fully associative
        config.sf = {2048, 0};             // fully associative
        rarpred::CloakingEngine cloaking(config);
        rarpred::LastValuePredictor vp({16384, 0});

        uint64_t loads = 0;
        uint64_t cloak_only[2] = {0, 0}; // [RAW, RAR]
        uint64_t vp_only = 0;

        rarpred::Program prog = w.build(1);
        rarpred::MicroVM vm(prog);
        rarpred::DynInst di;
        while (vm.next(di)) {
            auto outcome = cloaking.processInst(di);
            bool vp_correct = vp.processInst(di);
            if (!outcome.wasLoad)
                continue;
            ++loads;
            const bool cloak_correct = outcome.used && outcome.correct;
            if (cloak_correct && !vp_correct)
                ++cloak_only[outcome.type == rarpred::DepType::Raw ? 0
                                                                   : 1];
            else if (vp_correct && !cloak_correct)
                ++vp_only;
        }

        std::printf("%-6s | %8.2f%% %8.2f%% %8.2f%% | %8.2f%%\n",
                    w.abbrev.c_str(),
                    100.0 * cloak_only[0] / (double)loads,
                    100.0 * cloak_only[1] / (double)loads,
                    100.0 * (cloak_only[0] + cloak_only[1]) /
                        (double)loads,
                    100.0 * vp_only / (double)loads);
    }
    return 0;
}
