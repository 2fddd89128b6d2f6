/**
 * @file
 * Reproduces Figure 7: (a) address locality and (b) value locality of
 * loads, broken down by the dependence status a 128-entry DDT detects
 * (RAW / RAR / no dependence), next to the cloaking coverage achieved
 * by the adaptive RAW+RAR mechanism.
 *
 * Paper expectations: many loads covered by cloaking do NOT exhibit
 * address locality (cloaking does not require predictable addresses);
 * cloaking coverage usually exceeds value locality; very few loads
 * exhibit address locality yet have no detectable dependence.
 */

#include <cstdio>

#include "analysis/inst_mix.hh"
#include "analysis/locality.hh"
#include "bench_util.hh"
#include "core/cloaking.hh"

int
main(int argc, char **argv)
{
    if (const int rc = rarpred::benchutil::rejectArguments(argc, argv))
        return rc;
    std::printf("Figure 7: address/value locality vs cloaking coverage\n");
    std::printf("(128-entry DDT; percentages over all loads)\n\n");
    std::printf("%-6s | %28s | %28s | %15s\n", "",
                "(a) address locality", "(b) value locality",
                "cloaking cov");
    std::printf("%-6s | %8s %8s %8s | %8s %8s %8s | %7s %7s\n", "prog",
                "RAW", "RAR", "none", "RAW", "RAR", "none", "RAW",
                "RAR");

    for (const auto &w : rarpred::allWorkloads()) {
        rarpred::AddressValueLocalityAnalyzer locality(
            rarpred::DdtConfig{});
        rarpred::CloakingConfig config;
        config.ddt.entries = 128;
        rarpred::CloakingEngine cloaking(config);
        rarpred::TeeSink tee{&locality, &cloaking};
        rarpred::benchutil::runWorkload(w, tee);

        const auto &addr = locality.address();
        const auto &value = locality.value();
        const auto &cs = cloaking.stats();
        const double loads = (double)cs.loads;
        using rarpred::DepCategory;
        std::printf("%-6s | %7.1f%% %7.1f%% %7.1f%% | "
                    "%7.1f%% %7.1f%% %7.1f%% | %6.1f%% %6.1f%%\n",
                    w.abbrev.c_str(),
                    100 * addr.fractionOf(DepCategory::Raw),
                    100 * addr.fractionOf(DepCategory::Rar),
                    100 * addr.fractionOf(DepCategory::None),
                    100 * value.fractionOf(DepCategory::Raw),
                    100 * value.fractionOf(DepCategory::Rar),
                    100 * value.fractionOf(DepCategory::None),
                    100 * cs.coveredRaw / loads,
                    100 * cs.coveredRar / loads);
    }
    return 0;
}
