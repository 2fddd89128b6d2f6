/**
 * @file
 * Reproduces Figure 2: memory dependence locality of RAR dependences.
 *
 * For every workload, prints memory-dependence-locality(n) for
 * n = 1..4 — the probability that a dynamic sink load experiences a
 * RAR dependence it has seen among its last n unique RAR dependences —
 * under (a) an infinite address window and (b) a 4K-entry window.
 *
 * Paper expectation: locality is high everywhere (more than 70% of
 * sink loads hit within the last four unique dependences), and the
 * bounded window is sometimes *higher* than infinite because short
 * dependences are more regular than distant ones.
 */

#include <cstdio>

#include "analysis/inst_mix.hh"
#include "analysis/locality.hh"
#include "bench_util.hh"

int
main(int argc, char **argv)
{
    if (const int rc = rarpred::benchutil::rejectArguments(argc, argv))
        return rc;
    std::printf("Figure 2: RAR memory dependence locality (n = 1..4)\n\n");
    std::printf("%-6s | %6s %6s %6s %6s | %6s %6s %6s %6s | %s | %s\n",
                "prog", "inf:1", "2", "3", "4", "4K:1", "2", "3", "4",
                "sinks", "working set");

    for (const auto &w : rarpred::allWorkloads()) {
        rarpred::RarLocalityAnalyzer infinite(0, 4);
        rarpred::RarLocalityAnalyzer bounded(4096, 4);
        rarpred::DependenceWorkingSetAnalyzer ws(0);
        rarpred::TeeSink tee{&infinite, &bounded, &ws};
        rarpred::benchutil::runWorkload(w, tee);

        auto li = infinite.locality();
        auto lb = bounded.locality();
        std::printf("%-6s | %5.1f%% %5.1f%% %5.1f%% %5.1f%% | "
                    "%5.1f%% %5.1f%% %5.1f%% %5.1f%% | %.2f | "
                    "%4.1f (%4.0f%% <=4)\n",
                    w.abbrev.c_str(), 100 * li[0], 100 * li[1],
                    100 * li[2], 100 * li[3], 100 * lb[0], 100 * lb[1],
                    100 * lb[2], 100 * lb[3],
                    infinite.totalLoads() == 0
                        ? 0.0
                        : (double)infinite.sinkExecutions() /
                              (double)infinite.totalLoads(),
                    ws.meanWorkingSet(),
                    100 * ws.fractionWithWorkingSetAtMost(4));
    }
    std::printf("\n(RAR sinks/loads: fraction of dynamic loads that "
                "experienced a RAR dependence,\n infinite window; last "
                "column: mean unique RAR sources per static sink load\n"
                " and the fraction of sinks with a working set of at "
                "most 4 — Section 2's\n \"working set is relatively "
                "small\")\n");
    return 0;
}
