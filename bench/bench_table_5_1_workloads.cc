/**
 * @file
 * Reproduces Table 5.1: benchmark execution characteristics.
 *
 * Prints, for every synthetic workload, the dynamic instruction count
 * and the load/store instruction fractions, next to the values the
 * paper reports for the corresponding SPEC'95 program. The paper's
 * sampling-ratio column does not apply: every synthetic program is
 * simulated in full.
 */

#include <cstdio>

#include "analysis/inst_mix.hh"
#include "bench_util.hh"
#include "vm/micro_vm.hh"
#include "workload/workload.hh"

namespace {

struct PaperRow
{
    const char *abbrev;
    double loads;
    double stores;
};

// Table 5.1 of the paper (fractions in percent).
constexpr PaperRow kPaper[] = {
    {"go", 20.9, 7.3},   {"m88", 18.8, 9.6},  {"gcc", 24.3, 17.5},
    {"com", 21.7, 13.5}, {"li", 29.6, 17.6},  {"ijp", 17.7, 8.7},
    {"per", 25.6, 16.6}, {"vor", 26.3, 27.3}, {"tom", 31.9, 8.8},
    {"swm", 27.0, 6.6},  {"su2", 33.8, 10.1}, {"hyd", 29.7, 8.2},
    {"mgd", 46.6, 3.0},  {"apl", 31.4, 7.9},  {"trb", 21.3, 14.6},
    {"aps", 31.4, 13.4}, {"fp*", 48.8, 17.5}, {"wav", 30.2, 13.0},
};

const PaperRow *
paperRowFor(const std::string &abbrev)
{
    for (const auto &row : kPaper)
        if (abbrev == row.abbrev)
            return &row;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const int rc = rarpred::benchutil::rejectArguments(argc, argv))
        return rc;
    std::printf("Table 5.1: Benchmark Execution Characteristics\n");
    std::printf("(synthetic reproductions; paper values in parens)\n\n");
    std::printf("%-14s %-5s %12s %18s %18s\n", "Program", "Ab.",
                "IC", "Loads", "Stores");

    bool printed_fp_header = false;
    std::printf("--- SPECint'95 %s\n", std::string(55, '-').c_str());
    for (const auto &w : rarpred::allWorkloads()) {
        if (w.isFp && !printed_fp_header) {
            std::printf("--- SPECfp'95 %s\n",
                        std::string(56, '-').c_str());
            printed_fp_header = true;
        }
        rarpred::Program prog = w.build(1);
        rarpred::MicroVM vm(prog);
        rarpred::InstMixCounter mix;
        vm.run(mix, 100'000'000ull);

        const PaperRow *paper = paperRowFor(w.abbrev);
        std::printf("%-14s %-5s %12llu %7.1f%% (%4.1f%%) %7.1f%% (%4.1f%%)\n",
                    w.fullName.c_str(), w.abbrev.c_str(),
                    (unsigned long long)mix.total(),
                    100.0 * mix.loadFraction(),
                    paper ? paper->loads : 0.0,
                    100.0 * mix.storeFraction(),
                    paper ? paper->stores : 0.0);
    }
    return 0;
}
