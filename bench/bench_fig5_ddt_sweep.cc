/**
 * @file
 * Reproduces Figure 5: fraction of loads with a detectable RAW or RAR
 * dependence as a function of DDT size (32..2K entries, LRU).
 *
 * Paper expectations: a large fraction of loads have a visible
 * dependence even with small DDTs; integer codes see roughly twice as
 * many RAW as RAR dependences at small sizes while floating-point
 * codes are reversed; RAW detection keeps growing with DDT size and
 * converts some RAR dependences into RAW ones (loads whose store
 * producer is distant).
 *
 * Execution: the 18 × 7 grid runs on the parallel sweep driver
 * (--workers=N / --serial); each workload's trace is generated once
 * and replayed into every DDT size. Runner timing counters go to
 * stderr; the table below is bit-identical for any worker count.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "core/ddt.hh"
#include "driver/sweep.hh"
#include "vm/trace.hh"

namespace {

/** Counts loads by the dependence type a DDT of given size detects. */
class DdtSweepSink : public rarpred::TraceSink
{
  public:
    explicit DdtSweepSink(size_t entries)
        : detector_({entries, true, true, false, 3})
    {}

    void
    onInst(const rarpred::DynInst &di) override
    {
        if (di.isStore()) {
            detector_.onStore(di.pc, di.eaddr);
            return;
        }
        if (!di.isLoad())
            return;
        ++loads_;
        if (auto dep = detector_.onLoad(di.pc, di.eaddr)) {
            if (dep->type == rarpred::DepType::Raw)
                ++raw_;
            else
                ++rar_;
        }
    }

    double rawFrac() const { return loads_ ? (double)raw_ / loads_ : 0; }
    double rarFrac() const { return loads_ ? (double)rar_ / loads_ : 0; }

  private:
    rarpred::DependenceDetector detector_;
    uint64_t loads_ = 0;
    uint64_t raw_ = 0;
    uint64_t rar_ = 0;
};

struct Cell
{
    double rawFrac = 0;
    double rarFrac = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<size_t> sizes = {32, 64, 128, 256, 512, 1024, 2048};

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

    const auto cells = rarpred::driver::runSweep(
        runner, workloads, sizes.size(),
        [&sizes](const rarpred::Workload &, size_t ci,
                 rarpred::TraceSource &trace, rarpred::Rng &) {
            DdtSweepSink sink(sizes[ci]);
            rarpred::drainTraceBatched(trace, sink);
            return Cell{sink.rawFrac(), sink.rarFrac()};
        },
        parsed->io);
    if (!cells.status.ok())
        return rarpred::driver::finishSweep(runner, cells.status,
                                            std::cerr);

    std::printf("Figure 5: loads with RAW/RAR dependences vs DDT size\n");
    std::printf("(each cell: RAW%% / RAR%% of all loads)\n\n");
    std::printf("%-6s", "prog");
    for (size_t s : sizes)
        std::printf(" %13zu", s);
    std::printf("\n");

    double int_raw[8] = {}, int_rar[8] = {};
    double fp_raw[8] = {}, fp_rar[8] = {};
    int n_int = 0, n_fp = 0;

    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const rarpred::Workload &w = *workloads[wi];
        std::printf("%-6s", w.abbrev.c_str());
        for (size_t i = 0; i < sizes.size(); ++i) {
            const Cell &cell = cells[wi * sizes.size() + i];
            std::printf("  %5.1f /%5.1f", 100 * cell.rawFrac,
                        100 * cell.rarFrac);
            if (w.isFp) {
                fp_raw[i] += cell.rawFrac;
                fp_rar[i] += cell.rarFrac;
            } else {
                int_raw[i] += cell.rawFrac;
                int_rar[i] += cell.rarFrac;
            }
        }
        std::printf("\n");
        if (w.isFp)
            ++n_fp;
        else
            ++n_int;
    }

    std::printf("\n%-6s", "INT");
    for (size_t i = 0; i < sizes.size(); ++i)
        std::printf("  %5.1f /%5.1f", 100 * int_raw[i] / n_int,
                    100 * int_rar[i] / n_int);
    std::printf("\n%-6s", "FP");
    for (size_t i = 0; i < sizes.size(); ++i)
        std::printf("  %5.1f /%5.1f", 100 * fp_raw[i] / n_fp,
                    100 * fp_rar[i] / n_fp);
    std::printf("\n");

    return rarpred::driver::finishSweep(runner, cells.status, std::cerr);
}
