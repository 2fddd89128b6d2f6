/**
 * @file
 * Factory knob-sensitivity sweep (DESIGN.md §8; not a paper figure).
 *
 * For each factory knob axis, holds every other parameter at the base
 * point and sweeps the axis through five values, measuring the default
 * cloaking mechanism (Section 5.6.1 configuration) on the generated
 * program: coverage, misprediction rate, and the detected-RAR share
 * of all detected dependences.
 *
 * The headline property — the reason this bench exists — is printed
 * last: coverage must rise monotonically with the RAR-sharing knob.
 * tests/test_factory.cc asserts the same property in tier-1; this
 * bench plots the full surface and emits it as
 * BENCH_factory_sensitivity.json (--out=FILE to redirect) so knob
 * drift shows up in nightly artifacts.
 *
 * Runs on the parallel sweep driver: all 25 axis points are
 * independent jobs, bit-identical for any --workers=N.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cloaking.hh"
#include "driver/sweep.hh"
#include "vm/trace.hh"
#include "workload/factory.hh"

namespace {

using rarpred::AddressPick;
using rarpred::CloakingConfig;
using rarpred::CloakingEngine;
using rarpred::CloakingMode;
using rarpred::ConfidenceKind;
using rarpred::FactoryParams;
using rarpred::Workload;

/** Section 5.6.1 default mechanism, the golden-stats configuration. */
CloakingConfig
defaultCloakingConfig()
{
    CloakingConfig config;
    config.mode = CloakingMode::RawPlusRar;
    config.ddt.entries = 128;
    config.dpnt.geometry = {8192, 2};
    config.dpnt.confidence = ConfidenceKind::TwoBitAdaptive;
    config.sf = {1024, 2};
    return config;
}

/** One knob axis: five parameter points around the shared base. */
struct Axis
{
    const char *name;
    double points[5]; ///< knob values (counts stored as doubles)
    void (*apply)(FactoryParams &, double);
};

constexpr uint64_t kSeed = 2024;
constexpr size_t kPoints = 5;

FactoryParams
basePoint()
{
    FactoryParams p;
    p.rarSharing = 0.5;
    p.storeIntervention = 0.1;
    p.branchEntropy = 0.5;
    p.workingSetWords = 256;
    p.planEntries = 1024;
    p.addrPick = AddressPick::Pooled;
    p.outerIters = 800;
    return p;
}

const std::vector<Axis> &
axes()
{
    static const std::vector<Axis> kAxes = {
        {"rarSharing",
         {0.0, 0.25, 0.5, 0.75, 1.0},
         [](FactoryParams &p, double v) { p.rarSharing = v; }},
        {"storeIntervention",
         {0.0, 0.2, 0.4, 0.6, 0.8},
         [](FactoryParams &p, double v) { p.storeIntervention = v; }},
        {"branchEntropy",
         {0.0, 0.25, 0.5, 0.75, 1.0},
         [](FactoryParams &p, double v) { p.branchEntropy = v; }},
        {"workingSetWords",
         {64, 256, 1024, 4096, 16384},
         [](FactoryParams &p, double v) {
             p.workingSetWords = (uint64_t)v;
         }},
        {"chaseDepth",
         {0, 16, 64, 256, 1024},
         [](FactoryParams &p, double v) {
             p.chaseDepth = (uint32_t)v;
         }},
    };
    return kAxes;
}

struct Cell
{
    double coverage = 0;
    double mispredictionRate = 0;
    double rarShare = 0; ///< detectedRar / (detectedRaw + detectedRar)
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel --out= off before the shared sweep parser (which rejects
    // flags it does not know).
    std::string out_path = "BENCH_factory_sensitivity.json";
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else
            args.push_back(argv[i]);
    }

    rarpred::driver::installStopHandlers();
    const auto parsed =
        rarpred::driver::parseSweepArgs((int)args.size(), args.data());
    if (!parsed.ok()) {
        std::cerr << parsed.status().toString() << "\n"
                  << rarpred::driver::sweepUsage();
        return 2;
    }
    if (parsed->help) {
        std::fputs(rarpred::driver::sweepUsage(), stdout);
        std::fputs("  --out=FILE                 JSON output path\n",
                   stdout);
        return 0;
    }

    auto runner_config = parsed->runner;
    if (runner_config.maxInsts == ~0ull)
        runner_config.maxInsts = 200'000;

    // Materialize one workload per (axis, point); distinct abbrevs
    // keep the driver's trace cache from conflating the knob points.
    std::vector<Workload> storage;
    storage.reserve(axes().size() * kPoints);
    for (const Axis &axis : axes()) {
        for (size_t i = 0; i < kPoints; ++i) {
            FactoryParams p = basePoint();
            axis.apply(p, axis.points[i]);
            const std::string abbrev = std::string("factory.sens.") +
                                       axis.name + "." +
                                       std::to_string(i);
            auto w = rarpred::makeFactoryWorkload(abbrev, kSeed, p);
            if (!w.ok()) {
                std::cerr << abbrev << ": " << w.status().toString()
                          << "\n";
                return 2;
            }
            storage.push_back(std::move(*w));
        }
    }
    std::vector<const Workload *> workloads;
    for (const Workload &w : storage)
        workloads.push_back(&w);

    rarpred::driver::SimJobRunner runner(runner_config);
    const auto cells = rarpred::driver::runSweep(
        runner, workloads, 1,
        [](const Workload &, size_t, rarpred::TraceSource &trace,
           rarpred::Rng &) {
            CloakingEngine engine(defaultCloakingConfig());
            rarpred::drainTraceBatched(trace, engine);
            const auto &s = engine.stats();
            const uint64_t detected = s.detectedRaw + s.detectedRar;
            return Cell{s.coverage(), s.mispredictionRate(),
                        detected ? (double)s.detectedRar / detected
                                 : 0.0};
        },
        parsed->io);
    if (!cells.status.ok())
        return rarpred::driver::finishSweep(runner, cells.status,
                                            std::cerr);

    std::printf("Factory knob sensitivity (default cloaking mechanism)\n");
    std::printf("(each cell: coverage%% / mispredict%% / RAR share%%)\n\n");

    std::ofstream json(out_path);
    json << "{\n  \"bench\": \"factory_sensitivity\",\n"
         << "  \"seed\": " << kSeed << ",\n  \"axes\": {\n";

    bool rar_monotone = true;
    for (size_t ai = 0; ai < axes().size(); ++ai) {
        const Axis &axis = axes()[ai];
        std::printf("%-18s", axis.name);
        json << "    \"" << axis.name << "\": [\n";
        double prev_cov = -1.0;
        for (size_t i = 0; i < kPoints; ++i) {
            const Cell &cell = cells[ai * kPoints + i];
            std::printf("  %5.1f /%5.1f /%5.1f",
                        100 * cell.coverage,
                        100 * cell.mispredictionRate,
                        100 * cell.rarShare);
            json << "      {\"knob\": " << axis.points[i]
                 << ", \"coverage\": " << cell.coverage
                 << ", \"mispredictionRate\": "
                 << cell.mispredictionRate
                 << ", \"rarShare\": " << cell.rarShare << "}"
                 << (i + 1 < kPoints ? "," : "") << "\n";
            if (std::string(axis.name) == "rarSharing") {
                if (cell.coverage < prev_cov)
                    rar_monotone = false;
                prev_cov = cell.coverage;
            }
        }
        std::printf("\n");
        json << "    ]" << (ai + 1 < axes().size() ? "," : "") << "\n";
    }
    json << "  },\n  \"rarSharingCoverageMonotone\": "
         << (rar_monotone ? "true" : "false") << "\n}\n";

    std::printf("\ncoverage monotone in rarSharing: %s\n",
                rar_monotone ? "yes" : "NO (knob regression!)");
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());

    const auto status =
        rar_monotone ? cells.status
                     : rarpred::Status::internal(
                           "coverage not monotone in rarSharing");
    return rarpred::driver::finishSweep(runner, status, std::cerr);
}
