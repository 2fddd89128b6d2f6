#include "workload/fuzz.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "core/cloaking.hh"
#include "driver/sweep.hh"
#include "faultinject/safety_oracle.hh"
#include "vm/recorded_trace.hh"
#include "vm/trace.hh"

namespace rarpred {

namespace {

// The check budget has to stay bounded even for maximal knob draws.
constexpr uint64_t kMinMaxInsts = 2000;
constexpr uint64_t kMaxMaxInsts = 5'000'000;

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The paper's default mechanism — the config every check runs. */
CloakingConfig
fuzzCloakingConfig()
{
    CloakingConfig config;
    config.mode = CloakingMode::RawPlusRar;
    config.ddt.entries = 128;
    config.dpnt.geometry = {8192, 2};
    config.dpnt.confidence = ConfidenceKind::TwoBitAdaptive;
    config.sf = {1024, 2};
    return config;
}

bool
sameInst(const DynInst &a, const DynInst &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.nextPc == b.nextPc &&
           a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.eaddr == b.eaddr &&
           a.value == b.value && a.taken == b.taken;
}

std::string
statsDump(const CloakingStats &s)
{
    std::ostringstream os;
    s.dump(os);
    return os.str();
}

uint64_t
caseIdentity(const FuzzCase &c)
{
    return mix64(c.seed ^ mix64(c.maxInsts) ^ c.params.fingerprint());
}

} // namespace

FuzzCase
drawFuzzCase(uint64_t seed)
{
    Rng rng(mix64(seed ^ 0xf022caf3ull));
    FuzzCase c;
    c.seed = seed;
    c.maxInsts = 40000 + rng.below(40000);
    FactoryParams &p = c.params;
    p.rarSharing = rng.uniform();
    p.storeIntervention = rng.uniform() * 0.8;
    p.chaseDepth = rng.chance(0.5) ? (uint32_t)rng.range(1, 64) : 0;
    p.workingSetWords = 8ull << rng.below(10);
    p.branchEntropy = rng.uniform();
    p.depChainLength = (uint32_t)rng.below(9);
    p.addrPick = (AddressPick)rng.below(4);
    p.planEntries = 64ull << rng.below(5);
    p.accessesPerCall = 16ull << rng.below(4);
    p.outerIters = rng.range(50, 400);
    p.fpData = rng.chance(0.3);
    return c;
}

std::string
fuzzCaseName(const FuzzCase &c)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "factory.fuzz.%016" PRIx64 ".%08" PRIx64, c.seed,
                  (uint64_t)(caseIdentity(c) & 0xFFFFFFFFull));
    return buf;
}

FuzzVerdict
checkFuzzCase(const FuzzCase &c)
{
    FuzzVerdict v;
    const Status valid = c.params.validate();
    if (!valid.ok()) {
        v.failure = "invalid params: " + valid.message();
        return v;
    }
    if (c.maxInsts < kMinMaxInsts || c.maxInsts > kMaxMaxInsts) {
        v.failure = "maxInsts out of the fuzzable range";
        return v;
    }
    const std::string name = fuzzCaseName(c);

    // 1. Determinism: two independent builds, byte-identical listing
    // and trace.
    const Program p1 = buildFactoryProgram(name, c.seed, c.params);
    const Program p2 = buildFactoryProgram(name, c.seed, c.params);
    if (p1.listing() != p2.listing()) {
        v.failure = "nondeterministic program: listings differ";
        return v;
    }
    const RecordedTrace tr1 = RecordedTrace::record(p1, c.maxInsts);
    const RecordedTrace tr2 = RecordedTrace::record(p2, c.maxInsts);
    if (tr1.size() != tr2.size()) {
        v.failure = "nondeterministic trace: lengths differ";
        return v;
    }
    for (size_t i = 0; i < tr1.size(); ++i) {
        if (!sameInst(tr1.decode(i), tr2.decode(i))) {
            v.failure = "nondeterministic trace: record " +
                        std::to_string(i) + " differs";
            return v;
        }
    }
    v.instructions = tr1.size();

    // 2. Speculation safety: fault-free, then with bit flips landing
    // in the predictor state.
    OracleConfig oc;
    oc.cloaking = fuzzCloakingConfig();
    oc.maxInsts = c.maxInsts;
    Result<OracleReport> clean = runSafetyOracle(p1, oc);
    if (!clean.ok()) {
        v.failure = "oracle (fault-free) error: " +
                    clean.status().message();
        return v;
    }
    if (!clean->passed) {
        v.failure = "oracle (fault-free) divergence: " +
                    clean->firstDivergence;
        return v;
    }
    oc.faults.seed = mix64(c.seed ^ 0xfa017edull);
    oc.faults.ratePerStep = 1e-3;
    Result<OracleReport> faulted = runSafetyOracle(p1, oc);
    if (!faulted.ok()) {
        v.failure =
            "oracle (faulted) error: " + faulted.status().message();
        return v;
    }
    if (!faulted->passed) {
        v.failure = "oracle (faulted) divergence: " +
                    faulted->firstDivergence;
        return v;
    }

    // 3. Serial-vs-runSweep equivalence: a plain replay and a
    // 2-worker sweep cell must dump byte-identical cloaking stats.
    CloakingEngine serial(fuzzCloakingConfig());
    tr1.replayInto(serial);
    const std::string serial_dump = statsDump(serial.stats());

    Result<Workload> w = makeFactoryWorkload(name, c.seed, c.params);
    if (!w.ok()) {
        v.failure = "makeFactoryWorkload: " + w.status().message();
        return v;
    }
    driver::RunnerConfig rc;
    rc.workers = 2;
    rc.maxInsts = c.maxInsts;
    driver::SimJobRunner runner(rc);
    const std::vector<const Workload *> workloads = {&*w};
    auto cells = driver::runSweep(
        runner, workloads, 1,
        [](const Workload &, size_t, TraceSource &trace, Rng &) {
            CloakingEngine engine(fuzzCloakingConfig());
            drainTraceBatched(trace, engine);
            return engine.stats();
        });
    if (!cells.status.ok()) {
        v.failure = "runSweep failed: " + cells.status.message();
        return v;
    }
    const std::string sweep_dump = statsDump(cells[0]);
    if (serial_dump != sweep_dump) {
        v.failure = "serial vs runSweep stats diverged:\n--- serial\n" +
                    serial_dump + "--- sweep\n" + sweep_dump;
        return v;
    }

    v.passed = true;
    return v;
}

FuzzCase
minimizeFuzzCase(const FuzzCase &failing,
                 const std::function<bool(const FuzzCase &)> &still_fails,
                 unsigned *shrinks)
{
    using Op = std::function<void(FuzzCase &)>;
    const std::vector<Op> ops = {
        [](FuzzCase &c) {
            c.params.outerIters = std::max<uint64_t>(
                1, c.params.outerIters / 2);
        },
        [](FuzzCase &c) {
            c.maxInsts = std::max<uint64_t>(kMinMaxInsts,
                                            c.maxInsts / 2);
        },
        [](FuzzCase &c) {
            c.params.workingSetWords = std::max<uint64_t>(
                8, c.params.workingSetWords / 2);
        },
        [](FuzzCase &c) {
            c.params.planEntries = std::max<uint64_t>(
                16, c.params.planEntries / 2);
        },
        [](FuzzCase &c) {
            c.params.accessesPerCall = std::max<uint64_t>(
                1, c.params.accessesPerCall / 2);
        },
        [](FuzzCase &c) { c.params.chaseDepth /= 2; },
        [](FuzzCase &c) { c.params.depChainLength /= 2; },
    };

    FuzzCase current = failing;
    unsigned accepted = 0;
    unsigned evals = 0;
    constexpr unsigned kMaxEvals = 64;
    bool changed = true;
    while (changed && evals < kMaxEvals) {
        changed = false;
        for (const Op &op : ops) {
            if (evals >= kMaxEvals)
                break;
            FuzzCase candidate = current;
            op(candidate);
            if (caseIdentity(candidate) == caseIdentity(current))
                continue; // already at this op's floor
            ++evals;
            if (still_fails(candidate)) {
                current = candidate;
                ++accepted;
                changed = true;
            }
        }
    }
    if (shrinks != nullptr)
        *shrinks = accepted;
    return current;
}

std::string
formatFuzzCase(const FuzzCase &c)
{
    char buf[128];
    std::ostringstream os;
    os << "# rarpred factory fuzz case (workload/fuzz.hh)\n";
    os << "seed=" << c.seed << "\n";
    os << "maxInsts=" << c.maxInsts << "\n";
    auto put_f = [&](const char *key, double v) {
        std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
        os << buf;
    };
    put_f("rarSharing", c.params.rarSharing);
    put_f("storeIntervention", c.params.storeIntervention);
    os << "chaseDepth=" << c.params.chaseDepth << "\n";
    os << "workingSetWords=" << c.params.workingSetWords << "\n";
    put_f("branchEntropy", c.params.branchEntropy);
    os << "depChainLength=" << c.params.depChainLength << "\n";
    os << "addrPick=" << addressPickName(c.params.addrPick) << "\n";
    os << "planEntries=" << c.params.planEntries << "\n";
    os << "accessesPerCall=" << c.params.accessesPerCall << "\n";
    os << "outerIters=" << c.params.outerIters << "\n";
    os << "fpData=" << (c.params.fpData ? 1 : 0) << "\n";
    return os.str();
}

Result<FuzzCase>
parseFuzzCase(const std::string &text)
{
    FuzzCase c;
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    bool saw_seed = false;

    auto parse_u64 = [](const std::string &s,
                        uint64_t &out) -> bool {
        if (s.empty())
            return false;
        char *end = nullptr;
        out = std::strtoull(s.c_str(), &end, 10);
        return end != nullptr && *end == '\0';
    };
    auto parse_f = [](const std::string &s, double &out) -> bool {
        if (s.empty())
            return false;
        char *end = nullptr;
        out = std::strtod(s.c_str(), &end);
        return end != nullptr && *end == '\0';
    };

    while (std::getline(is, line)) {
        ++lineno;
        const size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        const size_t last = line.find_last_not_of(" \t\r");
        const std::string body = line.substr(first, last - first + 1);
        const size_t eq = body.find('=');
        if (eq == std::string::npos)
            return Status::invalidArgument(
                "fuzz case line " + std::to_string(lineno) +
                ": expected key=value");
        const std::string key = body.substr(0, eq);
        const std::string val = body.substr(eq + 1);

        bool ok = true;
        uint64_t u = 0;
        if (key == "seed") {
            ok = parse_u64(val, c.seed);
            saw_seed = ok;
        } else if (key == "maxInsts") {
            ok = parse_u64(val, c.maxInsts);
        } else if (key == "rarSharing") {
            ok = parse_f(val, c.params.rarSharing);
        } else if (key == "storeIntervention") {
            ok = parse_f(val, c.params.storeIntervention);
        } else if (key == "chaseDepth") {
            ok = parse_u64(val, u);
            c.params.chaseDepth = (uint32_t)u;
        } else if (key == "workingSetWords") {
            ok = parse_u64(val, c.params.workingSetWords);
        } else if (key == "branchEntropy") {
            ok = parse_f(val, c.params.branchEntropy);
        } else if (key == "depChainLength") {
            ok = parse_u64(val, u);
            c.params.depChainLength = (uint32_t)u;
        } else if (key == "addrPick") {
            Result<AddressPick> pick = parseAddressPick(val);
            if (!pick.ok())
                return pick.status();
            c.params.addrPick = *pick;
        } else if (key == "planEntries") {
            ok = parse_u64(val, c.params.planEntries);
        } else if (key == "accessesPerCall") {
            ok = parse_u64(val, c.params.accessesPerCall);
        } else if (key == "outerIters") {
            ok = parse_u64(val, c.params.outerIters);
        } else if (key == "fpData") {
            ok = parse_u64(val, u) && u <= 1;
            c.params.fpData = u == 1;
        } else {
            return Status::invalidArgument(
                "fuzz case line " + std::to_string(lineno) +
                ": unknown key '" + key + "'");
        }
        if (!ok)
            return Status::invalidArgument(
                "fuzz case line " + std::to_string(lineno) +
                ": bad value for '" + key + "'");
    }

    if (!saw_seed)
        return Status::invalidArgument("fuzz case is missing 'seed'");
    if (c.maxInsts < kMinMaxInsts || c.maxInsts > kMaxMaxInsts)
        return Status::invalidArgument(
            "maxInsts out of the fuzzable range");
    const Status valid = c.params.validate();
    if (!valid.ok())
        return valid;
    return c;
}

} // namespace rarpred
