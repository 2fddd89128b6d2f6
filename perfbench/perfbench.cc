/**
 * @file
 * perfbench: the repository benchmark's measuring program. run.py
 * builds it (Release + LTO), runs it, checks its digests and turns its
 * JSON lines into the end-to-end and per-layer metrics.
 *
 *   perfbench <fig9_timing|accuracy_grid|service_mixed>
 *             --seed=N --trace=0|1 --run-dir=DIR [--launch-ns=T]
 *   perfbench <workload> --digests --run-dir=DIR
 *
 * One process runs one round of the workload, the way a bench binary
 * runs one grid, and prints it as a {"kind":"round"} line. Traced, the
 * round records spans and is followed by the per-layer probes, short
 * runs of the other workloads (fillFromMiniRuns) and a
 * {"kind":"trace"} line. Every run ends with a {"kind":"summary"} line
 * (peak RSS, build identity). T is the CLOCK_MONOTONIC time run.py
 * launched the process at: a sweep's set-up time counts from it.
 * --workers (default min(4, nproc)) exists for the serial baseline of
 * LEDGER.md; run.py never passes it.
 */

#include "perfbench.hh"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <algorithm>
#include <thread>

#include "driver/stats_merger.hh"

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

namespace {

double
seconds(const timeval &tv)
{
    return (double)tv.tv_sec + (double)tv.tv_usec / 1e6;
}

} // namespace

double
processCpuSeconds()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return seconds(self.ru_utime) + seconds(self.ru_stime) +
           seconds(children.ru_utime) + seconds(children.ru_stime);
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB; for children it is the largest one's peak.
    return (double)(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string
digestWords(const uint64_t *words, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        for (int b = 0; b < 8; ++b) {
            h ^= (words[i] >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<const rarpred::Workload *>
seededOrder(uint64_t seed)
{
    std::vector<const rarpred::Workload *> order;
    for (const rarpred::Workload &w : rarpred::allWorkloads())
        order.push_back(&w);
    if (seed == 0)
        return order;
    const auto largest = std::find_if(
        order.begin(), order.end(),
        [](const rarpred::Workload *w) { return w->abbrev == "mgd"; });
    std::rotate(largest, largest + 1, order.end());
    uint64_t state = seed;
    // Fisher-Yates over positions 1..16; the first and last stay put.
    for (size_t i = order.size() - 2; i > 1; --i) {
        const size_t j = 1 + splitmix64(state) % i;
        std::swap(order[i], order[j]);
    }
    return order;
}

int
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return (int)spans_.size() - 1;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
SpanLog::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &s : spans()) {
        out << "{\"name\":\"" << rarpred::driver::jsonEscape(s.name)
            << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << ",\"cell\":" << s.cell << ",\"worker\":" << s.worker
            << "}\n";
    }
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonObject(const Numbers &values)
{
    std::string out = "{";
    for (const auto &[name, v] : values) {
        if (out.size() > 1)
            out += ",";
        out += "\"" + rarpred::driver::jsonEscape(name) +
               "\":" + jsonNumber(v);
    }
    return out + "}";
}

std::string
roundJson(const RoundResult &r, bool traced)
{
    std::ostringstream os;
    os << "{\"kind\":\"round\",\"traced\":" << (traced ? "true" : "false")
       << ",\"setup_s\":" << jsonNumber(r.setupS)
       << ",\"wall_s\":" << jsonNumber(r.wallS)
       << ",\"cpu_s\":" << jsonNumber(r.cpuS) << ",\"latencies_ms\":[";
    for (size_t i = 0; i < r.latenciesMs.size(); ++i)
        os << (i ? "," : "") << jsonNumber(r.latenciesMs[i]);
    os << "],\"cells\":{";
    bool first = true;
    for (const auto &[key, digest] : r.cells) {
        os << (first ? "" : ",") << "\"" << key << "\":\"" << digest
           << "\"";
        first = false;
    }
    os << "},\"unit_cells\":[";
    for (size_t i = 0; i < r.unitCells.size(); ++i) {
        os << (i ? "," : "") << "[";
        for (size_t j = 0; j < r.unitCells[i].size(); ++j)
            os << (j ? "," : "") << "\"" << r.unitCells[i][j] << "\"";
        os << "]";
    }
    os << "],\"extra\":" << jsonObject(r.extra) << "}";
    return os.str();
}

std::string
traceJson(const TraceResult &t)
{
    std::string from;
    for (const auto &[name, workload] : t.filledFrom)
        from += std::string(from.empty() ? "" : ",") + "\"" + name +
                "\":\"" + workload + "\"";
    return "{\"kind\":\"trace\",\"metrics\":" + jsonObject(t.metrics) +
           ",\"ledger_ms\":" + jsonObject(t.ledgerMs) +
           ",\"filled_from\":{" + from + "}}";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2 == 1)
        return v[mid];
    return (v[mid] + *std::max_element(v.begin(), v.begin() + mid)) / 2;
}

namespace {

const WorkloadDriver *const kDrivers[] = {&kFig9Timing, &kAccuracyGrid,
                                          &kServiceMixed};

} // namespace

void
fillFromMiniRuns(const Options &opt, const WorkloadDriver &self,
                 TraceResult *trace)
{
    for (const WorkloadDriver *d : kDrivers) {
        if (d == &self)
            continue;
        Options mini = opt;
        mini.workload = d->name;
        mini.mini = true;
        mini.runDir = opt.runDir + "/mini-" + d->name;
        std::filesystem::create_directories(mini.runDir);
        SpanLog spans;
        TraceResult t;
        (void)d->round(mini, &spans, &t);
        d->probes(mini, &spans, &t);
        for (const auto &[name, value] : t.metrics)
            if (trace->metrics.emplace(name, value).second)
                trace->filledFrom[name] = d->name;
    }
}

} // namespace perfbench

namespace {

using namespace perfbench;

const char *
flagValue(const char *arg, const char *name)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

const WorkloadDriver *
findDriver(const std::string &name)
{
    for (const WorkloadDriver *d : kDrivers)
        if (name == d->name)
            return d;
    return nullptr;
}

int
usage()
{
    std::cerr << "usage: perfbench <fig9_timing|accuracy_grid|"
                 "service_mixed> --seed=N --trace=0|1 --run-dir=DIR "
                 "[--launch-ns=T] [--workers=N]\n"
                 "       perfbench <workload> --digests --run-dir=DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Options opt;
    opt.workload = argv[1];
    opt.workers =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    bool digests = false;
    for (int i = 2; i < argc; ++i) {
        const char *a = argv[i];
        if (const char *v = flagValue(a, "--seed"))
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = flagValue(a, "--workers"))
            opt.workers = std::max(1ul, std::strtoul(v, nullptr, 10));
        else if (const char *v = flagValue(a, "--launch-ns"))
            opt.launchNs = std::strtoll(v, nullptr, 10);
        else if (const char *v = flagValue(a, "--trace"))
            opt.trace = std::strcmp(v, "0") != 0;
        else if (const char *v = flagValue(a, "--run-dir"))
            opt.runDir = v;
        else if (std::strcmp(a, "--digests") == 0)
            digests = true;
        else
            return usage();
    }
    const WorkloadDriver *driver = findDriver(opt.workload);
    if (driver == nullptr || opt.runDir.empty())
        return usage();
    std::error_code ec;
    std::filesystem::create_directories(opt.runDir, ec);
    if (ec) {
        std::cerr << "perfbench: cannot create " << opt.runDir << ": "
                  << ec.message() << "\n";
        return 1;
    }

    if (digests) {
        std::map<std::string, std::string> cells = driver->digests(opt);
        std::cout << "{\"kind\":\"digests\",\"cells\":{";
        bool first = true;
        for (const auto &[key, d] : cells) {
            std::cout << (first ? "" : ",") << "\"" << key << "\":\"" << d
                      << "\"";
            first = false;
        }
        std::cout << "}}\n";
    } else if (!opt.trace) {
        std::cout << roundJson(driver->round(opt, nullptr, nullptr), false)
                  << "\n";
    } else {
        TraceResult trace;
        SpanLog spans;
        const RoundResult traced = driver->round(opt, &spans, &trace);
        std::cout << roundJson(traced, true) << "\n" << std::flush;
        driver->probes(opt, &spans, &trace);
        fillFromMiniRuns(opt, *driver, &trace);
        spans.writeJsonLines(opt.runDir + "/spans-" + opt.workload +
                             ".jsonl");
        std::cout << traceJson(trace) << "\n";
    }

    std::cout << "{\"kind\":\"summary\",\"peak_rss_mb\":"
              << jsonNumber(peakRssMb()) << ",\"build_type\":\""
              << PERFBENCH_BUILD_TYPE << "\",\"lto\":\"" << PERFBENCH_LTO
              << "\",\"compiler\":\"" << PERFBENCH_COMPILER
              << "\",\"workers\":" << opt.workers << "}\n";
    return 0;
}
