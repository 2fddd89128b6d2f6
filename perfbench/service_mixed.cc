/**
 * @file
 * service_mixed: the resident sweep service under a mixed read/write
 * request stream.
 *
 * A round starts an in-process SweepDaemon with isolateJobs on a fresh
 * store, so every simulated cell runs in a rarpred-worker process,
 * starts every worker process and waits for the first STATUS reply
 * (together, the set-up time). Then it drives the daemon from two
 * closed-loop client connections, each its own
 * tenant. Each connection sends a seeded script of small requests (one
 * program x two configs, traces truncated to kMaxInsts):
 *  - one in five carries two cells nobody has asked for: simulated in
 *    a worker, then written to the store with a durable put;
 *  - the rest repeat a request that connection already had answered:
 *    all store reads.
 * Connections draw their new cells from disjoint config variants, so
 * the store-hit share is exactly the designed one.
 */

#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

#include "driver/sweep.hh"
#include "driver/worker_pool.hh"
#include "perfbench.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/proto.hh"
#include "service/result_store.hh"

namespace perfbench {

namespace {

using rarpred::CpuStats;
using rarpred::service::CellConfigMsg;
using rarpred::service::SweepReply;
using rarpred::service::SweepRequestMsg;

constexpr int kConnections = 2;
constexpr int kRequestsPerConnection = 200; ///< a tenth when Options::mini
constexpr int kVariantPairs = 3; ///< new-cell config pairs per connection
constexpr uint64_t kMaxInsts = 200000;
constexpr uint64_t kClientTimeoutMs = 60000;

/** Config variant @p v of connection @p conn: only the DDT size moves. */
CellConfigMsg
variant(int conn, int v)
{
    CellConfigMsg cfg;
    cfg.cloakEnabled = 1;
    cfg.ddtEntries = 64 + 32 * (uint32_t)(conn * 2 * kVariantPairs + v);
    return cfg;
}

std::string
cellKey(const std::string &program, int conn, int v)
{
    return program + "/c" + std::to_string(conn) + "v" + std::to_string(v);
}

struct ScriptedRequest
{
    SweepRequestMsg msg;
    bool hit = false;
    std::vector<std::string> keys; ///< by reply cell index
};

/** The seeded script of @p requests requests of connection @p conn. */
std::vector<ScriptedRequest>
makeScript(uint64_t seed, int conn, int requests)
{
    uint64_t state = seed * 0x2545f4914f6cdd1dull + (uint64_t)conn + 1;
    const auto below = [&state](size_t n) {
        return (size_t)(splitmix64(state) % n);
    };

    // Misses: request 0 (nothing to repeat yet) plus a seeded sample.
    std::vector<char> miss(requests, 0);
    std::vector<int> slots;
    for (int k = 1; k < requests; ++k)
        slots.push_back(k);
    miss[0] = 1;
    for (int i = 0; i < requests / 5 - 1; ++i) {
        std::swap(slots[i], slots[i + below(slots.size() - i)]);
        miss[slots[i]] = 1;
    }

    // New cells: a seeded order over (program, config pair).
    const auto &programs = rarpred::allWorkloads();
    std::vector<std::pair<size_t, int>> fresh;
    for (size_t w = 0; w < programs.size(); ++w)
        for (int p = 0; p < kVariantPairs; ++p)
            fresh.emplace_back(w, p);
    for (size_t i = fresh.size() - 1; i > 0; --i)
        std::swap(fresh[i], fresh[below(i + 1)]);

    std::vector<ScriptedRequest> script;
    size_t next_fresh = 0;
    for (int k = 0; k < requests; ++k) {
        if (!miss[k]) {
            ScriptedRequest again = script[below(script.size())];
            again.hit = true;
            script.push_back(std::move(again));
            continue;
        }
        const auto [w, pair] = fresh[next_fresh++];
        ScriptedRequest r;
        r.msg.tenant = "conn" + std::to_string(conn);
        r.msg.maxInsts = kMaxInsts;
        r.msg.workloads = {programs[w].abbrev};
        for (int v : {2 * pair, 2 * pair + 1}) {
            r.msg.configs.push_back(variant(conn, v));
            r.keys.push_back(cellKey(programs[w].abbrev, conn, v));
        }
        script.push_back(std::move(r));
    }
    return script;
}

std::string
statsDigest(const CpuStats &s)
{
    static_assert(sizeof(CpuStats) == 11 * sizeof(uint64_t));
    uint64_t words[11];
    std::memcpy(words, &s, sizeof(s));
    return digestWords(words, 11);
}

[[noreturn]] void
fatal(const std::string &what, const rarpred::Status &s)
{
    std::cerr << "perfbench: " << what << ": " << s.toString() << "\n";
    std::exit(1);
}

/**
 * Start every worker process of the daemon's pool before the timed
 * window. The pool spawns a slot's worker on its first job, so this
 * sends one tiny job per slot, all at once.
 */
void
warmWorkers(rarpred::driver::WorkerPool &pool, unsigned workers)
{
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < workers; ++i) {
        threads.emplace_back([&pool, i] {
            rarpred::driver::WorkerJobDesc job;
            job.token = i;
            job.workload = rarpred::allWorkloads()[0].abbrev;
            job.maxInsts = 1000;
            job.config = variant(0, 0);
            if (const auto r = pool.runJob(job); !r.ok())
                fatal("worker warm-up", r.status());
        });
    }
    for (std::thread &th : threads)
        th.join();
}

/** What one connection saw. */
struct ConnectionLog
{
    std::vector<double> latencyMs;
    std::vector<int64_t> startNs;
    std::vector<char> ok;
    std::vector<SweepReply> replies;
};

void
runConnection(const std::string &socket,
              const std::vector<ScriptedRequest> &script, ConnectionLog *log)
{
    rarpred::service::ServiceClient client(socket, kClientTimeoutMs);
    for (const ScriptedRequest &r : script) {
        const int64_t t0 = nowNs();
        auto reply = client.sweep(r.msg);
        const int64_t t1 = nowNs();
        log->startNs.push_back(t0);
        log->latencyMs.push_back((double)(t1 - t0) / 1e6);
        bool good = reply.ok() && reply->rows.size() == r.keys.size() &&
                    reply->done.errors == 0;
        if (good)
            for (size_t i = 0; i < reply->rows.size(); ++i)
                good = good && reply->rows[i].errorCode == 0 &&
                       reply->rows[i].cell == i;
        log->ok.push_back(good);
        log->replies.push_back(reply.ok() ? *reply : SweepReply{});
    }
}

/** Encode + decode of every request and its reply rows, @p reps times. */
double
frameProbeUs(const std::vector<std::vector<ScriptedRequest>> &scripts,
             const std::vector<ConnectionLog> &logs, int reps)
{
    using namespace rarpred::service;
    uint64_t decoded = 0, requests = 0;
    const int64_t t0 = nowNs();
    for (int rep = 0; rep < reps; ++rep) {
        for (size_t c = 0; c < scripts.size(); ++c) {
            for (size_t k = 0; k < scripts[c].size(); ++k) {
                FrameDecoder decoder;
                Frame frame;
                bool have = false;
                const auto req = encodeFrame(FrameType::SweepRequest,
                                             scripts[c][k].msg.encode());
                (void)decoder.feed(req.data(), req.size());
                (void)decoder.next(&frame, &have);
                decoded += SweepRequestMsg::decode(frame.payload).ok();
                for (const RowMsg &row : logs[c].replies[k].rows) {
                    const auto bytes =
                        encodeFrame(FrameType::Row, row.encode());
                    (void)decoder.feed(bytes.data(), bytes.size());
                    (void)decoder.next(&frame, &have);
                    decoded += RowMsg::decode(frame.payload).ok();
                }
                ++requests;
            }
        }
    }
    const int64_t t1 = nowNs();
    if (decoded == 0)
        return 0;
    return (double)(t1 - t0) / 1e3 / (double)requests;
}

RoundResult
serviceRound(const Options &opt, SpanLog *spans, TraceResult *t)
{
    const int requests =
        opt.mini ? kRequestsPerConnection / 10 : kRequestsPerConnection;
    std::vector<std::vector<ScriptedRequest>> scripts;
    for (int c = 0; c < kConnections; ++c)
        scripts.push_back(makeScript(opt.seed, c, requests));
    const std::string store = opt.runDir + "/store";
    std::filesystem::remove_all(store);

    RoundResult r;
    const int64_t t0 = nowNs();
    const double cpu0 = processCpuSeconds();
    rarpred::service::DaemonConfig dc;
    dc.socketPath = opt.runDir + "/svc.sock";
    dc.storeDir = store;
    dc.workers = opt.workers;
    dc.isolateJobs = true;
    rarpred::service::SweepDaemon daemon(dc);
    if (const auto s = daemon.serve(); !s.ok())
        fatal("daemon start", s);
    warmWorkers(*daemon.workerPool(), opt.workers);
    if (const auto s = rarpred::service::ServiceClient(dc.socketPath,
                                                       kClientTimeoutMs)
                           .status();
        !s.ok())
        fatal("status probe", s.status());
    const int64_t ready = nowNs();

    std::vector<ConnectionLog> logs(kConnections);
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c)
        clients.emplace_back(runConnection, dc.socketPath,
                             std::cref(scripts[c]), &logs[c]);
    for (std::thread &th : clients)
        th.join();
    const int64_t done = nowNs();

    const auto counters = daemon.counters();
    const auto pool = daemon.workerPool()->stats();
    daemon.stop(); // reaps the workers, so cpu_s counts them
    r.cpuS = processCpuSeconds() - cpu0;
    r.setupS = (double)(ready - t0) / 1e9;
    r.wallS = (double)(done - ready) / 1e9;
    std::filesystem::remove_all(store);

    double hit_cells = 0, all_cells = 0;
    std::vector<double> hit_ms, miss_ms;
    for (int c = 0; c < kConnections; ++c) {
        for (size_t k = 0; k < scripts[c].size(); ++k) {
            const ScriptedRequest &req = scripts[c][k];
            const ConnectionLog &log = logs[c];
            r.latenciesMs.push_back(log.latencyMs[k]);
            (req.hit ? hit_ms : miss_ms).push_back(log.latencyMs[k]);
            all_cells += (double)req.keys.size();
            hit_cells += req.hit ? (double)req.keys.size() : 0;
            if (!log.ok[k]) {
                r.unitCells.emplace_back();
                continue;
            }
            for (size_t i = 0; i < req.keys.size(); ++i) {
                const std::string d =
                    statsDigest(log.replies[k].rows[i].stats);
                auto [it, fresh] = r.cells.emplace(req.keys[i], d);
                if (!fresh && it->second != d)
                    it->second = "conflict";
            }
            r.unitCells.push_back(req.keys);
        }
    }
    const double hits = (double)counters.storeHit;
    const double store_hit_frac =
        hits / std::max(1.0, hits + (double)counters.storeMiss);
    r.extra["store_hit_frac"] = store_hit_frac;
    r.extra["designed_hit_frac"] = hit_cells / all_cells;
    r.extra["shed"] = (double)counters.shed;
    r.extra["cells_failed"] = (double)counters.cellsFailed;
    r.extra["proto_errors"] = (double)counters.protoErrors;
    r.extra["workers_spawned"] = (double)pool.spawned;
    if (t == nullptr)
        return r;

    const int round_span = spans->add({"round", t0, done, -1, -1, -1});
    spans->add({"service.setup", t0, ready, round_span, -1, -1});
    for (int c = 0; c < kConnections; ++c) {
        for (size_t k = 0; k < scripts[c].size(); ++k) {
            const int64_t s0 = logs[c].startNs[k];
            spans->add({scripts[c][k].hit ? "service.request.hit"
                                          : "service.request.miss",
                        s0, s0 + (int64_t)(logs[c].latencyMs[k] * 1e6),
                        round_span, c * requests + (int)k, c});
        }
    }
    Numbers &m = t->metrics;
    m["service.hit_req_ms"] = median(hit_ms);
    m["service.miss_req_ms"] = median(miss_ms);
    m["service.store_hit_frac"] = store_hit_frac;
    m["service.shed"] = (double)counters.shed;
    m["driver.retries"] = (double)pool.jobsFailed;
    m["driver.quarantined"] = (double)counters.cellsFailed;
    const int64_t f0 = nowNs();
    m["service.frame_us"] = frameProbeUs(scripts, logs, 5);
    spans->add({"service.frame_probe", f0, nowNs(), -1, -1, -1});

    double hit_sum = 0, miss_sum = 0;
    for (double v : hit_ms)
        hit_sum += v;
    for (double v : miss_ms)
        miss_sum += v;
    t->ledgerMs["service.setup"] = r.setupS * 1e3;
    t->ledgerMs["service.script_wall"] = r.wallS * 1e3;
    t->ledgerMs["service.requests_hit"] = hit_sum;
    t->ledgerMs["service.requests_miss"] = miss_sum;
    return r;
}

/**
 * Per-layer probes of the service path, on scratch state: ResultStore
 * put/get, and one cell through WorkerPool::runJob against the same
 * cell through runCellSweep in this process (both on warm traces).
 */
void
serviceProbes(const Options &opt, SpanLog *spans, TraceResult *t)
{
    const std::string dir = opt.runDir + "/store-probe";
    std::filesystem::remove_all(dir);
    rarpred::service::ResultStore store(dir);
    if (const auto s = store.init(); !s.ok())
        fatal("probe store", s);
    CpuStats sample;
    sample.instructions = kMaxInsts;
    sample.cycles = 2 * kMaxInsts;
    constexpr int kEntries = 64, kGetPasses = 8;
    const int64_t p0 = nowNs();
    for (int i = 0; i < kEntries; ++i)
        if (const auto s = store.put(0x1000 + i, sample); !s.ok())
            fatal("probe put", s);
    const int64_t p1 = nowNs();
    for (int pass = 0; pass < kGetPasses; ++pass)
        for (int i = 0; i < kEntries; ++i)
            if (const auto got = store.get(0x1000 + i); !got.ok())
                fatal("probe get", got.status());
    const int64_t p2 = nowNs();
    std::filesystem::remove_all(dir);
    spans->add({"service.store.put", p0, p1, -1, -1, -1});
    spans->add({"service.store.get", p1, p2, -1, -1, -1});
    t->metrics["service.store_put_us"] = (double)(p1 - p0) / 1e3 / kEntries;
    t->metrics["service.store_get_us"] =
        (double)(p2 - p1) / 1e3 / (kEntries * kGetPasses);

    rarpred::driver::WorkerPoolConfig pc;
    pc.workers = 1;
    rarpred::driver::WorkerPool pool(pc);
    if (const auto s = pool.start(); !s.ok())
        fatal("probe pool", s);
    rarpred::driver::RunnerConfig rc;
    rc.workers = 1; // inline on this thread
    rc.maxInsts = kMaxInsts;
    rarpred::driver::SimJobRunner runner(rc);
    const std::vector<CellConfigMsg> configs = {variant(0, 0)};
    const auto programs = rarpred::driver::allWorkloadPtrs();
    constexpr int kCells = 4, kReps = 5;
    double proc_ms = 0, local_ms = 0;
    for (int rep = -1; rep < kReps; ++rep) { // rep -1 warms both routes
        for (int i = 0; i < kCells; ++i) {
            rarpred::driver::WorkerJobDesc job;
            job.token = (uint64_t)((rep + 1) * kCells + i);
            job.workload = programs[i]->abbrev;
            job.maxInsts = kMaxInsts;
            job.config = configs[0];
            const int64_t a = nowNs();
            const auto remote = pool.runJob(job);
            const int64_t b = nowNs();
            const auto local =
                rarpred::driver::runCellSweep(runner, {programs[i]}, configs);
            const int64_t c = nowNs();
            if (!remote.ok())
                fatal("probe runJob", remote.status());
            if (!local.status.ok())
                fatal("probe in-process cell", local.status);
            if (statsDigest(*remote) != statsDigest(local[0]))
                fatal("probe cell", rarpred::Status::internal(
                                        "worker and in-process stats "
                                        "differ"));
            if (rep >= 0) {
                proc_ms += (double)(b - a) / 1e6;
                local_ms += (double)(c - b) / 1e6;
                spans->add({"driver.proc_cell", a, b, -1, i, -1});
                spans->add({"driver.local_cell", b, c, -1, i, -1});
            }
        }
    }
    pool.stop();
    t->metrics["driver.proc_cell_ms"] =
        (proc_ms - local_ms) / (kCells * kReps);
    t->ledgerMs["driver.proc_probe"] = proc_ms;
    t->ledgerMs["driver.local_probe"] = local_ms;
}

/** Every cell any seed can request: both connections' variants. */
std::map<std::string, std::string>
serviceDigests(const Options &opt)
{
    constexpr int kVariants = 2 * kVariantPairs;
    std::vector<CellConfigMsg> configs;
    for (int c = 0; c < kConnections; ++c)
        for (int v = 0; v < kVariants; ++v)
            configs.push_back(variant(c, v));
    rarpred::driver::RunnerConfig rc;
    rc.workers = opt.workers;
    rc.maxInsts = kMaxInsts;
    rarpred::driver::SimJobRunner runner(rc);
    const auto programs = rarpred::driver::allWorkloadPtrs();
    const auto grid = rarpred::driver::runCellSweep(runner, programs, configs);
    if (!grid.status.ok())
        fatal("digest sweep", grid.status);
    std::map<std::string, std::string> cells;
    for (size_t id = 0; id < grid.size(); ++id) {
        const int ci = (int)(id % configs.size());
        cells[cellKey(programs[id / configs.size()]->abbrev, ci / kVariants,
                      ci % kVariants)] = statsDigest(grid[id]);
    }
    return cells;
}

} // namespace

const WorkloadDriver kServiceMixed = {"service_mixed", serviceRound,
                                      serviceProbes, serviceDigests};

} // namespace perfbench
