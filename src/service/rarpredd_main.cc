/**
 * @file
 * rarpredd — the resident sweep service daemon.
 *
 * Serves sweep requests over a local Unix-domain socket until
 * SIGTERM/SIGINT, then drains gracefully: queued and running sweeps
 * finish and their replies complete, new work is shed with
 * Unavailable. Completed cells persist in a content-addressed result
 * store, so a restarted daemon answers replayed requests
 * byte-identically, largely from disk. See service/daemon.hh and
 * DESIGN.md §6d.
 */

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "driver/worker_pool.hh"
#include "faultinject/driver_faults.hh"
#include "service/daemon.hh"

namespace {

int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    (void)!::write(g_signal_pipe[1], &byte, 1);
}

const char *
usage()
{
    return
        "usage: rarpredd --socket=PATH --store=DIR [options]\n"
        "  --socket=PATH             Unix-domain socket to listen on\n"
        "  --store=DIR               persistent result store directory\n"
        "  --workers=N               worker threads per sweep\n"
        "  --max-queue=N             queued sweeps, all tenants (16)\n"
        "  --max-queue-per-tenant=N  queued sweeps per tenant (8)\n"
        "  --max-connections=N       concurrent client conns (64)\n"
        "  --retries=N               retry failed cells N times (2)\n"
        "  --retry-backoff-ms=N      base backoff before retries\n"
        "  --default-deadline-ms=N   deadline for requests without one\n"
        "  --breaker-open-after=N    failures that open a breaker (3)\n"
        "  --breaker-probe-every=N   half-open probe cadence (4)\n"
        "  --trace-budget=N          max resident traces in the cache\n"
        "  --trace-budget-bytes=N    max resident trace bytes (full\n"
        "                            footprint incl. trace headers)\n"
        "  --request-timeout-ms=N    torn-request read timeout (5000)\n"
        "  --isolate-jobs            simulate cells in sandboxed\n"
        "                            worker processes (crash "
        "containment)\n"
        "  --worker-heartbeat-ms=N   kill a silent worker process\n"
        "                            after N ms (10000)\n"
        "env RARPRED_FAULT arms driver fault points (conn_drop,\n"
        "request_torn, store_corrupt, store_enospc, daemon_kill,\n"
        "worker_crash, worker_hang, worker_flap, ...).\n";
}

bool
parseU64(const char *s, uint64_t *out)
{
    if (*s == '\0')
        return false;
    uint64_t v = 0;
    for (; *s != '\0'; ++s) {
        if (*s < '0' || *s > '9')
            return false;
        v = v * 10 + (uint64_t)(*s - '0');
    }
    *out = v;
    return true;
}

const char *
flagValue(const char *arg, const char *name)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    rarpred::service::DaemonConfig config;
    uint64_t retries = 2;

    struct
    {
        const char *name;
        uint64_t *slot;
    } numeric[] = {
        {"--retries", &retries},
        {"--retry-backoff-ms", &config.retryBackoffMs},
        {"--default-deadline-ms", &config.defaultDeadlineMs},
        {"--trace-budget-bytes", &config.traceBudgetBytes},
        {"--request-timeout-ms", &config.requestTimeoutMs},
        {"--worker-heartbeat-ms", &config.workerHeartbeatTimeoutMs},
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            std::fputs(usage(), stdout);
            return 0;
        }
        if (const char *v = flagValue(arg, "--socket")) {
            config.socketPath = v;
            continue;
        }
        if (const char *v = flagValue(arg, "--store")) {
            config.storeDir = v;
            continue;
        }
        if (std::strcmp(arg, "--isolate-jobs") == 0) {
            config.isolateJobs = true;
            continue;
        }
        uint64_t u = 0;
        const char *v;
        if ((v = flagValue(arg, "--workers")) && parseU64(v, &u)) {
            config.workers = (unsigned)u;
            continue;
        }
        if ((v = flagValue(arg, "--max-queue")) && parseU64(v, &u)) {
            config.maxQueue = (size_t)u;
            continue;
        }
        if ((v = flagValue(arg, "--max-queue-per-tenant")) &&
            parseU64(v, &u)) {
            config.maxQueuePerTenant = (size_t)u;
            continue;
        }
        if ((v = flagValue(arg, "--max-connections")) &&
            parseU64(v, &u)) {
            config.maxConnections = (size_t)u;
            continue;
        }
        if ((v = flagValue(arg, "--breaker-open-after")) &&
            parseU64(v, &u)) {
            config.breaker.openAfter = (unsigned)u;
            continue;
        }
        if ((v = flagValue(arg, "--breaker-probe-every")) &&
            parseU64(v, &u)) {
            config.breaker.probeEvery = (unsigned)u;
            continue;
        }
        if ((v = flagValue(arg, "--trace-budget")) &&
            parseU64(v, &u)) {
            config.traceBudgetTraces = (uint32_t)u;
            continue;
        }
        bool matched = false;
        for (auto &f : numeric) {
            if ((v = flagValue(arg, f.name)) && parseU64(v, f.slot)) {
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        std::cerr << "rarpredd: bad argument '" << arg << "'\n"
                  << usage();
        return 2;
    }
    if (config.socketPath.empty() || config.storeDir.empty()) {
        std::cerr << "rarpredd: --socket and --store are required\n"
                  << usage();
        return 2;
    }
    config.maxAttempts = (unsigned)retries + 1;

    const rarpred::Status armed = rarpred::armDriverFaultsFromEnv();
    if (!armed.ok()) {
        std::cerr << "rarpredd: " << armed.toString() << "\n";
        return 2;
    }

    if (::pipe2(g_signal_pipe, O_CLOEXEC) != 0) {
        std::cerr << "rarpredd: pipe: " << std::strerror(errno)
                  << "\n";
        return 1;
    }
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    rarpred::service::SweepDaemon daemon(config);
    const rarpred::Status status = daemon.serve();
    if (!status.ok()) {
        std::cerr << "rarpredd: " << status.toString() << "\n";
        return 1;
    }
    std::cerr << "rarpredd: serving on " << config.socketPath
              << " (store " << config.storeDir << ")\n";

    // Park until a signal asks for the drain.
    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::cerr << "rarpredd: draining\n";
    daemon.stop();

    std::ostringstream stats;
    daemon.counters().dump(stats);
    if (rarpred::driver::WorkerPool *pool = daemon.workerPool())
        pool->dumpStats(stats);
    std::cerr << stats.str() << "rarpredd: bye\n";
    return 0;
}
