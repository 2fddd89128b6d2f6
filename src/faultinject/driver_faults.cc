#include "faultinject/driver_faults.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace rarpred {

namespace {

constexpr size_t kNumPoints = (size_t)DriverFaultPoint::StoreEnospc + 1;

struct Arming
{
    bool armed = false;
    uint64_t targetIndex = 0;
    uint64_t remaining = 0;
    uint64_t fired = 0;
};

std::mutex g_mu;
Arming g_points[kNumPoints];
// Fast path: skip the lock entirely while nothing is armed.
std::atomic<int> g_armedCount{0};

} // namespace

const char *
driverFaultPointName(DriverFaultPoint point)
{
    switch (point) {
      case DriverFaultPoint::JobCrash:
        return "job_crash";
      case DriverFaultPoint::JobHang:
        return "job_hang";
      case DriverFaultPoint::JobKill:
        return "job_kill";
      case DriverFaultPoint::JournalTornWrite:
        return "journal_torn";
      case DriverFaultPoint::CachePressure:
        return "cache_pressure";
      case DriverFaultPoint::ConnDrop:
        return "conn_drop";
      case DriverFaultPoint::RequestTorn:
        return "request_torn";
      case DriverFaultPoint::StoreCorrupt:
        return "store_corrupt";
      case DriverFaultPoint::DaemonKill:
        return "daemon_kill";
      case DriverFaultPoint::WorkerCrash:
        return "worker_crash";
      case DriverFaultPoint::WorkerHang:
        return "worker_hang";
      case DriverFaultPoint::WorkerFlap:
        return "worker_flap";
      case DriverFaultPoint::WorkerResultTorn:
        return "worker_result_torn";
      case DriverFaultPoint::WorkerResultDup:
        return "worker_result_dup";
      case DriverFaultPoint::StoreEnospc:
        return "store_enospc";
    }
    return "unknown";
}

void
armDriverFault(DriverFaultPoint point, uint64_t target_index,
               uint64_t times)
{
    std::lock_guard<std::mutex> lock(g_mu);
    Arming &a = g_points[(size_t)point];
    if (!a.armed && times > 0)
        g_armedCount.fetch_add(1, std::memory_order_relaxed);
    if (a.armed && times == 0)
        g_armedCount.fetch_sub(1, std::memory_order_relaxed);
    a.armed = times > 0;
    a.targetIndex = target_index;
    a.remaining = times;
    a.fired = 0;
}

void
disarmDriverFaults()
{
    std::lock_guard<std::mutex> lock(g_mu);
    for (Arming &a : g_points)
        a = Arming{};
    g_armedCount.store(0, std::memory_order_relaxed);
}

bool
driverFaultFires(DriverFaultPoint point, uint64_t index)
{
    if (g_armedCount.load(std::memory_order_relaxed) == 0)
        return false;
    std::lock_guard<std::mutex> lock(g_mu);
    Arming &a = g_points[(size_t)point];
    if (!a.armed || a.remaining == 0)
        return false;
    if (a.targetIndex != kDriverFaultAnyIndex && a.targetIndex != index)
        return false;
    --a.remaining;
    ++a.fired;
    if (a.remaining == 0) {
        a.armed = false;
        g_armedCount.fetch_sub(1, std::memory_order_relaxed);
    }
    return true;
}

uint64_t
driverFaultFireCount(DriverFaultPoint point)
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_points[(size_t)point].fired;
}

namespace {

/** Parse a decimal uint64 from [s, s+len); false on junk/empty. */
bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + (uint64_t)(c - '0');
    }
    out = v;
    return true;
}

Status
armOneSpec(const std::string &item)
{
    const size_t colon = item.find(':');
    if (colon == std::string::npos)
        return Status::invalidArgument("fault spec missing ':': " + item);
    const std::string name = item.substr(0, colon);
    std::string rest = item.substr(colon + 1);

    DriverFaultPoint point;
    if (name == "job_crash")
        point = DriverFaultPoint::JobCrash;
    else if (name == "job_hang")
        point = DriverFaultPoint::JobHang;
    else if (name == "job_kill")
        point = DriverFaultPoint::JobKill;
    else if (name == "journal_torn")
        point = DriverFaultPoint::JournalTornWrite;
    else if (name == "cache_pressure")
        point = DriverFaultPoint::CachePressure;
    else if (name == "conn_drop")
        point = DriverFaultPoint::ConnDrop;
    else if (name == "request_torn")
        point = DriverFaultPoint::RequestTorn;
    else if (name == "store_corrupt")
        point = DriverFaultPoint::StoreCorrupt;
    else if (name == "daemon_kill")
        point = DriverFaultPoint::DaemonKill;
    else if (name == "worker_crash")
        point = DriverFaultPoint::WorkerCrash;
    else if (name == "worker_hang")
        point = DriverFaultPoint::WorkerHang;
    else if (name == "worker_flap")
        point = DriverFaultPoint::WorkerFlap;
    else if (name == "worker_result_torn")
        point = DriverFaultPoint::WorkerResultTorn;
    else if (name == "worker_result_dup")
        point = DriverFaultPoint::WorkerResultDup;
    else if (name == "store_enospc")
        point = DriverFaultPoint::StoreEnospc;
    else
        return Status::invalidArgument("unknown fault point: " + name);

    uint64_t times = 1;
    const size_t x = rest.find('x');
    if (x != std::string::npos) {
        if (!parseU64(rest.substr(x + 1), times))
            return Status::invalidArgument("bad fault fire count: " + item);
        rest = rest.substr(0, x);
    }
    uint64_t index;
    if (rest == "*")
        index = kDriverFaultAnyIndex;
    else if (!parseU64(rest, index))
        return Status::invalidArgument("bad fault target index: " + item);

    armDriverFault(point, index, times);
    return Status{};
}

} // namespace

Status
armDriverFaultsFromSpec(const std::string &spec)
{
    size_t start = 0;
    while (start <= spec.size()) {
        const size_t comma = spec.find(',', start);
        const size_t end = comma == std::string::npos ? spec.size() : comma;
        if (end > start)
            RARPRED_RETURN_IF_ERROR(
                armOneSpec(spec.substr(start, end - start)));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return Status{};
}

Status
armDriverFaultsFromEnv()
{
    const char *spec = std::getenv("RARPRED_FAULT");
    if (spec == nullptr || spec[0] == '\0')
        return Status{};
    return armDriverFaultsFromSpec(spec);
}

} // namespace rarpred
