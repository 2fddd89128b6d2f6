/**
 * @file
 * Deterministic fault points in the sweep driver itself.
 *
 * The predictor-state FaultInjector (fault_injector.hh) attacks the
 * *simulated* machine; these fault points attack the *harness* — the
 * thread pool, the checkpoint journal and the trace cache — so the
 * whole recovery path (retry, quarantine, resume, regenerate) is
 * exercised by tests instead of waiting for a real crash at 3 a.m.
 *
 * A fault point is armed for a specific target index (a job index for
 * the job faults, an append index for the journal fault) and fires a
 * bounded number of times; firing is consumed atomically so a
 * retried job observes exactly the configured number of failures.
 * When nothing is armed the checks are a single relaxed atomic load.
 *
 * Points:
 *  - JobCrash        : the worker throws before running the job body.
 *  - JobHang         : the worker wedges until the job deadline.
 *  - JobKill         : the worker SIGKILLs the whole process — for
 *                      end-to-end crash/resume tests of real benches.
 *  - JournalTornWrite: SweepJournal::append() writes half a record
 *                      and latches an I/O error (simulated power cut).
 *  - CachePressure   : TraceCache behaves as if its memory budget
 *                      were one trace, evicting on every admit.
 *  - ConnDrop        : the service daemon closes a client connection
 *                      mid-reply-stream (simulated network fault);
 *                      the daemon must keep serving other tenants.
 *  - RequestTorn     : the daemon observes a truncated request frame,
 *                      as if the client died mid-send; the protocol
 *                      decoder must reject it as a recoverable error.
 *  - StoreCorrupt    : the result store flips one payload byte as it
 *                      persists a cell; a later read must reject the
 *                      entry by CRC and transparently re-simulate.
 *  - DaemonKill      : SIGKILL the daemon immediately after the Nth
 *                      result-store write is durable — for zero-loss
 *                      restart/replay byte-identity tests.
 *  - WorkerCrash     : a pool worker process raises SIGKILL mid-job;
 *                      the supervisor must contain it (restart the
 *                      worker, retry the cell, identical stats).
 *  - WorkerHang      : a pool worker wedges without heartbeats; the
 *                      supervisor must kill it at the heartbeat
 *                      deadline and retry.
 *  - WorkerFlap      : a pool worker exits immediately on spawn,
 *                      before its hello; repeated flapping must trip
 *                      the flap detector and degrade the pool to
 *                      in-process execution.
 *  - WorkerResultTorn: a worker flips one byte of its encoded result
 *                      frame; the supervisor must reject it by CRC
 *                      and retry, never merge torn stats.
 *  - WorkerResultDup : a worker sends its JobResult frame twice; the
 *                      stale duplicate arrives ahead of the next
 *                      job's result on the same slot and must be
 *                      dropped, never matched to the wrong cell.
 *  - StoreEnospc     : the result store's durable write fails as if
 *                      the disk were full; the write must degrade to
 *                      a non-fatal Unavailable (skip caching, still
 *                      serve the computed result).
 *
 * The worker points are armed in — and consumed by — the *supervisor*
 * process: the fault order travels to the worker in the JobRequest
 * (or its argv, for WorkerFlap), so a fire budget of one means one
 * failure even though the retry may land on a different worker.
 *
 * Arming is process-global (the driver is, too). Tests arm
 * programmatically; CLI runs arm via the RARPRED_FAULT environment
 * variable, e.g. RARPRED_FAULT="job_kill:40" or
 * "job_crash:3x2,journal_torn:10".
 */

#ifndef RARPRED_FAULTINJECT_DRIVER_FAULTS_HH_
#define RARPRED_FAULTINJECT_DRIVER_FAULTS_HH_

#include <cstdint>
#include <string>

#include "common/status.hh"

namespace rarpred {

/** Places in the driver where an injected fault can fire. */
enum class DriverFaultPoint : uint8_t
{
    JobCrash,
    JobHang,
    JobKill,
    JournalTornWrite,
    CachePressure,
    ConnDrop,
    RequestTorn,
    StoreCorrupt,
    DaemonKill,
    WorkerCrash,
    WorkerHang,
    WorkerFlap,
    WorkerResultTorn,
    WorkerResultDup,
    StoreEnospc, ///< keep last: sizes the arming table
};

/** @return stable spec name for @p point ("job_crash", ...). */
const char *driverFaultPointName(DriverFaultPoint point);

/**
 * Arm @p point for @p target_index, firing at most @p times before
 * going inert. kDriverFaultAnyIndex matches every index. Re-arming
 * the same point replaces the previous arming.
 */
void armDriverFault(DriverFaultPoint point, uint64_t target_index,
                    uint64_t times = 1);

/** Index wildcard for armDriverFault(). */
constexpr uint64_t kDriverFaultAnyIndex = ~0ull;

/** Disarm every driver fault point (tests call this in teardown). */
void disarmDriverFaults();

/**
 * Check-and-consume: @return true iff @p point is armed for
 * @p index and still has firings left. Each true return consumes one
 * firing. Near-free when nothing is armed.
 */
bool driverFaultFires(DriverFaultPoint point, uint64_t index);

/** @return firings consumed so far at @p point (for test asserts). */
uint64_t driverFaultFireCount(DriverFaultPoint point);

/**
 * Arm fault points from a spec string:
 *   spec     := point ":" index [ "x" times ] { "," spec }
 *   point    := job_crash | job_hang | job_kill | journal_torn |
 *               cache_pressure | conn_drop | request_torn |
 *               store_corrupt | daemon_kill | worker_crash |
 *               worker_hang | worker_flap | worker_result_torn |
 *               worker_result_dup | store_enospc
 *   index    := decimal target index, or "*" for any
 *   times    := decimal fire budget (default 1)
 * e.g. "job_kill:40", "job_crash:3x2,cache_pressure:*".
 */
Status armDriverFaultsFromSpec(const std::string &spec);

/**
 * Arm from the RARPRED_FAULT environment variable when set; no-op
 * (OK) when unset. Called by the benches' shared arg parser so any
 * sweep binary can be crashed on demand.
 */
Status armDriverFaultsFromEnv();

} // namespace rarpred

#endif // RARPRED_FAULTINJECT_DRIVER_FAULTS_HH_
