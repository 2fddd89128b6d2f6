/**
 * @file
 * Crash-safe checkpoint journal for grid sweeps.
 *
 * A sweep over (workload × config) cells can run for hours; a crash
 * or SIGKILL mid-run must not lose the cells already computed. The
 * journal is an append-only file that records one entry per
 * *completed* job; an interrupted sweep restarted with --resume
 * replays the journal and re-runs only the missing jobs, producing a
 * merged result byte-identical to an uninterrupted run.
 *
 * Format (all little-endian, following the trace-v2 framing
 * conventions — magic + version + CRC-guarded header, CRC-guarded
 * records, see src/vm/trace_file.*):
 *
 *   header (32 bytes):
 *     u32 magic "RARJ"   u32 version (1)
 *     u64 fingerprint    — hash of the sweep grid (workloads, config
 *                          count, payload size, scale, maxInsts); a
 *                          journal never resumes a *different* sweep
 *     u64 numJobs
 *     u32 reserved (0)   u32 crc32 of the preceding 28 bytes
 *
 *   record (variable):
 *     u64 jobIndex       u32 payloadLen
 *     payloadLen bytes of payload (the job's result, trivially
 *                        copyable, written verbatim)
 *     u32 crc32 over jobIndex + payloadLen + payload
 *
 * Durability: every append reaches the kernel in one write() before
 * append() returns, so after a SIGKILL the file holds every completed
 * job plus at most one torn tail record. load() validates record CRCs
 * and *truncates* a torn or corrupt tail instead of trusting it; the
 * jobs it covered simply re-run.
 *
 * The append fd is opened O_CLOEXEC, so worker processes spawned
 * during a --workers-proc sweep never inherit it.
 *
 * Thread safety: append() may be called concurrently from worker
 * threads (serialized internally). load()/openResume() must not race
 * with appends to the same file.
 */

#ifndef RARPRED_DRIVER_SWEEP_JOURNAL_HH_
#define RARPRED_DRIVER_SWEEP_JOURNAL_HH_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"

namespace rarpred::driver {

/** Append-side handle on a sweep journal. */
class SweepJournal
{
  public:
    /** One replayed record. */
    struct Record
    {
        uint64_t job = 0;
        std::vector<uint8_t> payload;
    };

    /** What load() recovered from an existing journal file. */
    struct Replay
    {
        uint64_t fingerprint = 0;
        uint64_t numJobs = 0;
        std::vector<Record> records; ///< valid records, file order
        uint64_t validBytes = 0;     ///< offset of the first bad byte
        uint64_t tornRecords = 0;    ///< trailing records dropped
    };

    /**
     * Create a fresh journal at @p path (truncating any previous
     * file) for a sweep identified by @p fingerprint over
     * @p num_jobs jobs.
     */
    static Result<std::unique_ptr<SweepJournal>>
    create(const std::string &path, uint64_t fingerprint,
           uint64_t num_jobs);

    /**
     * Read and validate an existing journal. A torn or corrupt tail
     * is reported via Replay::tornRecords and excluded from records;
     * corruption *before* the tail (a record that fails its CRC with
     * valid records after it) is Corruption — a journal is append-
     * only, so mid-file damage means the file cannot be trusted.
     */
    static Result<Replay> load(const std::string &path);

    /**
     * Resume appending to an existing journal: load() it, verify
     * @p fingerprint and @p num_jobs match, truncate the torn tail,
     * and open for append. @p out receives the replay.
     */
    static Result<std::unique_ptr<SweepJournal>>
    openResume(const std::string &path, uint64_t fingerprint,
               uint64_t num_jobs, Replay *out);

    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Append one completed job's payload. Errors latch:
     * the first failure is returned (and kept in status()); further
     * appends become no-ops. A latched journal error never aborts
     * the sweep — the caller just loses resumability.
     */
    Status append(uint64_t job, const void *payload, size_t len);

    /** First append error observed (OK while healthy). */
    const Status &status() const { return status_; }

    uint64_t recordsAppended() const { return appended_; }

    const std::string &path() const { return path_; }

  private:
    SweepJournal(const std::string &path, int fd);

    /** Open @p path for appending (O_APPEND | O_CLOEXEC). */
    static Result<std::unique_ptr<SweepJournal>>
    openAppend(const std::string &path);

    std::string path_;
    int fd_;
    std::mutex mu_;
    uint64_t appended_ = 0;
    Status status_;
};

/**
 * Grid fingerprint: a stable 64-bit hash of what a sweep *is*. Two
 * sweeps with the same workload list, config count, per-cell payload
 * size and trace parameters may share a journal; anything else is a
 * different sweep and must not resume from it.
 */
uint64_t sweepFingerprint(const std::vector<std::string> &workloads,
                          uint64_t num_configs, uint64_t payload_bytes,
                          uint32_t scale, uint64_t max_insts);

} // namespace rarpred::driver

#endif // RARPRED_DRIVER_SWEEP_JOURNAL_HH_
