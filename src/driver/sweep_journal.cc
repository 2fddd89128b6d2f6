#include "driver/sweep_journal.hh"

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/crc32.hh"
#include "common/io_util.hh"
#include "common/statesave.hh"
#include "faultinject/driver_faults.hh"

namespace rarpred::driver {

namespace {

constexpr uint32_t kJournalMagic = 0x4a524152; // "RARJ" little-endian
constexpr uint32_t kJournalVersion = 1;
constexpr size_t kHeaderBytes = 32;
constexpr size_t kRecordOverhead = 8 + 4 + 4; // job + len + crc

/** Serialize little-endian scalars into a byte buffer. */
void
putU32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = (uint8_t)(v >> (8 * i));
}

void
putU64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = (uint8_t)(v >> (8 * i));
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= (uint32_t)p[i] << (8 * i);
    return v;
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= (uint64_t)p[i] << (8 * i);
    return v;
}

void
encodeHeader(uint8_t (&h)[kHeaderBytes], uint64_t fingerprint,
             uint64_t num_jobs)
{
    std::memset(h, 0, sizeof(h));
    putU32(h + 0, kJournalMagic);
    putU32(h + 4, kJournalVersion);
    putU64(h + 8, fingerprint);
    putU64(h + 16, num_jobs);
    putU32(h + 24, 0); // reserved
    putU32(h + 28, crc32(h, 28));
}

} // namespace

SweepJournal::SweepJournal(const std::string &path, int fd)
    : path_(path), fd_(fd)
{
}

SweepJournal::~SweepJournal()
{
    ::close(fd_);
}

Result<std::unique_ptr<SweepJournal>>
SweepJournal::openAppend(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0)
        return Status::ioError("cannot open sweep journal for append: " +
                               path + ": " + std::strerror(errno));
    return std::unique_ptr<SweepJournal>(new SweepJournal(path, fd));
}

Result<std::unique_ptr<SweepJournal>>
SweepJournal::create(const std::string &path, uint64_t fingerprint,
                     uint64_t num_jobs)
{
    uint8_t header[kHeaderBytes];
    encodeHeader(header, fingerprint, num_jobs);
    // Durable write-then-rename: a plain trunc+write could be SIGKILLed
    // (or lose power) between creating the inode and flushing the
    // header, leaving a zero-length journal that a later --resume
    // rejects as corrupt. durableWriteFile fsyncs before the atomic
    // rename so the header is all-or-nothing.
    RARPRED_RETURN_IF_ERROR(
        durableWriteFile(path, header, sizeof(header)));
    return openAppend(path);
}

Result<SweepJournal::Replay>
SweepJournal::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::ioError("cannot open sweep journal: " + path);

    uint8_t header[kHeaderBytes];
    in.read((char *)header, sizeof(header));
    if ((size_t)in.gcount() != sizeof(header))
        return Status::corruption("journal shorter than its header: " +
                                  path);
    if (getU32(header + 0) != kJournalMagic)
        return Status::corruption("not a sweep journal (bad magic): " +
                                  path);
    if (getU32(header + 4) != kJournalVersion)
        return Status::corruption(
            "unsupported journal version " +
            std::to_string(getU32(header + 4)) + ": " + path);
    if (getU32(header + 28) != crc32(header, 28))
        return Status::corruption("journal header CRC mismatch: " + path);

    Replay replay;
    replay.fingerprint = getU64(header + 8);
    replay.numJobs = getU64(header + 16);
    replay.validBytes = kHeaderBytes;

    // Records until EOF. Any failure from here on — short read, CRC
    // mismatch, absurd length — is a torn tail: count it, stop, and
    // let the caller truncate. Bytes *after* a bad record can't be
    // re-synchronized (records are variable-length), so they are
    // dropped with it.
    while (true) {
        uint8_t fixed[12];
        in.read((char *)fixed, sizeof(fixed));
        const size_t got = (size_t)in.gcount();
        if (got == 0)
            break; // clean end
        if (got < sizeof(fixed)) {
            ++replay.tornRecords;
            break;
        }
        const uint64_t job = getU64(fixed + 0);
        const uint32_t len = getU32(fixed + 8);
        // A length beyond any sane payload means the length field
        // itself is damaged; don't try to allocate it.
        if (len > (64u << 20)) {
            ++replay.tornRecords;
            break;
        }
        std::vector<uint8_t> payload(len);
        if (len > 0) {
            in.read((char *)payload.data(), len);
            if ((size_t)in.gcount() != len) {
                ++replay.tornRecords;
                break;
            }
        }
        uint8_t crc_buf[4];
        in.read((char *)crc_buf, sizeof(crc_buf));
        if ((size_t)in.gcount() != sizeof(crc_buf)) {
            ++replay.tornRecords;
            break;
        }
        uint32_t crc = crc32(fixed, sizeof(fixed));
        crc = crc32Update(crc, payload.data(), payload.size());
        if (getU32(crc_buf) != crc) {
            ++replay.tornRecords;
            break;
        }
        replay.records.push_back(Record{job, std::move(payload)});
        replay.validBytes += kRecordOverhead + len;
    }
    return replay;
}

Result<std::unique_ptr<SweepJournal>>
SweepJournal::openResume(const std::string &path, uint64_t fingerprint,
                         uint64_t num_jobs, Replay *out)
{
    Result<Replay> replay = load(path);
    if (!replay.ok())
        return replay.status();
    if (replay->fingerprint != fingerprint ||
        replay->numJobs != num_jobs) {
        return Status::failedPrecondition(
            "journal " + path + " belongs to a different sweep "
            "(fingerprint/jobs mismatch); refusing to resume from it");
    }

    // Truncate the torn tail before appending: a resumed run must
    // never build on bytes that failed their CRC.
    if (::truncate(path.c_str(), (off_t)replay->validBytes) != 0)
        return Status::ioError("cannot truncate torn journal tail: " +
                               path);

    auto journal = openAppend(path);
    if (journal.ok() && out != nullptr)
        *out = std::move(*replay);
    return journal;
}

Status
SweepJournal::append(uint64_t job, const void *payload, size_t len)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok())
        return status_;

    // One buffer, one write(): fixed part, payload, CRC.
    std::vector<uint8_t> rec(kRecordOverhead + len);
    uint8_t *fixed = rec.data();
    putU64(fixed + 0, job);
    putU32(fixed + 8, (uint32_t)len);
    if (len > 0)
        std::memcpy(fixed + 12, payload, len);
    putU32(fixed + 12 + len, crc32(fixed, 12 + len));

    if (driverFaultFires(DriverFaultPoint::JournalTornWrite, appended_)) {
        // Simulated power cut mid-write: half the fixed part reaches
        // the disk, then the journal goes dark.
        (void)writeFull(fd_, fixed, 12 / 2);
        status_ = Status::ioError(
            "injected torn write on journal record " +
            std::to_string(appended_));
        return status_;
    }

    const Status written = writeFull(fd_, rec.data(), rec.size());
    if (!written.ok()) {
        status_ = Status::ioError("journal append failed: " + path_ +
                                  ": " + written.message());
        return status_;
    }
    ++appended_;
    return Status{};
}

uint64_t
sweepFingerprint(const std::vector<std::string> &workloads,
                 uint64_t num_configs, uint64_t payload_bytes,
                 uint32_t scale, uint64_t max_insts)
{
    uint32_t crc = 0;
    for (const std::string &w : workloads) {
        crc = crc32Update(crc, w.data(), w.size());
        crc = crc32Update(crc, "\0", 1);
    }
    uint8_t tail[28];
    putU64(tail + 0, num_configs);
    putU64(tail + 8, payload_bytes);
    putU32(tail + 16, scale);
    putU64(tail + 20, max_insts);
    const uint32_t lo = crc32Update(crc, tail, sizeof(tail));
    // Second, differently-seeded pass widens the hash to 64 bits.
    const uint32_t hi = crc32Update(~lo, tail, sizeof(tail));
    return ((uint64_t)hi << 32) | lo;
}

} // namespace rarpred::driver
