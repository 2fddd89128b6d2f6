/**
 * @file
 * Little-endian field codec and a power-loss-durable file write.
 *
 * StateWriter/StateReader encode the fields of the service wire
 * frames (service/proto.cc) and the result-store entries
 * (service/result_store.cc). The byte format follows the repo's
 * binary-file conventions (trace v2, RARJ journal): little-endian
 * scalars and explicit lengths; integrity is the caller's CRC.
 *
 * StateReader returns Status instead of throwing: a truncated or
 * bit-flipped input must surface as Corruption, never as UB.
 */

#ifndef RARPRED_COMMON_STATESAVE_HH_
#define RARPRED_COMMON_STATESAVE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"

namespace rarpred {

/** Append-only buffer of little-endian fields. */
class StateWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back((uint8_t)(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back((uint8_t)(v >> (8 * i)));
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    const std::vector<uint8_t> &buffer() const { return buf_; }

  private:
    std::vector<uint8_t> buf_;
};

/** Validating cursor over a StateWriter-produced buffer. */
class StateReader
{
  public:
    StateReader(const uint8_t *data, size_t len)
        : data_(data), len_(len)
    {
    }

    explicit StateReader(const std::vector<uint8_t> &buf)
        : StateReader(buf.data(), buf.size())
    {
    }

    Status u8(uint8_t *out);
    Status u32(uint32_t *out);
    Status u64(uint64_t *out);
    Status boolean(bool *out);
    Status bytes(void *out, size_t len);

    bool atEnd() const { return pos_ >= len_; }

  private:
    Status need(size_t n) const;

    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
};

/**
 * Power-loss-durable file write: write @p len bytes to a temp file
 * next to @p path, fsync it, atomically rename it over @p path, and
 * fsync the containing directory. After this returns OK, a SIGKILL
 * (or power cut) can no longer produce a zero-length or half-written
 * file at @p path. Shared by the sweep journal's header write and the
 * result store's entries.
 *
 * With a non-null @p errno_out, the errno of the failing syscall is
 * stored there (0 on success) so callers can distinguish resource
 * exhaustion (ENOSPC/EDQUOT) from genuine I/O failure and degrade
 * instead of dying — the result store treats a full disk as a cache
 * miss, not an error.
 */
Status durableWriteFile(const std::string &path, const void *data,
                        size_t len, int *errno_out = nullptr);

} // namespace rarpred

#endif // RARPRED_COMMON_STATESAVE_HH_
