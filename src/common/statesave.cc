#include "common/statesave.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace rarpred {

namespace {

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= (uint32_t)p[i] << (8 * i);
    return v;
}

} // namespace

Status
StateReader::need(size_t n) const
{
    if (pos_ + n > len_)
        return Status::corruption("state stream truncated");
    return Status{};
}

Status
StateReader::u8(uint8_t *out)
{
    RARPRED_RETURN_IF_ERROR(need(1));
    *out = data_[pos_++];
    return Status{};
}

Status
StateReader::u32(uint32_t *out)
{
    RARPRED_RETURN_IF_ERROR(need(4));
    *out = getU32(data_ + pos_);
    pos_ += 4;
    return Status{};
}

Status
StateReader::u64(uint64_t *out)
{
    RARPRED_RETURN_IF_ERROR(need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= (uint64_t)data_[pos_ + i] << (8 * i);
    *out = v;
    pos_ += 8;
    return Status{};
}

Status
StateReader::boolean(bool *out)
{
    uint8_t v = 0;
    RARPRED_RETURN_IF_ERROR(u8(&v));
    if (v > 1)
        return Status::corruption("boolean field out of range");
    *out = v != 0;
    return Status{};
}

Status
StateReader::bytes(void *out, size_t len)
{
    RARPRED_RETURN_IF_ERROR(need(len));
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return Status{};
}

Status
durableWriteFile(const std::string &path, const void *data, size_t len,
                 int *errno_out)
{
    if (errno_out != nullptr)
        *errno_out = 0;
    const auto fail = [errno_out](int err) {
        if (errno_out != nullptr)
            *errno_out = err;
    };
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        fail(errno);
        return Status::ioError("cannot create " + tmp + ": " +
                               std::strerror(errno));
    }
    const auto *p = static_cast<const uint8_t *>(data);
    size_t off = 0;
    while (off < len) {
        ssize_t n = ::write(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            fail(err);
            return Status::ioError("short write to " + tmp + ": " +
                                   std::strerror(err));
        }
        off += (size_t)n;
    }
    // The fsync *before* the rename is the load-bearing part: rename
    // is atomic, but without it a crash can expose the new name with
    // zero-length (unflushed) contents.
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        fail(err);
        return Status::ioError("fsync " + tmp + ": " +
                               std::strerror(err));
    }
    if (::close(fd) != 0) {
        fail(errno);
        return Status::ioError("close " + tmp + ": " +
                               std::strerror(errno));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        fail(err);
        return Status::ioError("rename " + tmp + " -> " + path + ": " +
                               std::strerror(err));
    }
    // Make the rename itself durable. Failure here is not fatal: the
    // data is intact, only the directory entry may be replayed.
    std::string dir = ".";
    if (auto slash = path.find_last_of('/'); slash != std::string::npos)
        dir = path.substr(0, slash == 0 ? 1 : slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        (void)::fsync(dfd);
        ::close(dfd);
    }
    return Status{};
}

} // namespace rarpred
