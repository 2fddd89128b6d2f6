#include "common/io_util.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace rarpred {

Result<size_t>
readFull(int fd, void *buf, size_t len)
{
    auto *p = static_cast<uint8_t *>(buf);
    size_t got = 0;
    while (got < len) {
        const ssize_t n = ::read(fd, p + got, len - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("read: ") +
                                   std::strerror(errno));
        }
        if (n == 0)
            return got; // EOF before len: the caller decides
        got += (size_t)n;
    }
    return got;
}

Status
writeFull(int fd, const void *buf, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(buf);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("write: ") +
                                   std::strerror(errno));
        }
        p += n;
        len -= (size_t)n;
    }
    return Status{};
}

Status
sendFull(int fd, const void *buf, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(buf);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("send: ") +
                                   std::strerror(errno));
        }
        p += n;
        len -= (size_t)n;
    }
    return Status{};
}

Result<size_t>
readChunk(int fd, void *buf, size_t len)
{
    for (;;) {
        const ssize_t n = ::read(fd, buf, len);
        if (n >= 0)
            return (size_t)n;
        if (errno == EINTR)
            continue;
        return Status::ioError(std::string("read: ") +
                               std::strerror(errno));
    }
}

Result<size_t>
recvChunk(int fd, void *buf, size_t len)
{
    for (;;) {
        const ssize_t n = ::recv(fd, buf, len, 0);
        if (n >= 0)
            return (size_t)n;
        if (errno == EINTR)
            continue;
        return Status::ioError(std::string("recv: ") +
                               std::strerror(errno));
    }
}

// ------------------------------------- sockets with deadlines

namespace {

uint64_t
monoMs()
{
    return (uint64_t)std::chrono::duration_cast<
               std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** poll() @p fd for @p events until an absolute deadline; EINTR
 *  re-polls with the *remaining* budget so signals cannot extend it.
 *  @return >0 ready, 0 deadline, <0 (never: errors become Status). */
Result<int>
pollDeadline(int fd, short events, uint64_t deadline_ms,
             bool forever)
{
    for (;;) {
        int wait = -1;
        if (!forever) {
            const uint64_t now = monoMs();
            if (now >= deadline_ms)
                return 0;
            wait = (int)(deadline_ms - now);
        }
        struct pollfd pfd = {fd, events, 0};
        const int rc = ::poll(&pfd, 1, wait);
        if (rc > 0)
            return rc;
        if (rc == 0)
            return 0;
        if (errno == EINTR)
            continue;
        return Status::ioError(std::string("poll: ") +
                               std::strerror(errno));
    }
}

} // namespace

Status
connectDeadline(int fd, const struct sockaddr *addr,
                unsigned addr_len, uint64_t timeout_ms)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return Status::ioError(std::string("fcntl: ") +
                               std::strerror(errno));
    if (timeout_ms > 0 &&
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
        return Status::ioError(std::string("fcntl: ") +
                               std::strerror(errno));
    // Restore blocking mode on every exit path.
    const auto restore = [&]() {
        if (timeout_ms > 0)
            (void)::fcntl(fd, F_SETFL, flags);
    };

    int rc;
    do {
        rc = ::connect(fd, addr, (socklen_t)addr_len);
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
        restore();
        return Status{};
    }
    if (errno != EINPROGRESS) {
        const int err = errno;
        restore();
        return Status::unavailable(std::string("connect: ") +
                                   std::strerror(err));
    }
    auto ready = pollDeadline(fd, POLLOUT, monoMs() + timeout_ms,
                              /*forever=*/false);
    if (!ready.ok()) {
        restore();
        return ready.status();
    }
    if (*ready == 0) {
        restore();
        return Status::unavailable("connect timed out after " +
                                   std::to_string(timeout_ms) + " ms");
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) !=
        0) {
        const int err = errno;
        restore();
        return Status::ioError(std::string("getsockopt: ") +
                               std::strerror(err));
    }
    restore();
    if (soerr != 0)
        return Status::unavailable(std::string("connect: ") +
                                   std::strerror(soerr));
    return Status{};
}

Result<bool>
pollReadable(int fd, uint64_t timeout_ms)
{
    auto ready = pollDeadline(fd, POLLIN, monoMs() + timeout_ms,
                              /*forever=*/timeout_ms == 0);
    RARPRED_RETURN_IF_ERROR(ready.status());
    return *ready > 0;
}

} // namespace rarpred
