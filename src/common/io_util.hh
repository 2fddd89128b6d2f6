/**
 * @file
 * EINTR-safe file-descriptor I/O helpers shared by everything that
 * talks over a socket or pipe: the service daemon, its client, and
 * the process-isolated worker pool.
 *
 * These exist because every ad-hoc read/write loop in the tree had
 * to re-derive the same three rules:
 *  - EINTR is not an error: a signal (SIGCHLD from the worker pool,
 *    SIGTERM during a drain) interrupts a blocking call and the call
 *    must simply be retried.
 *  - A short write is not an error: write()/send() may transfer less
 *    than asked and the remainder must be resubmitted.
 *  - On a socket, send() with MSG_NOSIGNAL (plus, in the daemon, the
 *    process-wide SIGPIPE ignore) turns a disconnected peer into a
 *    recoverable Status instead of a process kill.
 *
 * tests/test_io_util.cc drives these with mid-transfer signals (a
 * no-SA_RESTART handler forcing real EINTRs) and pipe-capacity-sized
 * transfers forcing real short writes.
 */

#ifndef RARPRED_COMMON_IO_UTIL_HH_
#define RARPRED_COMMON_IO_UTIL_HH_

#include <cstddef>

#include "common/status.hh"

struct sockaddr; // <sys/socket.h>, not dragged into every includer

namespace rarpred {

/**
 * Read exactly @p len bytes into @p buf, retrying EINTR and short
 * reads. @return the byte count actually read: == len normally,
 * < len iff the peer closed the stream first (EOF is the caller's
 * to interpret — mid-frame it is Corruption, between frames a clean
 * shutdown). IoError on any other failure.
 */
Result<size_t> readFull(int fd, void *buf, size_t len);

/**
 * Write all @p len bytes with write(), retrying EINTR and short
 * writes. For sockets prefer sendFull(): a vanished peer makes plain
 * write() raise SIGPIPE unless the process ignores it.
 */
Status writeFull(int fd, const void *buf, size_t len);

/**
 * Write all @p len bytes with send(MSG_NOSIGNAL), retrying EINTR and
 * short writes. A disconnected peer surfaces as IoError (EPIPE), not
 * a signal. Sockets only.
 */
Status sendFull(int fd, const void *buf, size_t len);

/**
 * One read() of up to @p len bytes, retrying only EINTR. @return the
 * byte count (0 = EOF). For read-some loops that feed an incremental
 * decoder and cannot know a frame's size up front.
 */
Result<size_t> readChunk(int fd, void *buf, size_t len);

/** One recv() of up to @p len bytes, retrying only EINTR. */
Result<size_t> recvChunk(int fd, void *buf, size_t len);

// ------------------------------------- sockets with deadlines
//
// The service client must never block indefinitely on a daemon that
// stopped answering: every connect and read is bounded by an explicit
// deadline, after which the caller surfaces Unavailable or
// DeadlineExceeded. Both helpers retry EINTR; deadlines are absolute
// so a signal storm cannot extend them.

/**
 * Connect @p fd to @p addr within @p timeout_ms (0 = block forever).
 * The socket is flipped to non-blocking for the connect and restored
 * after. A refused/unreachable peer and an expired deadline both
 * surface as Unavailable (the caller treats the peer as down either
 * way); other failures are IoError.
 */
Status connectDeadline(int fd, const struct sockaddr *addr,
                       unsigned addr_len, uint64_t timeout_ms);

/**
 * Wait for @p fd to become readable within @p timeout_ms.
 * @return true if readable (or peer-closed), false on deadline.
 */
Result<bool> pollReadable(int fd, uint64_t timeout_ms);

} // namespace rarpred

#endif // RARPRED_COMMON_IO_UTIL_HH_
