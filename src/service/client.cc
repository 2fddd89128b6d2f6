#include "service/client.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/io_util.hh"
#include "driver/stats_merger.hh"

namespace rarpred::service {

namespace {

using Clock = std::chrono::steady_clock;

/** RAII connection to the daemon's socket. */
class Connection
{
  public:
    /**
     * Connect within @p timeout_ms and remember the absolute
     * deadline: every subsequent recvFrame() draws from the same
     * budget, so connect + request + reply together observe one
     * end-to-end timeout. 0 = no deadline.
     */
    static Result<Connection>
    open(const std::string &path, uint64_t timeout_ms)
    {
        if (path.size() >= sizeof(sockaddr_un{}.sun_path))
            return Status::invalidArgument("socket path too long");
        const Clock::time_point deadline =
            timeout_ms == 0
                ? Clock::time_point{}
                : Clock::now() + std::chrono::milliseconds(timeout_ms);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return Status::ioError(std::string("socket: ") +
                                   std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        const Status connected = rarpred::connectDeadline(
            fd, (const sockaddr *)&addr, sizeof(addr), timeout_ms);
        if (!connected.ok()) {
            ::close(fd);
            return Status(connected.code(),
                          "connect '" + path +
                              "': " + connected.message());
        }
        return Connection(fd, deadline);
    }

    Connection(Connection &&other) noexcept
        : fd_(other.fd_), deadline_(other.deadline_)
    {
        other.fd_ = -1;
    }
    Connection &operator=(Connection &&) = delete;
    Connection(const Connection &) = delete;

    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Status
    sendFrame(FrameType type, const std::vector<uint8_t> &payload)
    {
        // Backstop for encodeFrame's bound: a request too big to
        // frame is the caller's bug, reported as a Status — the
        // client must never abort on it.
        if (payload.size() > kMaxFramePayload)
            return Status::invalidArgument(
                "request payload of " +
                std::to_string(payload.size()) +
                " bytes exceeds the frame bound");
        const std::vector<uint8_t> bytes = encodeFrame(type, payload);
        // sendFull is MSG_NOSIGNAL + EINTR-safe: a daemon that died
        // between accept and read surfaces as a Status, not SIGPIPE.
        return rarpred::sendFull(fd_, bytes.data(), bytes.size());
    }

    /**
     * Block until the next verified frame (or stream end/error),
     * never past the connection's end-to-end deadline.
     */
    Result<Frame>
    recvFrame()
    {
        Frame frame;
        bool have = false;
        for (;;) {
            RARPRED_RETURN_IF_ERROR(decoder_.next(&frame, &have));
            if (have)
                return frame;
            if (deadline_ != Clock::time_point{}) {
                const auto left =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(deadline_ -
                                                   Clock::now())
                        .count();
                if (left <= 0)
                    return Status::deadlineExceeded(
                        "reply deadline expired");
                auto readable =
                    rarpred::pollReadable(fd_, (uint64_t)left);
                RARPRED_RETURN_IF_ERROR(readable.status());
                if (!*readable)
                    return Status::deadlineExceeded(
                        "reply deadline expired");
            }
            uint8_t buf[4096];
            auto n = rarpred::recvChunk(fd_, buf, sizeof(buf));
            RARPRED_RETURN_IF_ERROR(n.status());
            if (*n == 0)
                return Status::unavailable(
                    "connection closed mid-reply");
            RARPRED_RETURN_IF_ERROR(decoder_.feed(buf, *n));
        }
    }

  private:
    Connection(int fd, Clock::time_point deadline)
        : fd_(fd), deadline_(deadline)
    {
    }

    int fd_;
    Clock::time_point deadline_; ///< epoch value = no deadline
    FrameDecoder decoder_;
};

/** Map a reply frame that should not terminate the stream. */
Status
unexpectedFrame(const Frame &frame)
{
    if (frame.type == FrameType::ErrorReply) {
        auto err = ErrorReplyMsg::decode(frame.payload);
        if (!err.ok())
            return err.status();
        return err->error();
    }
    return Status::corruption(std::string("unexpected reply frame '") +
                              frameTypeName(frame.type) + "'");
}

} // namespace

Result<StatusReplyMsg>
ServiceClient::status() const
{
    auto conn = Connection::open(socketPath_, timeoutMs_);
    RARPRED_RETURN_IF_ERROR(conn.status());
    RARPRED_RETURN_IF_ERROR(
        conn->sendFrame(FrameType::StatusRequest, {}));
    auto frame = conn->recvFrame();
    RARPRED_RETURN_IF_ERROR(frame.status());
    if (frame->type != FrameType::StatusReply)
        return unexpectedFrame(*frame);
    return StatusReplyMsg::decode(frame->payload);
}

Result<SweepReply>
ServiceClient::sweep(const SweepRequestMsg &request) const
{
    RARPRED_RETURN_IF_ERROR(request.validate());
    auto conn = Connection::open(socketPath_, timeoutMs_);
    RARPRED_RETURN_IF_ERROR(conn.status());
    RARPRED_RETURN_IF_ERROR(
        conn->sendFrame(FrameType::SweepRequest, request.encode()));

    SweepReply reply;
    const size_t n = request.numCells();
    for (;;) {
        auto frame = conn->recvFrame();
        RARPRED_RETURN_IF_ERROR(frame.status());
        if (frame->type == FrameType::Row) {
            auto row = RowMsg::decode(frame->payload);
            RARPRED_RETURN_IF_ERROR(row.status());
            if (row->cell != reply.rows.size() || row->cell >= n)
                return Status::corruption(
                    "reply rows out of order");
            reply.rows.push_back(std::move(*row));
            continue;
        }
        if (frame->type == FrameType::SweepDone) {
            auto done = SweepDoneMsg::decode(frame->payload);
            RARPRED_RETURN_IF_ERROR(done.status());
            reply.done = std::move(*done);
            if (reply.rows.size() != n ||
                reply.done.cells != n)
                return Status::corruption(
                    "reply ended with " +
                    std::to_string(reply.rows.size()) + " of " +
                    std::to_string(n) + " rows");
            return reply;
        }
        return unexpectedFrame(*frame);
    }
}

std::string
ServiceClient::replyTable(const SweepRequestMsg &request,
                          const SweepReply &reply)
{
    const size_t num_configs = request.configs.size();
    driver::StatsMerger merger(reply.rows.size());
    for (const RowMsg &row : reply.rows) {
        const size_t cell = row.cell;
        merger.setRowKey(cell,
                         request.workloads[cell / num_configs] +
                             "/cfg" +
                             std::to_string(cell % num_configs));
        if (row.errorCode != 0) {
            merger.setError(cell, row.error());
            continue;
        }
        const CpuStats &s = row.stats;
        merger.recordCount(cell, "instructions", s.instructions);
        merger.recordCount(cell, "cycles", s.cycles);
        merger.recordCount(cell, "loads", s.loads);
        merger.recordCount(cell, "stores", s.stores);
        merger.recordCount(cell, "branchMispredicts",
                           s.branchMispredicts);
        merger.recordCount(cell, "memOrderViolations",
                           s.memOrderViolations);
        merger.recordCount(cell, "valueSpecUsed", s.valueSpecUsed);
        merger.recordCount(cell, "valueSpecCorrect",
                           s.valueSpecCorrect);
        merger.recordCount(cell, "valueSpecWrong", s.valueSpecWrong);
        merger.recordCount(cell, "squashes", s.squashes);
        merger.recordCount(cell, "specCyclesSaved",
                           s.specCyclesSaved);
    }
    return merger.serialize();
}

} // namespace rarpred::service
