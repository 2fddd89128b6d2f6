/**
 * @file
 * Recoverable error handling: Status and Result<T>.
 *
 * The error-handling policy of this repo (see DESIGN.md §10):
 *  - panic()  : internal invariant violated — a simulator bug; aborts.
 *  - fatal()  : unusable request at a *program entry point* (CLI
 *               drivers, examples); exits.
 *  - Status   : anything a library caller could reasonably want to
 *               handle — missing or corrupt trace files, unknown
 *               workload names, invalid table geometries. Library code
 *               must report these as Status/Result values and must
 *               never exit the process.
 *
 * Status is a (code, message) pair; Result<T> is an expected-style
 * union of a value and a non-OK Status.
 */

#ifndef RARPRED_COMMON_STATUS_HH_
#define RARPRED_COMMON_STATUS_HH_

#include <string>
#include <utility>
#include <variant>

#include "common/logging.hh"

namespace rarpred {

/** Broad error categories, in the spirit of absl::StatusCode. */
enum class StatusCode : uint8_t
{
    Ok,
    InvalidArgument,    ///< caller passed something nonsensical
    NotFound,           ///< named entity does not exist
    IoError,            ///< the OS/filesystem failed us
    Corruption,         ///< data failed an integrity check
    OutOfRange,         ///< a value exceeds its legal range
    FailedPrecondition, ///< object not in a state to do that
    DeadlineExceeded,   ///< work exceeded its time budget
    Cancelled,          ///< caller (or a signal) asked to stop
    Internal,           ///< unexpected failure (e.g. a caught exception)
    ResourceExhausted,  ///< a bounded queue/budget is full; retry later
    Unavailable,        ///< the serving side is not accepting work
};

/** @return a stable lowercase name for @p code ("ok", "io-error", ...). */
const char *statusCodeName(StatusCode code);

/** A success-or-error value; default-constructed Status is OK. */
class Status
{
  public:
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status
    invalidArgument(std::string msg)
    {
        return {StatusCode::InvalidArgument, std::move(msg)};
    }

    static Status
    notFound(std::string msg)
    {
        return {StatusCode::NotFound, std::move(msg)};
    }

    static Status
    ioError(std::string msg)
    {
        return {StatusCode::IoError, std::move(msg)};
    }

    static Status
    corruption(std::string msg)
    {
        return {StatusCode::Corruption, std::move(msg)};
    }

    static Status
    outOfRange(std::string msg)
    {
        return {StatusCode::OutOfRange, std::move(msg)};
    }

    static Status
    failedPrecondition(std::string msg)
    {
        return {StatusCode::FailedPrecondition, std::move(msg)};
    }

    static Status
    deadlineExceeded(std::string msg)
    {
        return {StatusCode::DeadlineExceeded, std::move(msg)};
    }

    static Status
    cancelled(std::string msg)
    {
        return {StatusCode::Cancelled, std::move(msg)};
    }

    static Status
    internal(std::string msg)
    {
        return {StatusCode::Internal, std::move(msg)};
    }

    static Status
    resourceExhausted(std::string msg)
    {
        return {StatusCode::ResourceExhausted, std::move(msg)};
    }

    static Status
    unavailable(std::string msg)
    {
        return {StatusCode::Unavailable, std::move(msg)};
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** @return "ok" or "<code-name>: <message>". */
    std::string toString() const;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * Holds either a T or a non-OK Status.
 *
 * Accessing value() on an error Result is a programming error and
 * panics; check ok() (or status()) first.
 */
template <typename T>
class Result
{
  public:
    using value_type = T;

    /** Implicit from a value: success. */
    Result(T value) : state_(std::move(value)) {}

    /** Implicit from a non-OK status: failure. OK status panics. */
    Result(Status status) : state_(std::move(status))
    {
        if (std::get<Status>(state_).ok())
            rarpred_panic("Result constructed from OK status");
    }

    bool ok() const { return std::holds_alternative<T>(state_); }

    /** @return the error, or an OK status when a value is held. */
    Status
    status() const
    {
        if (ok())
            return Status{};
        return std::get<Status>(state_);
    }

    T &
    value()
    {
        if (!ok())
            rarpred_panic("Result::value() on error: " +
                          std::get<Status>(state_).toString());
        return std::get<T>(state_);
    }

    const T &
    value() const
    {
        if (!ok())
            rarpred_panic("Result::value() on error: " +
                          std::get<Status>(state_).toString());
        return std::get<T>(state_);
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    std::variant<T, Status> state_;
};

/** Propagate a non-OK Status to the caller. */
#define RARPRED_RETURN_IF_ERROR(expr)                                         \
    do {                                                                      \
        ::rarpred::Status rarpred_status_ = (expr);                           \
        if (!rarpred_status_.ok())                                            \
            return rarpred_status_;                                           \
    } while (0)

} // namespace rarpred

#endif // RARPRED_COMMON_STATUS_HH_
