#ifndef APEX_CORE_STATUS_H_
#define APEX_CORE_STATUS_H_

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * @file
 * Unified error layer for the APEX pipeline.
 *
 * Every stage of the mine -> merge -> PE gen -> map -> place -> route
 * -> evaluate flow reports failure through a typed Status instead of
 * ad-hoc string fields, so a DSE sweep can classify a failure, decide
 * whether it is retryable, and keep going.  The pieces:
 *
 *  - ErrorCode / Status / Result<T>: the error vocabulary.  Status
 *    carries a code, a message and a context chain built up with
 *    withContext() as the error propagates outward ("while routing
 *    pe_3" -> "while evaluating camera").
 *  - ApexError / IrError: exception carriers for constructor-style
 *    code paths (GraphBuilder, op tables) that cannot return Status.
 *  - Diagnostics: a structured sink collecting per-stage info /
 *    warning / error records, including retry attempt ordinals, so
 *    the full trail of a recovered failure stays observable.
 *  - ExplorationReport: the sweep-level roll-up — which app/variant
 *    pairs failed, at which stage, with which code, after how many
 *    attempts.
 */

namespace apex {

/** Failure taxonomy of the APEX pipeline. */
enum class ErrorCode {
    kOk = 0,
    kInvalidArgument,   ///< Bad option / CLI input.
    kParseError,        ///< Malformed apexir text.
    kInvalidIr,         ///< Graph violates structural invariants.
    kMiningFailed,      ///< Frequent-subgraph analysis failed.
    kMergeInfeasible,   ///< Datapath merge produced no viable result.
    kMappingFailed,     ///< Instruction selection could not cover.
    kPlaceFailed,       ///< Placement failed (non-capacity).
    kRouteFailed,       ///< Routing failed (congestion/unroutable).
    kBudgetExhausted,   ///< Fabric too small / search budget spent.
    kEvaluationFailed,  ///< Evaluation-level failure.
    kTimeout,           ///< Stage exceeded its budget.
    kCancelled,         ///< Cooperatively cancelled before running.
    kInternal,          ///< Unexpected exception / logic error.
    kWorkerCrashed,     ///< Worker process died evaluating a cell.
    kUnavailable,       ///< Service unreachable / refusing work.
    /** The machine ran out of a system resource the run depends on:
     * disk space for a durable write (ENOSPC/EIO on the journal,
     * cache tier or metrics file), file descriptors, memory.  Kept
     * distinct from kBudgetExhausted (a *search* budget) because the
     * recovery is different: free the resource and rerun/resume. */
    kResourceExhausted,
};

/** Stable identifier, e.g. "RouteFailed". */
std::string_view errorCodeName(ErrorCode code);

/** Distinct process exit code for the CLI (0 for kOk). */
int exitCodeFor(ErrorCode code);

/** Pipeline stage a code is conventionally raised by (see sweep). */
std::string_view stageForCode(ErrorCode code);

/**
 * Outcome of an operation: an error code, a message, and a chain of
 * context frames added while unwinding.  Default-constructed Status
 * is success.
 */
class [[nodiscard]] Status {
  public:
    Status() = default;
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message)) {}

    static Status okStatus() { return {}; }

    bool ok() const { return code_ == ErrorCode::kOk; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Innermost-first context frames. */
    const std::vector<std::string> &context() const { return context_; }

    /** Append a context frame (no-op on an ok status). */
    Status &&withContext(std::string frame) && {
        if (!ok())
            context_.push_back(std::move(frame));
        return std::move(*this);
    }
    Status withContext(std::string frame) const & {
        Status copy = *this;
        return std::move(copy).withContext(std::move(frame));
    }

    /** "RouteFailed: congestion ... [while routing pe_3 on 8x8]". */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::kOk;
    std::string message_;
    std::vector<std::string> context_;
};

/** Exception carrier for a Status (used where returning is not an
 * option: builders, lookup tables, Result::value()). */
class ApexError : public std::runtime_error {
  public:
    explicit ApexError(Status status)
        : std::runtime_error(status.toString()),
          status_(std::move(status)) {}

    const Status &status() const { return status_; }
    ErrorCode code() const { return status_.code(); }

  private:
    Status status_;
};

/** IR-layer violation (invalid operand, unknown op, bad width). */
class IrError : public ApexError {
  public:
    IrError(ErrorCode code, std::string message)
        : ApexError(Status(code, std::move(message))) {}
};

/** Either a value or a non-ok Status. */
template <typename T>
class [[nodiscard]] Result {
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Status status) : status_(std::move(status)) {
        if (status_.ok())
            status_ = Status(ErrorCode::kInternal,
                             "Result constructed from ok Status");
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** Ok status when holding a value; the error otherwise. */
    const Status &status() const { return status_; }

    const T &value() const & {
        requireOk();
        return *value_;
    }
    T &value() & {
        requireOk();
        return *value_;
    }
    T &&value() && {
        requireOk();
        return std::move(*value_);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

  private:
    void requireOk() const {
        if (!ok())
            throw ApexError(status_);
    }

    Status status_;          // ok when value_ holds.
    std::optional<T> value_;
};

/** Early-return helper for Status-returning functions. */
#define APEX_RETURN_IF_ERROR(expr)                                    \
    do {                                                              \
        if (::apex::Status _apex_status = (expr); !_apex_status.ok()) \
            return _apex_status;                                      \
    } while (0)

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

enum class Severity { kInfo, kWarning, kError };

std::string_view severityName(Severity severity);

/** One structured diagnostic event. */
struct DiagnosticRecord {
    Severity severity = Severity::kInfo;
    std::string stage;   ///< "place", "route", "validate", ...
    ErrorCode code = ErrorCode::kOk;
    std::string message;
    int attempt = 0;     ///< Retry ordinal, 1-based; 0 = n/a.
    std::string scope;   ///< "app/variant" when merged into a report.
};

/** Ordered sink of per-stage diagnostics. */
class Diagnostics {
  public:
    void report(DiagnosticRecord record) {
        records_.push_back(std::move(record));
    }
    void info(std::string stage, std::string message, int attempt = 0);
    void warning(std::string stage, std::string message,
                 int attempt = 0);
    void error(std::string stage, const Status &status,
               int attempt = 0);

    /** Append @p other's records, tagging them with @p scope. */
    void merge(const Diagnostics &other, const std::string &scope = {});

    const std::vector<DiagnosticRecord> &records() const {
        return records_;
    }
    bool empty() const { return records_.empty(); }
    int count(Severity severity) const;

    /** Records of one stage, in order (e.g. the retry trail). */
    std::vector<DiagnosticRecord>
    forStage(std::string_view stage) const;

    /** Human-readable multi-line dump. */
    std::string toString() const;

  private:
    std::vector<DiagnosticRecord> records_;
};

// ---------------------------------------------------------------------
// ExplorationReport
// ---------------------------------------------------------------------

/** One skipped app/variant with its failure provenance. */
struct StageFailure {
    std::string app;
    std::string variant; ///< Empty when the whole app was skipped.
    std::string stage;   ///< Stage that declared the failure.
    Status status;
    int attempts = 1;    ///< P&R attempts consumed before giving up.
};

/** Sweep-level roll-up: what ran, what was skipped, and why. */
struct ExplorationReport {
    int evaluated = 0; ///< (app, variant) pairs that completed.
    int skipped = 0;   ///< Pairs (or whole apps) recorded and skipped.
    /** Of the evaluated pairs, how many completed on the degraded
     * path after their cell deadline expired. */
    int degraded = 0;
    std::vector<StageFailure> failures;
    Diagnostics diagnostics;

    bool allOk() const { return failures.empty(); }

    /** One-paragraph summary plus one line per failure. */
    std::string summary() const;
};

} // namespace apex

#endif // APEX_CORE_STATUS_H_
