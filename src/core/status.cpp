#include "core/status.hpp"

#include <sstream>

namespace apex {

std::string_view
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk:                return "Ok";
      case ErrorCode::kInvalidArgument:   return "InvalidArgument";
      case ErrorCode::kParseError:        return "ParseError";
      case ErrorCode::kInvalidIr:         return "InvalidIr";
      case ErrorCode::kMiningFailed:      return "MiningFailed";
      case ErrorCode::kMergeInfeasible:   return "MergeInfeasible";
      case ErrorCode::kMappingFailed:     return "MappingFailed";
      case ErrorCode::kPlaceFailed:       return "PlaceFailed";
      case ErrorCode::kRouteFailed:       return "RouteFailed";
      case ErrorCode::kBudgetExhausted:   return "BudgetExhausted";
      case ErrorCode::kEvaluationFailed:  return "EvaluationFailed";
      case ErrorCode::kTimeout:           return "Timeout";
      case ErrorCode::kCancelled:         return "Cancelled";
      case ErrorCode::kInternal:          return "Internal";
      case ErrorCode::kWorkerCrashed:     return "WorkerCrashed";
      case ErrorCode::kUnavailable:       return "Unavailable";
      case ErrorCode::kResourceExhausted: return "ResourceExhausted";
    }
    return "Unknown";
}

int
exitCodeFor(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk:                return 0;
      case ErrorCode::kInvalidArgument:   return 2;
      case ErrorCode::kParseError:        return 3;
      case ErrorCode::kInvalidIr:         return 4;
      case ErrorCode::kMiningFailed:      return 5;
      case ErrorCode::kMergeInfeasible:   return 6;
      case ErrorCode::kMappingFailed:     return 7;
      case ErrorCode::kPlaceFailed:       return 8;
      case ErrorCode::kRouteFailed:       return 9;
      case ErrorCode::kBudgetExhausted:   return 10;
      case ErrorCode::kEvaluationFailed:  return 11;
      case ErrorCode::kTimeout:           return 12;
      case ErrorCode::kInternal:          return 13;
      case ErrorCode::kCancelled:         return 14;
      case ErrorCode::kWorkerCrashed:     return 15;
      case ErrorCode::kUnavailable:       return 16;
      case ErrorCode::kResourceExhausted: return 17;
    }
    return 1;
}

std::string_view
stageForCode(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kParseError:        return "deserialize";
      case ErrorCode::kInvalidIr:         return "validate";
      case ErrorCode::kMiningFailed:      return "mine";
      case ErrorCode::kMergeInfeasible:   return "merge";
      case ErrorCode::kMappingFailed:     return "map";
      case ErrorCode::kPlaceFailed:       return "place";
      case ErrorCode::kBudgetExhausted:   return "place";
      case ErrorCode::kRouteFailed:       return "route";
      case ErrorCode::kEvaluationFailed:  return "evaluate";
      case ErrorCode::kTimeout:           return "deadline";
      case ErrorCode::kCancelled:         return "runtime";
      case ErrorCode::kWorkerCrashed:     return "worker";
      case ErrorCode::kUnavailable:       return "service";
      case ErrorCode::kResourceExhausted: return "durability";
      default:                            return "unknown";
    }
}

std::string
Status::toString() const
{
    if (ok())
        return "Ok";
    std::ostringstream os;
    os << errorCodeName(code_) << ": " << message_;
    for (const std::string &frame : context_)
        os << " [" << frame << "]";
    return os.str();
}

std::string_view
severityName(Severity severity)
{
    switch (severity) {
      case Severity::kInfo:    return "info";
      case Severity::kWarning: return "warning";
      case Severity::kError:   return "error";
    }
    return "unknown";
}

void
Diagnostics::info(std::string stage, std::string message, int attempt)
{
    report({Severity::kInfo, std::move(stage), ErrorCode::kOk,
            std::move(message), attempt, {}});
}

void
Diagnostics::warning(std::string stage, std::string message,
                     int attempt)
{
    report({Severity::kWarning, std::move(stage), ErrorCode::kOk,
            std::move(message), attempt, {}});
}

void
Diagnostics::error(std::string stage, const Status &status, int attempt)
{
    report({Severity::kError, std::move(stage), status.code(),
            status.toString(), attempt, {}});
}

void
Diagnostics::merge(const Diagnostics &other, const std::string &scope)
{
    for (DiagnosticRecord record : other.records_) {
        if (!scope.empty() && record.scope.empty())
            record.scope = scope;
        records_.push_back(std::move(record));
    }
}

int
Diagnostics::count(Severity severity) const
{
    int n = 0;
    for (const DiagnosticRecord &r : records_)
        if (r.severity == severity)
            ++n;
    return n;
}

std::vector<DiagnosticRecord>
Diagnostics::forStage(std::string_view stage) const
{
    std::vector<DiagnosticRecord> result;
    for (const DiagnosticRecord &r : records_)
        if (r.stage == stage)
            result.push_back(r);
    return result;
}

std::string
Diagnostics::toString() const
{
    std::ostringstream os;
    for (const DiagnosticRecord &r : records_) {
        os << '[' << severityName(r.severity) << "] " << r.stage;
        if (r.attempt > 0)
            os << " (attempt " << r.attempt << ')';
        if (!r.scope.empty())
            os << " {" << r.scope << '}';
        os << ": " << r.message << '\n';
    }
    return os.str();
}

std::string
ExplorationReport::summary() const
{
    std::ostringstream os;
    os << evaluated << " evaluated, " << skipped << " skipped, "
       << diagnostics.count(Severity::kWarning) << " warnings";
    if (degraded > 0)
        os << ", " << degraded << " degraded";
    os << '\n';
    for (const StageFailure &f : failures) {
        os << "  FAILED " << f.app;
        if (!f.variant.empty())
            os << '/' << f.variant;
        os << " at stage '" << f.stage << "' ["
           << errorCodeName(f.status.code()) << "] after "
           << f.attempts << (f.attempts == 1 ? " attempt" : " attempts")
           << ": " << f.status.message() << '\n';
    }
    return os.str();
}

} // namespace apex
