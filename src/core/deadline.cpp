#include "core/deadline.hpp"

#include <limits>

#include "core/fault.hpp"

namespace apex {

Deadline
Deadline::after(double ms)
{
    Deadline d;
    d.finite_ = true;
    d.at_ = Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    ms > 0.0 ? ms : 0.0));
    return d;
}

bool
Deadline::expired() const
{
    if (!finite_)
        return false;
    // Clock-skew fault: an armed poll observes a clock far in the
    // future, so the timeout path runs without any real waiting.
    if (!checkFault(FaultStage::kClockSkew).ok())
        return true;
    return Clock::now() >= at_;
}

double
Deadline::remainingMs() const
{
    if (!finite_)
        return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(at_ -
                                                     Clock::now())
        .count();
}

Status
Deadline::check(std::string_view what) const
{
    if (!expired())
        return Status::okStatus();
    return Status(ErrorCode::kTimeout,
                  "deadline expired before " + std::string(what));
}

Deadline
Deadline::earliest(const Deadline &a, const Deadline &b)
{
    if (!a.finite_)
        return b;
    if (!b.finite_)
        return a;
    return a.at_ <= b.at_ ? a : b;
}

} // namespace apex
