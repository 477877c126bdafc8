#ifndef APEX_CORE_DEADLINE_H_
#define APEX_CORE_DEADLINE_H_

#include <chrono>
#include <string>

#include "core/status.hpp"

/**
 * @file
 * Wall-clock deadlines for the DSE pipeline.
 *
 * The exponential corners of the flow — the clique search, WL
 * canonicalization, the router's rip-up iterations, the sweep itself —
 * were historically bounded only by node budgets (or not at all), so
 * a pathological instance could stall a sweep for hours.  A Deadline
 * is an absolute point on the steady clock that those loops poll
 * cooperatively; expiry produces a real ErrorCode::kTimeout Status
 * (via check()) instead of a hang, and callers degrade to a cheaper
 * path or record the cell as timed out.
 *
 * A default-constructed Deadline is infinite (never expires), so
 * threading one through an API is free for callers that do not set
 * budgets.  Deadlines compose with earliest(): a per-cell deadline
 * never outlives the sweep deadline.
 *
 * Testability: expired() consults the fault injector's clock-skew
 * stage (APEX_FAULT="clock:N"), so a test can make the Nth deadline
 * poll observe a skewed clock and take the timeout path
 * deterministically, without sleeping.
 */

namespace apex {

/** Absolute wall-clock budget polled by long-running stages. */
class Deadline {
  public:
    using Clock = std::chrono::steady_clock;

    /** Infinite: never expires. */
    Deadline() = default;

    static Deadline infinite() { return {}; }

    /** Expires @p ms milliseconds from now (<= 0: already expired). */
    static Deadline after(double ms);

    bool isInfinite() const { return !finite_; }

    /**
     * True once the budget is exhausted.  A finite deadline also
     * expires when the fault injector's clock-skew stage fires on
     * this poll (deterministic timeout testing).
     */
    bool expired() const;

    /** Milliseconds left; negative when expired, +inf when infinite. */
    double remainingMs() const;

    /**
     * Ok while time remains; Status(kTimeout, "deadline expired
     * before <what>") once expired.  The message carries no clock
     * readings so journaled reports replay byte-identically.
     */
    Status check(std::string_view what) const;

    /** The tighter of two deadlines. */
    static Deadline earliest(const Deadline &a, const Deadline &b);

  private:
    bool finite_ = false;
    Clock::time_point at_{};
};

} // namespace apex

#endif // APEX_CORE_DEADLINE_H_
