#include "numerics/roots.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "obs/obs.hpp"

namespace blade::num {

namespace {

constexpr double kSupMargin = 1e-9;  // (1 - eps) clamp factor against the supremum

/// Wall-clock watchdog for RootOptions::max_seconds; unarmed (and free
/// of clock reads) when the budget is 0.
class Deadline {
 public:
  explicit Deadline(double max_seconds) {
    if (max_seconds > 0.0) {
      armed_ = true;
      at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(max_seconds));
    }
  }

  void check(const char* who) const {
    if (armed_ && std::chrono::steady_clock::now() > at_) {
      BLADE_OBS_COUNT("roots.budget_exceeded");
      throw RootFindingError(std::string(who) + ": time budget exceeded");
    }
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// NaN/Inf guard on every evaluation: iterating on garbage turns one bad
/// kernel value into a silently wrong root, so fail loudly at the source.
double checked(const char* who, double x, double fx) {
  if (!std::isfinite(fx)) {
    BLADE_OBS_COUNT("roots.non_finite");
    std::ostringstream os;
    os << who << ": non-finite f(" << x << ") = " << fx;
    throw RootFindingError(os.str());
  }
  return fx;
}

}  // namespace

RootResult solve_increasing(const std::function<double(double)>& f, double target, double lower,
                            std::optional<double> sup, std::optional<double> initial_ub,
                            const RootOptions& opts) {
  RootResult res;
  if (sup && *sup <= lower) {
    throw RootFindingError("solve_increasing: empty domain (sup <= lower)");
  }
  const Deadline deadline(opts.max_seconds);
  const double f_lower = checked("solve_increasing", lower, f(lower));
  if (f_lower >= target) {
    res.x = lower;
    res.f = f_lower;
    return res;
  }

  double ub = initial_ub.value_or(std::max(1e-6, lower + 1e-6));
  if (ub <= lower) ub = lower + 1e-6;
  const double hard_ub = sup ? (1.0 - kSupMargin) * (*sup - lower) + lower
                             : std::numeric_limits<double>::infinity();
  ub = std::min(ub, hard_ub);

  int expansions = 0;
  double fub = checked("solve_increasing", ub, f(ub));
  while (fub < target) {
    deadline.check("solve_increasing");
    if (ub >= hard_ub) {
      // Saturated: f never reaches the target inside the domain. The best
      // feasible answer is the clamped upper bound (paper line (7)).
      res.x = hard_ub;
      res.f = fub;
      res.expansions = expansions;
      res.clamped_at_upper = true;
      return res;
    }
    ub = std::min(lower + 2.0 * (ub - lower), hard_ub);
    if (++expansions > opts.max_expansions) {
      throw RootFindingError("solve_increasing: bracketing failed (function may be bounded below target)");
    }
    fub = checked("solve_increasing", ub, f(ub));
  }

  double lb = lower;
  int it = 0;
  while (ub - lb > opts.tolerance && it < opts.max_iterations) {
    deadline.check("solve_increasing");
    const double mid = 0.5 * (lb + ub);
    if (checked("solve_increasing", mid, f(mid)) < target) {
      lb = mid;
    } else {
      ub = mid;
    }
    ++it;
  }
  res.x = 0.5 * (lb + ub);
  res.f = f(res.x);
  res.iterations = it;
  res.expansions = expansions;
  BLADE_OBS_COUNT("roots.solve_increasing_calls");
  BLADE_OBS_OBSERVE("roots.solve_increasing_iterations", it);
  return res;
}

}  // namespace blade::num
