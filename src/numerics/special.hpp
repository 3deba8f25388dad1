// Stable special functions used by the queueing analytics: log-factorial,
// Poisson partial sums, and compensated summation.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

namespace blade::num {

/// ln(k!) computed exactly for small k and via lgamma beyond.
[[nodiscard]] double log_factorial(unsigned k) noexcept;

/// Poisson pmf  e^{-a} a^k / k!  computed in the log domain (stable for
/// large a and k).
[[nodiscard]] double poisson_pmf(unsigned k, double a) noexcept;

/// Regularized partial sum  e^{-a} * sum_{k=0}^{K} a^k/k!  (Poisson CDF at K).
/// Computed by forward recurrence on the pmf; stable for any a >= 0.
[[nodiscard]] double poisson_cdf(unsigned K, double a) noexcept;

/// Kahan–Babuska compensated accumulator for long sums of mixed magnitude.
/// add() is inline: the solver's Newton rounds make about 1,500 per warm
/// re-solve.
class KahanSum {
 public:
  void add(double x) noexcept {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      c_ += (sum_ - t) + x;
    } else {
      c_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  [[nodiscard]] double value() const noexcept { return sum_ + c_; }
  void reset() noexcept { sum_ = c_ = 0.0; }

 private:
  double sum_ = 0.0;
  double c_ = 0.0;
};

/// Compensated sum of a span.
[[nodiscard]] double ksum(std::span<const double> xs) noexcept;

/// Relative difference |a-b| / max(|a|,|b|,1); convenient for tolerant
/// comparisons in tests and validation code.
[[nodiscard]] double rel_diff(double a, double b) noexcept;

}  // namespace blade::num
