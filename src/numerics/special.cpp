#include "numerics/special.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace blade::num {

namespace {

// Exact ln(k!) for k <= 20 (20! is the last factorial exactly representable
// in uint64_t; doubles carry these sums exactly enough for our tolerances).
constexpr int kExactMax = 20;

const std::array<double, kExactMax + 1>& exact_table() {
  static const std::array<double, kExactMax + 1> table = [] {
    std::array<double, kExactMax + 1> t{};
    t[0] = 0.0;
    double acc = 0.0;
    for (int k = 1; k <= kExactMax; ++k) {
      acc += std::log(static_cast<double>(k));
      t[static_cast<std::size_t>(k)] = acc;
    }
    return t;
  }();
  return table;
}

}  // namespace

double log_factorial(unsigned k) noexcept {
  if (k <= kExactMax) return exact_table()[k];
  return std::lgamma(static_cast<double>(k) + 1.0);
}

double poisson_pmf(unsigned k, double a) noexcept {
  if (a <= 0.0) return k == 0 ? 1.0 : 0.0;
  const double lp = -a + static_cast<double>(k) * std::log(a) - log_factorial(k);
  return std::exp(lp);
}

double poisson_cdf(unsigned K, double a) noexcept {
  if (a <= 0.0) return 1.0;
  // Forward recurrence from the mode side would be ideal; for the blade-server
  // sizes in play (m up to a few thousand) starting at k=0 with the pmf in the
  // log domain for the first term is accurate and simple: p_{k+1} = p_k * a/(k+1).
  double p = std::exp(-a);
  KahanSum s;
  if (p > 0.0) {
    s.add(p);
    for (unsigned k = 0; k < K; ++k) {
      p *= a / static_cast<double>(k + 1);
      s.add(p);
    }
    return std::min(1.0, s.value());
  }
  // e^{-a} underflows (a > ~745): sum the log-domain pmf terms around the
  // largest contributor instead.
  for (unsigned k = 0; k <= K; ++k) s.add(poisson_pmf(k, a));
  return std::min(1.0, s.value());
}

double ksum(std::span<const double> xs) noexcept {
  KahanSum s;
  for (double x : xs) s.add(x);
  return s.value();
}

double rel_diff(double a, double b) noexcept {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) / scale;
}

}  // namespace blade::num
