#include "numerics/erlang.hpp"

#include <cmath>
#include <stdexcept>

#include "numerics/special.hpp"
#include "obs/obs.hpp"

namespace blade::num {

namespace {

void check_m(unsigned m) {
  if (m == 0) throw std::invalid_argument("erlang: m must be >= 1");
}

void check_rho(double rho) {
  if (!std::isfinite(rho)) {
    // Distinguish corrupted inputs (NaN/Inf from upstream arithmetic)
    // from plain out-of-domain utilizations: the former is a numerics
    // failure worth its own counter and message.
    BLADE_OBS_COUNT("numerics.non_finite");
    throw std::invalid_argument("erlang: rho must be finite (NaN/Inf rejected)");
  }
  if (!(rho >= 0.0) || rho >= 1.0) {
    throw std::invalid_argument("erlang: rho must be in [0, 1)");
  }
}

/// The Erlang-B recurrence, unchecked and uncounted: the Erlang-C kernels
/// have validated m and rho, so a = m rho is finite and >= 0.
double erlang_b_recurrence(unsigned m, double a) {
  double b = 1.0;
  for (unsigned k = 1; k <= m; ++k) {
    b = a * b / (static_cast<double>(k) + a * b);
  }
  return b;
}

}  // namespace

double erlang_b(unsigned m, double a) {
  check_m(m);
  if (!std::isfinite(a)) {
    BLADE_OBS_COUNT("numerics.non_finite");
    throw std::invalid_argument("erlang_b: a must be finite (NaN/Inf rejected)");
  }
  if (!(a >= 0.0)) throw std::invalid_argument("erlang_b: a must be >= 0");
  BLADE_OBS_COUNT("numerics.erlang_b_evals");
  return erlang_b_recurrence(m, a);
}

double erlang_c(unsigned m, double rho) {
  check_m(m);
  check_rho(rho);
  BLADE_OBS_COUNT("numerics.erlang_c_evals");
  if (rho == 0.0) return 0.0;
  const double a = static_cast<double>(m) * rho;
  const double b = erlang_b_recurrence(m, a);
  return b / (1.0 - rho * (1.0 - b));
}

double erlang_c_drho(unsigned m, double rho) {
  check_m(m);
  check_rho(rho);
  BLADE_OBS_COUNT("numerics.erlang_c_drho_evals");
  if (rho == 0.0) return m == 1 ? 1.0 : 0.0;
  const double a = static_cast<double>(m) * rho;
  const double b = erlang_b_recurrence(m, a);
  // t = T_m / S_1 where T_m = a^m/m!, S_1 = sum_{k<m} a^k/k!.
  // B = T_m/(S_1+T_m)  =>  t = B/(1-B).
  const double t = b / (1.0 - b);
  const double u = 1.0 - rho + t;
  const double dt = (t * static_cast<double>(m) / rho) * u;
  return (dt * (1.0 - rho) + t) / (u * u);
}

ErlangCDerivs erlang_c_derivs(unsigned m, double rho) {
  check_m(m);
  check_rho(rho);
  BLADE_OBS_COUNT("numerics.erlang_c_evals");
  ErlangCDerivs r;
  if (rho == 0.0) {
    // C has an m-th order zero at rho = 0: C(1, rho) = rho exactly, and
    // C(2, rho) = 2 rho^2 + O(rho^3).
    r.dc = (m == 1) ? 1.0 : 0.0;
    r.d2c = (m == 2) ? 4.0 : 0.0;
    return r;
  }
  // One reciprocal each for u and rho serves all three orders.
  const double b = erlang_b_recurrence(m, static_cast<double>(m) * rho);
  const double md = static_cast<double>(m);
  const double one_minus = 1.0 - rho;
  const double t = b / (1.0 - b);
  const double u = one_minus + t;
  const double inv_u = 1.0 / u;
  const double inv_rho = 1.0 / rho;
  const double t_rho = t * inv_rho;
  r.c = t * inv_u;
  const double tp = md * t_rho * u;
  const double up = tp - 1.0;
  const double num = tp * one_minus + t;
  r.dc = num * inv_u * inv_u;
  const double tpp = md * ((tp - t_rho) * inv_rho * u + t_rho * up);
  r.d2c = (tpp * one_minus * u - 2.0 * up * num) * (inv_u * inv_u * inv_u);
  return r;
}

double mmm_p0(unsigned m, double rho) {
  check_m(m);
  check_rho(rho);
  const double a = static_cast<double>(m) * rho;
  // p0^{-1} = S_1 + T_m/(1-rho). Scale by e^{-a}: e^{-a} S_1 is the Poisson
  // CDF at m-1 and e^{-a} T_m is the pmf at m, both stable.
  const double s1 = (m >= 1) ? poisson_cdf(m - 1, a) : 0.0;
  const double tm = poisson_pmf(m, a);
  const double inv_scaled = s1 + tm / (1.0 - rho);
  // p0 = e^{-a} / inv_scaled.
  const double log_p0 = -a - std::log(inv_scaled);
  return std::exp(log_p0);
}

double mmm_p0_drho(unsigned m, double rho) {
  check_m(m);
  check_rho(rho);
  const double p0 = mmm_p0(m, rho);
  const double md = static_cast<double>(m);
  // Paper:  dp0/drho = -p0^2 [ sum_{k=1}^{m-1} m^k rho^{k-1}/(k-1)!
  //                           + (m^m/m!) rho^{m-1}(m-(m-1)rho)/(1-rho)^2 ].
  KahanSum s;
  double term = md;  // k = 1: m^1 rho^0 / 0!
  for (unsigned k = 1; k <= m - 1; ++k) {
    s.add(term);
    term *= md * rho / static_cast<double>(k);  // advance to k+1
  }
  const double log_tail = md * std::log(md) + (md - 1.0) * std::log(rho) - log_factorial(m);
  const double tail = std::exp(log_tail) * (md - (md - 1.0) * rho) / ((1.0 - rho) * (1.0 - rho));
  return -p0 * p0 * (s.value() + tail);
}

double erlang_c_reference(unsigned m, double rho) {
  check_m(m);
  check_rho(rho);
  if (rho == 0.0) return 0.0;
  const double p0 = mmm_p0(m, rho);
  const double a = static_cast<double>(m) * rho;
  const double log_pm = std::log(p0) + static_cast<double>(m) * std::log(a) - log_factorial(m);
  return std::exp(log_pm) / (1.0 - rho);
}

}  // namespace blade::num
