#include "queueing/blade_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/erlang.hpp"
#include "queueing/mmm.hpp"

namespace blade::queue {

const char* to_string(Discipline d) noexcept {
  return d == Discipline::Fcfs ? "fcfs" : "priority";
}

BladeQueue::BladeQueue(unsigned m, double xbar, double lambda2, Discipline d, double service_scv)
    : m_(m), xbar_(xbar), lambda2_(lambda2), disc_(d), scv_(service_scv) {
  if (m == 0) throw std::invalid_argument("BladeQueue: m must be >= 1");
  if (!(xbar > 0.0)) throw std::invalid_argument("BladeQueue: xbar must be > 0");
  if (!(lambda2 >= 0.0)) throw std::invalid_argument("BladeQueue: lambda2 must be >= 0");
  if (!(service_scv >= 0.0)) throw std::invalid_argument("BladeQueue: scv must be >= 0");
  if (special_utilization() >= 1.0) {
    throw UnstableQueueError("BladeQueue: special tasks alone saturate the server");
  }
  const double md = static_cast<double>(m_);
  double f = variability_factor();
  if (disc_ == Discipline::SpecialPriority) f /= (1.0 - special_utilization());
  rho_per_rate_ = xbar_ / md;
  wait_scale_ = xbar_ * f / md;
}

double BladeQueue::special_utilization() const noexcept {
  return lambda2_ * xbar_ / static_cast<double>(m_);
}

double BladeQueue::max_generic_rate() const noexcept {
  return static_cast<double>(m_) / xbar_ - lambda2_;
}

double BladeQueue::utilization(double lambda1) const {
  if (!(lambda1 >= 0.0)) throw std::invalid_argument("BladeQueue: lambda1 must be >= 0");
  const double rho = (lambda1 + lambda2_) * rho_per_rate_;
  if (rho >= 1.0) {
    throw UnstableQueueError("BladeQueue: generic + special arrivals exceed capacity");
  }
  return rho;
}

double BladeQueue::response_time_at_rho(double rho) const {
  if (!(rho >= 0.0) || rho >= 1.0) {
    throw std::invalid_argument("BladeQueue: rho must be in [0, 1)");
  }
  return xbar_ + wait_scale_ * num::erlang_c(m_, rho) / (1.0 - rho);
}

double BladeQueue::generic_response_time(double lambda1) const {
  return response_time_at_rho(utilization(lambda1));
}

double BladeQueue::special_response_time(double lambda1) const {
  const double rho = utilization(lambda1);
  const double pq = num::erlang_c(m_, rho);
  if (disc_ == Discipline::Fcfs) return xbar_ + wait_scale_ * pq / (1.0 - rho);
  // Theorem 2's intermediate result: W'' = W_0 / (1 - rho''), where
  // W_0 = (1+scv)/2 C xbar/m; wait_scale_ already carries 1/(1 - rho'').
  return xbar_ + wait_scale_ * pq;
}

double BladeQueue::dT_drho(double lambda1) const {
  const double rho = utilization(lambda1);
  const double pq = num::erlang_c(m_, rho);
  const double dpq = num::erlang_c_drho(m_, rho);
  // T' = xbar + wait_scale C/(1-rho), wait_scale constant in rho.
  const double one_minus = 1.0 - rho;
  return wait_scale_ * (dpq * one_minus + pq) / (one_minus * one_minus);
}

double BladeQueue::dT_dlambda(double lambda1) const {
  return rho_per_rate_ * dT_drho(lambda1);
}

std::pair<double, double> BladeQueue::marginal_terms(double lambda1, double rho,
                                                     const num::ErlangCDerivs& k) const noexcept {
  // With w = C/(1-rho), T' = xbar + wait_scale w and, one reciprocal of
  // (1 - rho) serving every order,
  //   w' = (C' + w)/(1-rho),   w'' = (C'' + 2 w')/(1-rho).
  // With s = drho/dlambda1, G = T' + lambda1 s wait_scale w' and
  // dG = s wait_scale (2 w' + lambda1 s w'').
  const double inv = 1.0 / (1.0 - rho);
  const double w = k.c * inv;
  const double w1 = (k.dc + w) * inv;
  const double w2 = (k.d2c + 2.0 * w1) * inv;
  const double ls = lambda1 * rho_per_rate_;
  const double g = xbar_ + wait_scale_ * (w + ls * w1);
  const double dg = wait_scale_ * rho_per_rate_ * (2.0 * w1 + ls * w2);
  return {g, dg};
}

double BladeQueue::lagrange_marginal(double lambda1) const {
  const double rho = utilization(lambda1);
  return marginal_terms(lambda1, rho, num::erlang_c_derivs(m_, rho)).first;
}

std::pair<double, double> BladeQueue::lagrange_marginal_with_derivative(double lambda1) const {
  const double rho = utilization(lambda1);
  auto [g, dg] = marginal_terms(lambda1, rho, num::erlang_c_derivs(m_, rho));
  if (!std::isfinite(dg)) {
    // Analytic curvature overflowed (rho pushed against 1): guarded
    // central difference of the marginal keeps Newton usable, and the
    // differential tests pin this fallback against the analytic branch.
    const double sup = max_generic_rate();
    const double h = std::max(1e-9, 1e-7 * std::min(lambda1, sup - lambda1));
    const double hi = std::min(lambda1 + h, (1.0 - 1e-12) * sup);
    const double lo = std::max(lambda1 - h, 0.0);
    if (hi > lo) dg = (lagrange_marginal(hi) - lagrange_marginal(lo)) / (hi - lo);
  }
  return {g, dg};
}

}  // namespace blade::queue
