// The paper's blade-server queue: an M/M/m system fed by two merged
// Poisson streams — generic tasks (rate lambda1, the decision variable)
// and preloaded special tasks (rate lambda2, fixed) — under one of two
// queueing disciplines:
//
//   Discipline::Fcfs               Section 3: all tasks share one FCFS
//                                  queue; T'_i = T_i of the merged M/M/m.
//   Discipline::SpecialPriority    Section 4 (Theorem 2): special tasks
//                                  have non-preemptive priority; the
//                                  generic waiting term gains a factor
//                                  1/(1 - rho''_i).
//
// Besides the response times, this class exposes the analytic derivatives
// dT'/drho and dT'/dlambda1 and the Lagrange marginal
//   G(lambda1) = T'(lambda1) + lambda1 * dT'/dlambda1,
// which is what the optimizer equalizes across servers (eq. (1) in the
// paper up to the constant 1/lambda').
#pragma once

#include <utility>

#include "numerics/erlang.hpp"

namespace blade::queue {

enum class Discipline {
  Fcfs,             ///< special tasks mixed FCFS with generic tasks (Sec. 3)
  SpecialPriority,  ///< special tasks have non-preemptive priority (Sec. 4)
};

/// Returns "fcfs" or "priority".
[[nodiscard]] const char* to_string(Discipline d) noexcept;

class BladeQueue {
 public:
  /// @param m        number of blades, >= 1
  /// @param xbar     mean task execution time on one blade (rbar/s), > 0
  /// @param lambda2  arrival rate of special tasks, >= 0, with
  ///                 lambda2 * xbar / m < 1
  /// @param d        queueing discipline for the special stream
  /// @param service_scv  squared coefficient of variation of task sizes.
  ///                 1 (default) is the paper's exponential assumption and
  ///                 makes every formula exact; other values apply the
  ///                 Allen–Cunneen M/G/m correction (1+scv)/2 to the
  ///                 waiting term, an approximation used by the
  ///                 sensitivity ablation.
  BladeQueue(unsigned m, double xbar, double lambda2, Discipline d, double service_scv = 1.0);

  [[nodiscard]] unsigned blades() const noexcept { return m_; }
  [[nodiscard]] double mean_service_time() const noexcept { return xbar_; }
  [[nodiscard]] double special_rate() const noexcept { return lambda2_; }
  [[nodiscard]] Discipline discipline() const noexcept { return disc_; }
  [[nodiscard]] double service_scv() const noexcept { return scv_; }

  /// rho'' = lambda2 * xbar / m: utilization due to special tasks alone.
  [[nodiscard]] double special_utilization() const noexcept;

  /// Largest admissible generic rate: m/xbar - lambda2 (exclusive).
  [[nodiscard]] double max_generic_rate() const noexcept;

  /// Total utilization rho = (lambda1 + lambda2) xbar / m; throws if >= 1.
  [[nodiscard]] double utilization(double lambda1) const;

  /// T'_i(lambda1): mean response time of *generic* tasks.
  [[nodiscard]] double generic_response_time(double lambda1) const;

  /// Mean response time of *special* tasks (equals the generic one under
  /// FCFS; smaller under priority).
  [[nodiscard]] double special_response_time(double lambda1) const;

  /// Analytic dT'/drho at the utilization implied by lambda1.
  [[nodiscard]] double dT_drho(double lambda1) const;

  /// Analytic dT'/dlambda1 = (xbar/m) dT'/drho.
  [[nodiscard]] double dT_dlambda(double lambda1) const;

  /// Lagrange marginal G(lambda1) = T' + lambda1 dT'/dlambda1. Strictly
  /// increasing in lambda1 (convexity of lambda1 * T').
  [[nodiscard]] double lagrange_marginal(double lambda1) const;

  /// {G(lambda1), dG/dlambda1} from ONE Erlang-B recurrence evaluation
  /// (num::erlang_c_derivs shares C, C', C'' across the marginal and its
  /// derivative). dG = 2 dT'/dlambda1 + lambda1 d^2T'/dlambda1^2 is the
  /// slope Newton's method needs; it is positive by convexity. If the
  /// analytic second derivative is not finite (extreme rho), the slope
  /// falls back to a guarded central difference of lagrange_marginal.
  [[nodiscard]] std::pair<double, double> lagrange_marginal_with_derivative(
      double lambda1) const;

  /// Response time evaluated directly at a given total utilization (used
  /// by shape tests that sweep rho rather than lambda1).
  [[nodiscard]] double response_time_at_rho(double rho) const;

 private:
  /// (1 + scv)/2: multiplier on every waiting-time term.
  [[nodiscard]] double variability_factor() const noexcept { return 0.5 * (1.0 + scv_); }

  /// {G, dG} at lambda1 from the Erlang-C kernel values `k` at rho =
  /// utilization(lambda1), with dG straight from the analytic formula
  /// (not finite when the curvature overflows;
  /// lagrange_marginal_with_derivative then falls back to a central
  /// difference).
  [[nodiscard]] std::pair<double, double> marginal_terms(
      double lambda1, double rho, const num::ErlangCDerivs& k) const noexcept;

  unsigned m_;
  double xbar_;
  double lambda2_;
  Discipline disc_;
  double scv_;
  /// Per-queue constants of every marginal evaluation, fixed at
  /// construction: drho/dlambda1 = xbar/m, and the waiting-term scale
  /// xbar f / m with f = (1+scv)/2, divided by (1 - rho'') under priority
  /// (T' = xbar + wait_scale_ C/(1-rho)).
  double rho_per_rate_ = 0.0;
  double wait_scale_ = 0.0;
};

}  // namespace blade::queue
