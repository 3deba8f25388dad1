// The optimization objective of Section 3:
//   T'(lambda'_1..lambda'_n) = sum_i (lambda'_i / lambda') T'_i(lambda'_i)
// together with its per-server Lagrange marginals
//   g_i(lambda'_i) = dT'/dlambda'_i
//               = (1/lambda') (T'_i + lambda'_i dT'_i/dlambda'_i).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "model/cluster.hpp"
#include "queueing/blade_queue.hpp"

namespace blade::opt {

namespace detail {

/// g_i = G_i(rate)/lambda', scaled by `inv_lambda` = 1/lambda' taken once
/// per objective: the one scaling ResponseTimeObjective and the solver's
/// per-cell objective share, so both give bitwise the same marginals.
[[nodiscard]] inline double scaled_marginal(const queue::BladeQueue& q, double rate,
                                            double inv_lambda) {
  return q.lagrange_marginal(rate) * inv_lambda;
}

/// {g_i, dg_i/dlambda'_i} with the same scaling.
[[nodiscard]] inline std::pair<double, double> scaled_marginal_with_derivative(
    const queue::BladeQueue& q, double rate, double inv_lambda) {
  const auto [g, dg] = q.lagrange_marginal_with_derivative(rate);
  return {g * inv_lambda, dg * inv_lambda};
}

}  // namespace detail

class ResponseTimeObjective {
 public:
  /// @param cluster       the problem instance
  /// @param d             discipline of the special streams
  /// @param lambda_total  total generic arrival rate lambda' (> 0, and
  ///                      strictly below the cluster saturation point)
  /// @param service_scv   task-size variability (1 = the paper's exact
  ///                      exponential model; else Allen–Cunneen approx.)
  ResponseTimeObjective(const model::Cluster& cluster, queue::Discipline d, double lambda_total,
                        double service_scv = 1.0);

  /// Heterogeneous disciplines: ds[i] applies to server i (used by the
  /// discipline-assignment extension).
  ResponseTimeObjective(const model::Cluster& cluster, const std::vector<queue::Discipline>& ds,
                        double lambda_total, double service_scv = 1.0);

  [[nodiscard]] std::size_t size() const noexcept { return queues_.size(); }
  [[nodiscard]] double lambda_total() const noexcept { return lambda_total_; }
  [[nodiscard]] const queue::BladeQueue& queue(std::size_t i) const { return queues_.at(i); }

  /// Saturation point of server i's generic stream (exclusive bound).
  [[nodiscard]] double rate_bound(std::size_t i) const { return queues_.at(i).max_generic_rate(); }

  /// T'(rates): mean generic response time for a full assignment. The
  /// rates need not sum to lambda' (weights always use lambda'), so this
  /// is also usable on intermediate/infeasible iterates.
  [[nodiscard]] double value(std::span<const double> rates) const;

  /// g_i evaluated at a given per-server rate.
  [[nodiscard]] double marginal(std::size_t i, double rate) const;

  /// {g_i, dg_i/dlambda'_i} in one Erlang-kernel evaluation — the
  /// derivative-returning form the Newton inner solver consumes. The
  /// derivative is positive (T' is convex in lambda'_i); see
  /// BladeQueue::lagrange_marginal_with_derivative for the analytic form
  /// and its finite-difference fallback.
  [[nodiscard]] std::pair<double, double> marginal_with_derivative(std::size_t i,
                                                                  double rate) const;

  /// Full gradient (g_1..g_n) at an assignment.
  [[nodiscard]] std::vector<double> gradient(std::span<const double> rates) const;

  /// Per-server utilizations rho_i at an assignment.
  [[nodiscard]] std::vector<double> utilizations(std::span<const double> rates) const;

 private:
  std::vector<queue::BladeQueue> queues_;
  double lambda_total_;
  double inv_lambda_;  ///< 1/lambda'
};

}  // namespace blade::opt
