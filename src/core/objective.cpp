#include "core/objective.hpp"

#include <stdexcept>

#include "numerics/special.hpp"

namespace blade::opt {

namespace {
void check_feasible(const model::Cluster& cluster, double lambda_total) {
  if (!(lambda_total > 0.0)) {
    throw std::invalid_argument("ResponseTimeObjective: lambda' must be > 0");
  }
  if (lambda_total >= cluster.max_generic_rate()) {
    throw std::invalid_argument(
        "ResponseTimeObjective: lambda' exceeds the cluster saturation point lambda'_max");
  }
}
}  // namespace

ResponseTimeObjective::ResponseTimeObjective(const model::Cluster& cluster, queue::Discipline d,
                                             double lambda_total, double service_scv)
    : queues_(cluster.queues(d, service_scv)),
      lambda_total_(lambda_total),
      inv_lambda_(1.0 / lambda_total) {
  check_feasible(cluster, lambda_total);
}

ResponseTimeObjective::ResponseTimeObjective(const model::Cluster& cluster,
                                             const std::vector<queue::Discipline>& ds,
                                             double lambda_total, double service_scv)
    : queues_(cluster.queues(ds, service_scv)),
      lambda_total_(lambda_total),
      inv_lambda_(1.0 / lambda_total) {
  check_feasible(cluster, lambda_total);
}

double ResponseTimeObjective::value(std::span<const double> rates) const {
  if (rates.size() != queues_.size()) {
    throw std::invalid_argument("ResponseTimeObjective::value: rate vector size mismatch");
  }
  // One compensated pass that skips unloaded servers (their T'_i carries
  // no weight).
  num::KahanSum acc;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] == 0.0) continue;
    acc.add(rates[i] * queues_[i].generic_response_time(rates[i]));
  }
  return acc.value() / lambda_total_;
}

double ResponseTimeObjective::marginal(std::size_t i, double rate) const {
  return detail::scaled_marginal(queues_.at(i), rate, inv_lambda_);
}

std::pair<double, double> ResponseTimeObjective::marginal_with_derivative(std::size_t i,
                                                                          double rate) const {
  return detail::scaled_marginal_with_derivative(queues_.at(i), rate, inv_lambda_);
}

std::vector<double> ResponseTimeObjective::gradient(std::span<const double> rates) const {
  if (rates.size() != queues_.size()) {
    throw std::invalid_argument("ResponseTimeObjective::gradient: rate vector size mismatch");
  }
  std::vector<double> g(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) g[i] = marginal(i, rates[i]);
  return g;
}

std::vector<double> ResponseTimeObjective::utilizations(std::span<const double> rates) const {
  if (rates.size() != queues_.size()) {
    throw std::invalid_argument("ResponseTimeObjective::utilizations: rate vector size mismatch");
  }
  std::vector<double> rho(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) rho[i] = queues_[i].utilization(rates[i]);
  return rho;
}

}  // namespace blade::opt
