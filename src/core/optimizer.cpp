#include "core/optimizer.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/sharded.hpp"
#include "core/solver_core.hpp"
#include "numerics/roots.hpp"
#include "numerics/special.hpp"

namespace blade::opt {

void OptimizerOptions::validate() const {
  if (!(rate_tolerance > 0.0)) {
    throw std::invalid_argument("OptimizerOptions: rate_tolerance must be > 0");
  }
  if (!(phi_tolerance > 0.0)) {
    throw std::invalid_argument("OptimizerOptions: phi_tolerance must be > 0");
  }
  if (max_iterations < 1) {
    throw std::invalid_argument("OptimizerOptions: max_iterations must be >= 1");
  }
  if (!(saturation_margin > 0.0) || !(saturation_margin < 1.0)) {
    throw std::invalid_argument("OptimizerOptions: saturation_margin must be in (0, 1)");
  }
  if (!(service_scv >= 0.0)) {
    throw std::invalid_argument("OptimizerOptions: service_scv must be >= 0");
  }
  if (max_marginal_evaluations < 0) {
    throw std::invalid_argument("OptimizerOptions: max_marginal_evaluations must be >= 0");
  }
  if (!(max_solve_seconds >= 0.0) || !std::isfinite(max_solve_seconds)) {
    throw std::invalid_argument("OptimizerOptions: max_solve_seconds must be finite and >= 0");
  }
}

double LoadDistribution::total_rate() const {
  num::KahanSum s;
  for (double r : rates) s.add(r);
  return s.value();
}

std::size_t LoadDistribution::active_servers() const noexcept {
  std::size_t active = 0;
  for (double r : rates) {
    if (r > 0.0) ++active;
  }
  return active;
}

std::string LoadDistribution::summary() const {
  std::ostringstream os;
  os << std::setprecision(10) << "optimize: converged outer_it=" << outer_iterations
     << " phi=" << phi << " active=" << active_servers() << "/" << rates.size()
     << " inner_evals=" << inner_evaluations << " T'=" << response_time;
  return os.str();
}

namespace {

ShardOptions one_cell() {
  ShardOptions shard;
  shard.cells = 1;
  return shard;
}

}  // namespace

LoadDistributionOptimizer::LoadDistributionOptimizer(model::Cluster cluster, queue::Discipline d,
                                                     OptimizerOptions opts)
    : solver_(std::make_shared<const ShardedOptimizer>(std::move(cluster), d, std::move(opts),
                                                       one_cell())) {}

LoadDistributionOptimizer::LoadDistributionOptimizer(model::Cluster cluster,
                                                     std::vector<queue::Discipline> ds,
                                                     OptimizerOptions opts)
    : solver_(std::make_shared<const ShardedOptimizer>(std::move(cluster), std::move(ds),
                                                       std::move(opts), one_cell())) {}

const model::Cluster& LoadDistributionOptimizer::cluster() const noexcept {
  return solver_->cluster();
}

const std::vector<queue::Discipline>& LoadDistributionOptimizer::disciplines() const noexcept {
  return solver_->disciplines();
}

void SolverWorkspace::clear() {
  cells_.clear();
  newton_ = detail::NewtonState{};
  rates_.clear();
  seed_phi_ = -1.0;
}

void SolverWorkspace::warm_start(std::span<const double> rates) {
  if (!(seed_phi_ > 0.0)) return;  // no previous solve: stays cold
  rates_.assign(rates.begin(), rates.end());
}

void throw_solver_error(const Error& error) {
  if (error.code == ErrorCode::InvalidArgument || error.code == ErrorCode::Infeasible) {
    throw std::invalid_argument(error.context);
  }
  throw num::RootFindingError(error.context);
}

double LoadDistributionOptimizer::find_rate(const ResponseTimeObjective& obj, std::size_t i,
                                            double phi, long* evals) const {
  return find_rate_bracketed(obj, i, phi, 0.0, -1.0, evals);
}

double LoadDistributionOptimizer::find_rate_bracketed(const ResponseTimeObjective& obj,
                                                      std::size_t i, double phi, double lo,
                                                      double hi, long* evals) const {
  const OptimizerOptions& opts = solver_->options();
  detail::SolveBudget budget = detail::SolveBudget::from(opts);
  auto res = detail::find_rate_core(opts, obj, i, phi, lo, hi, evals, budget);
  if (!res) throw_solver_error(res.error());
  return res.value();
}

Expected<double> LoadDistributionOptimizer::try_find_rate(const ResponseTimeObjective& obj,
                                                          std::size_t i, double phi,
                                                          long* evals) const {
  return try_find_rate_bracketed(obj, i, phi, 0.0, -1.0, evals);
}

Expected<double> LoadDistributionOptimizer::try_find_rate_bracketed(
    const ResponseTimeObjective& obj, std::size_t i, double phi, double lo, double hi,
    long* evals) const {
  const OptimizerOptions& opts = solver_->options();
  detail::SolveBudget budget = detail::SolveBudget::from(opts);
  try {
    return detail::find_rate_core(opts, obj, i, phi, lo, hi, evals, budget);
  } catch (const std::exception& e) {
    return detail::make_solver_error(ErrorCode::Internal,
                                     std::string("find_rate: unexpected exception: ") + e.what());
  }
}

LoadDistribution LoadDistributionOptimizer::optimize(double lambda_total) const {
  // A fresh workspace per call keeps optimize() deterministic and
  // state-free; only callers that thread their own workspace opt into
  // cross-solve warm starts.
  SolverWorkspace ws;
  return optimize(lambda_total, ws);
}

LoadDistribution LoadDistributionOptimizer::optimize(double lambda_total,
                                                     SolverWorkspace& ws) const {
  return solver_->optimize(lambda_total, ws).dist;
}

Expected<LoadDistribution> LoadDistributionOptimizer::try_optimize(double lambda_total) const {
  SolverWorkspace ws;
  return try_optimize(lambda_total, ws);
}

Expected<LoadDistribution> LoadDistributionOptimizer::try_optimize(double lambda_total,
                                                                   SolverWorkspace& ws) const {
  auto res = solver_->try_optimize(lambda_total, ws);
  if (!res) return res.error();
  return std::move(res.value().dist);
}

}  // namespace blade::opt
