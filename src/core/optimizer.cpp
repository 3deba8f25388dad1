#include "core/optimizer.hpp"

#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/solver_core.hpp"
#include "numerics/roots.hpp"
#include "numerics/special.hpp"
#include "obs/obs.hpp"

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

LoadDistributionOptimizer::LoadDistributionOptimizer(model::Cluster cluster, queue::Discipline d,
                                                     OptimizerOptions opts)
    : LoadDistributionOptimizer(
          model::Cluster(cluster),  // delegate with a uniform discipline vector
          std::vector<queue::Discipline>(cluster.size(), d), opts) {}

LoadDistributionOptimizer::LoadDistributionOptimizer(model::Cluster cluster,
                                                     std::vector<queue::Discipline> ds,
                                                     OptimizerOptions opts)
    : cluster_(std::move(cluster)), discs_(std::move(ds)), opts_(opts) {
  if (discs_.size() != cluster_.size()) {
    throw std::invalid_argument("LoadDistributionOptimizer: discipline vector size mismatch");
  }
  opts_.validate();
}

void SolverWorkspace::clear() {
  prepare(0);
  rates_lo_.clear();
  rates_hi_.clear();
  scratch_.clear();
  newton_ = detail::NewtonState{};
  seed_phi_ = -1.0;
}

void SolverWorkspace::warm_start(std::span<const double> rates) {
  if (!(seed_phi_ > 0.0)) return;  // no previous solve: stays cold
  newton_.x.assign(rates.begin(), rates.end());
}

void SolverWorkspace::prepare(std::size_t n) {
  // Rates at phi = 0 are identically zero (every g_i(0) > 0), so the lower
  // end of the outer bracket starts valid without any evaluation.
  br_ = detail::PhiBracket{};
  rates_lo_.assign(n, 0.0);
  rates_hi_.assign(n, 0.0);
  scratch_.assign(n, 0.0);
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
  detail::SolveBudget budget = detail::SolveBudget::from(opts_);
  auto res = detail::find_rate_core(opts_, obj, i, phi, lo, hi, evals, budget);
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
  detail::SolveBudget budget = detail::SolveBudget::from(opts_);
  try {
    return detail::find_rate_core(opts_, obj, i, phi, lo, hi, evals, budget);
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
  auto res = optimize_core(lambda_total, ws);
  if (!res) throw_solver_error(res.error());
  return std::move(res).value();
}

Expected<LoadDistribution> LoadDistributionOptimizer::try_optimize(double lambda_total) const {
  SolverWorkspace ws;
  return try_optimize(lambda_total, ws);
}

Expected<LoadDistribution> LoadDistributionOptimizer::try_optimize(double lambda_total,
                                                                   SolverWorkspace& ws) const {
  try {
    return optimize_core(lambda_total, ws);
  } catch (const std::exception& e) {
    // The numeric core returns its own failures as typed errors; anything
    // thrown past it (queueing-layer domain checks on a corrupted
    // instance, for example) is converted here so the no-throw contract
    // of the try_ path holds.
    return detail::make_solver_error(ErrorCode::Internal,
                                     std::string("optimize: unexpected exception: ") + e.what());
  }
}

Expected<LoadDistribution> LoadDistributionOptimizer::optimize_core(double lambda_total,
                                                                    SolverWorkspace& ws) const {
  const double lambda_max = cluster_.max_generic_rate();
  BLADE_OBS_EVENT(SolveStart, 0, lambda_total, lambda_max, 0.0);
  if (!(lambda_total > 0.0)) {
    BLADE_OBS_EVENT(SolveEnd, ErrorCode::InvalidArgument, 0.0, 0.0, 0.0);
    return detail::make_solver_error(ErrorCode::InvalidArgument, "optimize: lambda' must be > 0");
  }
  if (lambda_total >= lambda_max) {
    std::ostringstream os;
    os << std::setprecision(10) << "optimize: lambda'=" << lambda_total
       << " >= lambda'_max=" << lambda_max << " (infeasible)";
    BLADE_OBS_EVENT(SolveEnd, ErrorCode::Infeasible, 0.0, 0.0, 0.0);
    return detail::make_solver_error(ErrorCode::Infeasible, os.str());
  }

  BLADE_OBS_SPAN("optimize");
  BLADE_OBS_TIMER("optimizer.solve_seconds");
  BLADE_OBS_COUNT("optimizer.solves");

  const ResponseTimeObjective obj(cluster_, discs_, lambda_total, opts_.service_scv);
  const std::size_t n = obj.size();
  long inner_evals = 0;
  const double tol = opts_.rate_tolerance;
  detail::SolveBudget budget = detail::SolveBudget::from(opts_);
  ws.prepare(n);

  // F(phi) = sum_i lambda'_i(phi), evaluated into ws.scratch_. Each inner
  // solve warm-starts from the monotone bracket the workspace has
  // accumulated: F_i is increasing in phi, so for any phi inside
  // [phi_lo, phi_hi] server i's rate lies in [rate_lo_i, rate_hi_i]
  // (widened by the inner tolerance to absorb endpoint fuzz). A failed
  // inner solve parks its error in `err`; every call site checks before
  // using the total.
  std::optional<Error> err;
  auto total_at = [&](double phi) -> double {
    const bool use_lo = phi >= ws.br_.phi_lo;
    const bool use_hi = ws.br_.phi_hi >= 0.0 && phi <= ws.br_.phi_hi;
    num::KahanSum f;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = use_lo ? ws.rates_lo_[i] - tol : 0.0;
      const double hi = use_hi ? ws.rates_hi_[i] + tol : -1.0;
      auto r = detail::find_rate_core(opts_, obj, i, phi, lo, hi, &inner_evals, budget);
      if (!r) {
        err = r.error();
        return std::numeric_limits<double>::quiet_NaN();
      }
      ws.scratch_[i] = r.value();
      f.add(r.value());
    }
    return f.value();
  };
  // Fold an evaluation into the workspace bracket. Only monotone
  // improvements are kept (phi_lo only moves up, phi_hi only moves
  // down), so out-of-order evaluations cannot loosen an established end.
  auto absorb = [&](double phi, double total) {
    if (total < lambda_total) {
      if (phi >= ws.br_.phi_lo) {
        ws.br_.phi_lo = phi;
        ws.br_.total_lo = total;
        ws.rates_lo_.swap(ws.scratch_);
      }
    } else if (ws.br_.phi_hi < 0.0 || phi <= ws.br_.phi_hi) {
      ws.br_.phi_hi = phi;
      ws.br_.total_hi = total;
      ws.rates_hi_.swap(ws.scratch_);
    }
  };

  // Warm when the workspace holds a previous solve: joint Newton from its
  // rates, one entry per server. Rates of another length are not read.
  double warm_phi = 0.0;
  auto warm_solve = [&]() -> Expected<int> {
    detail::NewtonState& s = ws.newton_;
    if (s.x.size() != n) s.x.assign(n, std::numeric_limits<double>::quiet_NaN());
    s.weight.assign(n, 1.0);
    s.hub.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.hub[i] = (1.0 - opts_.saturation_margin) * obj.rate_bound(i);
    }
    auto eval_at = [&](const std::vector<double>& x, std::vector<double>& g,
                       std::vector<double>& dg) -> std::optional<Error> {
      for (std::size_t i = 0; i < n; ++i) {
        if (auto e = budget.charge()) return e;
        ++inner_evals;
        std::tie(g[i], dg[i]) = obj.marginal_with_derivative(i, x[i]);
      }
      return std::nullopt;
    };
    auto exact_at = [&](std::size_t i, double phi, double lo, double hi) {
      return detail::find_rate_core(opts_, obj, i, phi, lo, hi, &inner_evals, budget);
    };
    return detail::joint_newton(opts_, lambda_total, s, warm_phi, eval_at, exact_at);
  };
  auto restart = [&] {
    ws.prepare(n);
    budget = detail::SolveBudget::from(opts_);
  };
  bool warm = ws.seed_phi_ > 0.0;
  auto search = detail::run_phi_search(opts_, lambda_total, lambda_max, warm, ws.br_, err,
                                       warm_solve, total_at, absorb, restart);
  if (!search) {
    BLADE_OBS_EVENT(SolveEnd, search.error().code, 0.0, 0.0, inner_evals);
    return search.error();
  }
  const int outer_it = search.value();

  LoadDistribution out;
  out.outer_iterations = outer_it;
  if (warm) {
    out.phi = warm_phi;
    out.rates = ws.newton_.x;
    detail::rescale_to(out.rates, detail::rate_total(out.rates), lambda_total);
  } else {
    // Final rates from BOTH bracket ends -- the rate vectors cached in the
    // workspace from the last accepted outer iterates, so no re-solve is
    // needed (see extract_rates for why midpoint-only extraction is
    // unsafe on step-like F).
    out.phi = ws.br_.phi_hi;
    out.rates = ws.rates_hi_;
    detail::extract_rates(ws.br_, ws.rates_lo_, out.rates, lambda_total, opts_.rate_tolerance);
  }

  // The next solve on this workspace starts from this one.
  ws.seed_phi_ = out.phi;
  ws.newton_.x = out.rates;

  out.inner_evaluations = inner_evals;
  out.utilizations = obj.utilizations(out.rates);
  out.response_times.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.response_times[i] = obj.queue(i).generic_response_time(out.rates[i]);
  }
  out.response_time = detail::mean_response_time(
      out.rates, lambda_total, [&](std::size_t i) { return out.response_times[i]; });

  BLADE_OBS_COUNT_N("optimizer.outer_iterations", outer_it);
  BLADE_OBS_COUNT_N("optimizer.inner_evaluations", inner_evals);
  BLADE_OBS_EVENT(SolveEnd, ErrorCode::Ok, out.phi, outer_it, inner_evals);

  if (opts_.verbosity >= 1) {
    const std::string line = out.summary();
    if (opts_.diagnostic_sink) {
      opts_.diagnostic_sink(line);
    } else {
      std::clog << line << '\n';
    }
  }
  return out;
}

}  // namespace blade::opt
