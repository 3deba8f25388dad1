#include "support/oracles.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/closed_form.hpp"
#include "support/discrete_dp.hpp"
#include "support/gradient_optimizer.hpp"
#include "core/kkt.hpp"
#include "numerics/special.hpp"
#include "sim/simulation.hpp"

namespace blade::testsupport {

std::vector<SolverRun> run_solver_paths(const model::Cluster& cluster, queue::Discipline d,
                                        double lambda, const OracleOptions& opts) {
  std::vector<SolverRun> runs;
  runs.push_back({"bisection", opt::LoadDistributionOptimizer(cluster, d).optimize(lambda)});

  if (opts.run_gradient) {
    runs.push_back({"gradient", opt::gradient_optimize(cluster, d, lambda).distribution});
  }
  if (opts.dp_units > 0) {
    const auto dp = opt::dp_distribution(cluster, d, lambda, opts.dp_units);
    opt::LoadDistribution as_dist;
    as_dist.rates = dp.rates;
    as_dist.response_time = dp.response_time;
    runs.push_back({"dp", std::move(as_dist)});
  }
  if (opts.run_closed_form && cluster.all_single_blade()) {
    runs.push_back({"closed_form", opt::closed_form_distribution(cluster, d, lambda)});
  }
  return runs;
}

opt::LoadDistribution seed_bisection_distribution(const model::Cluster& cluster,
                                                  queue::Discipline d, double lambda,
                                                  const opt::OptimizerOptions& oo) {
  // Transcribed from the original optimizer (pure bisection, no
  // derivatives, no warm starts). Do not "improve" this: its value is
  // being a frozen reference implementation of Fig. 2 + Fig. 3.
  const opt::ResponseTimeObjective obj(cluster, std::vector<queue::Discipline>(cluster.size(), d),
                                       lambda, oo.service_scv);
  const std::size_t n = obj.size();

  auto find_rate = [&](std::size_t i, double phi) {
    const double sup = obj.rate_bound(i);
    if (obj.marginal(i, 0.0) >= phi) return 0.0;
    const double hard_ub = (1.0 - oo.saturation_margin) * sup;
    double ub = std::min(hard_ub, 1e-3 * sup);
    int guard = 0;
    while (obj.marginal(i, ub) < phi) {
      if (ub >= hard_ub) return hard_ub;
      ub = std::min(2.0 * ub, hard_ub);
      if (++guard > 200) throw std::runtime_error("seed oracle: inner bracket failed");
    }
    double lb = 0.0;
    int it = 0;
    while (ub - lb > oo.rate_tolerance && it < oo.max_iterations) {
      const double mid = 0.5 * (lb + ub);
      (obj.marginal(i, mid) < phi ? lb : ub) = mid;
      ++it;
    }
    return 0.5 * (lb + ub);
  };
  auto rates_at = [&](double phi) {
    std::vector<double> rates(n);
    for (std::size_t i = 0; i < n; ++i) rates[i] = find_rate(i, phi);
    return rates;
  };
  auto total_of = [](const std::vector<double>& rates) {
    num::KahanSum s;
    for (double r : rates) s.add(r);
    return s.value();
  };

  double phi_ub = 1e-6;
  int expansions = 0;
  while (total_of(rates_at(phi_ub)) < lambda) {
    phi_ub *= 2.0;
    if (++expansions > 200) throw std::runtime_error("seed oracle: outer bracket failed");
  }
  double phi_lb = 0.0;
  int outer_it = 0;
  while (phi_ub - phi_lb > oo.phi_tolerance && outer_it < oo.max_iterations) {
    const double mid = 0.5 * (phi_lb + phi_ub);
    (total_of(rates_at(mid)) < lambda ? phi_lb : phi_ub) = mid;
    ++outer_it;
  }

  opt::LoadDistribution out;
  out.phi = phi_ub;
  out.outer_iterations = outer_it;
  out.rates = rates_at(phi_ub);
  double assigned = total_of(out.rates);
  if (assigned > lambda) {
    const std::vector<double> lo_rates = rates_at(phi_lb);
    const double lo_total = total_of(lo_rates);
    if (assigned - lo_total > oo.rate_tolerance) {
      const double t = std::clamp((lambda - lo_total) / (assigned - lo_total), 0.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        out.rates[i] = lo_rates[i] + t * (out.rates[i] - lo_rates[i]);
      }
      assigned = total_of(out.rates);
    }
  }
  if (assigned > 0.0) {
    const double scale = lambda / assigned;
    for (double& r : out.rates) r *= scale;
  }
  out.utilizations = obj.utilizations(out.rates);
  out.response_times.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.response_times[i] = obj.queue(i).generic_response_time(out.rates[i]);
  }
  out.response_time = obj.value(out.rates);
  return out;
}

std::string OracleReport::summary() const {
  std::ostringstream os;
  os << "paths:";
  for (const auto& p : paths_run) os << ' ' << p;
  os << '\n';
  if (!kkt_ok) os << "KKT: " << kkt_detail << '\n';
  os << comparisons.summary();
  return os.str();
}

OracleReport cross_check(const model::Cluster& cluster, queue::Discipline d, double lambda,
                         const OracleOptions& opts) {
  OracleReport rep;
  const auto runs = run_solver_paths(cluster, d, lambda, opts);
  for (const auto& r : runs) rep.paths_run.push_back(r.name);
  const auto& bis = runs.front().dist;

  const auto kkt = opt::verify_kkt(cluster, d, lambda, bis.rates, opts.kkt_tolerance);
  rep.kkt_ok = kkt.optimal();
  rep.kkt_detail = kkt.detail;

  for (std::size_t k = 1; k < runs.size(); ++k) {
    const auto& run = runs[k];
    if (run.name == "dp") {
      // Grid optimum: may only exceed the continuous one, and not by
      // more than the grid's resolution allows.
      if (run.dist.response_time < bis.response_time * (1.0 - opts.dp_undershoot_rel)) {
        rep.comparisons.mismatches.push_back(
            {"dp undershoots bisection", run.dist.response_time, bis.response_time,
             relative_error(run.dist.response_time, bis.response_time)});
      }
      if (run.dist.response_time > bis.response_time * (1.0 + opts.dp_excess_rel)) {
        rep.comparisons.mismatches.push_back(
            {"dp exceeds bisection beyond grid slack", run.dist.response_time, bis.response_time,
             relative_error(run.dist.response_time, bis.response_time)});
      }
      continue;
    }
    const Tolerance& value_tol =
        run.name == "gradient" ? opts.gradient_agreement : opts.closed_form_agreement;
    rep.comparisons.check(run.name + " T'", run.dist.response_time, bis.response_time, value_tol);
    auto rates = compare_vectors(run.name + " rates", run.dist.rates, bis.rates,
                                 opts.rate_agreement);
    rep.comparisons.mismatches.insert(rep.comparisons.mismatches.end(),
                                      rates.mismatches.begin(), rates.mismatches.end());
  }
  return rep;
}

CompareReport sim_cross_check(const model::Cluster& cluster, queue::Discipline d,
                              const std::vector<double>& rates, double expected_response,
                              int replications, double horizon, double warmup,
                              double rel_slack) {
  sim::SimConfig cfg;
  cfg.horizon = horizon;
  cfg.warmup = warmup;
  const auto mode = sim::to_mode(d);
  const auto result = sim::replicate(
      [&](const sim::SimConfig& c) { return sim::simulate_split(cluster, rates, mode, c); }, cfg,
      replications);

  CompareReport rep;
  const double slack =
      std::max(3.0 * result.generic_response.half_width, rel_slack * expected_response);
  rep.check("simulated T'", result.generic_response.mean, expected_response,
            Tolerance{0.0, slack});
  return rep;
}

}  // namespace blade::testsupport
