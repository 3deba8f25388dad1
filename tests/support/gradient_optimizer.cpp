#include "support/gradient_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/special.hpp"

namespace blade::opt {

std::vector<double> project_capped_simplex(const std::vector<double>& v,
                                           const std::vector<double>& ub, double target) {
  if (v.size() != ub.size()) {
    throw std::invalid_argument("project_capped_simplex: size mismatch");
  }
  double cap = 0.0;
  for (double u : ub) {
    if (!(u >= 0.0)) throw std::invalid_argument("project_capped_simplex: negative bound");
    cap += u;
  }
  if (cap < target) {
    throw std::invalid_argument("project_capped_simplex: bounds cannot carry the target mass");
  }

  auto assigned = [&](double tau) {
    num::KahanSum s;
    for (std::size_t i = 0; i < v.size(); ++i) {
      s.add(std::clamp(v[i] - tau, 0.0, ub[i]));
    }
    return s.value();
  };

  // assigned(tau) is nonincreasing; bracket tau.
  double lo = 0.0;
  double hi = 0.0;
  for (double x : v) {
    lo = std::min(lo, x - 1.0);
    hi = std::max(hi, x);
  }
  lo -= 1.0;  // assigned(lo) >= target guaranteed only after widening
  while (assigned(lo) < target) lo -= std::max(1.0, hi - lo);
  while (assigned(hi) > target) hi += std::max(1.0, hi - lo);

  for (int it = 0; it < 200 && hi - lo > 1e-15 * std::max(1.0, std::abs(hi)); ++it) {
    const double mid = 0.5 * (lo + hi);
    if (assigned(mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double tau = 0.5 * (lo + hi);
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::clamp(v[i] - tau, 0.0, ub[i]);
  // Push the residual rounding error onto an interior coordinate.
  num::KahanSum s;
  for (double x : out) s.add(x);
  double residual = target - s.value();
  for (std::size_t i = 0; i < out.size() && residual != 0.0; ++i) {
    const double room_up = ub[i] - out[i];
    const double delta = std::clamp(residual, -out[i], room_up);
    out[i] += delta;
    residual -= delta;
  }
  return out;
}

GradientResult gradient_optimize(const model::Cluster& cluster, queue::Discipline d,
                                 double lambda_total, const GradientOptions& opts) {
  const ResponseTimeObjective obj(cluster, d, lambda_total);
  const std::size_t n = obj.size();

  std::vector<double> ub(n);
  for (std::size_t i = 0; i < n; ++i) ub[i] = (1.0 - opts.saturation_margin) * obj.rate_bound(i);

  // Feasible start: proportional to free capacity.
  std::vector<double> x(n);
  {
    double cap = 0.0;
    for (double u : ub) cap += u;
    for (std::size_t i = 0; i < n; ++i) x[i] = lambda_total * ub[i] / cap;
  }

  double fx = obj.value(x);
  double step = opts.initial_step;
  GradientResult res;
  for (int it = 0; it < opts.max_iterations; ++it) {
    const auto g = obj.gradient(x);
    // Backtracking projected step.
    bool improved = false;
    for (int bt = 0; bt < 60; ++bt) {
      std::vector<double> trial(n);
      for (std::size_t i = 0; i < n; ++i) trial[i] = x[i] - step * g[i];
      trial = project_capped_simplex(trial, ub, lambda_total);
      const double ft = obj.value(trial);
      if (ft < fx) {
        const double gain = fx - ft;
        x = std::move(trial);
        fx = ft;
        improved = true;
        step *= 1.5;  // allow the step to grow again after a success
        res.iterations = it + 1;
        if (gain < opts.tolerance) {
          res.converged = true;
        }
        break;
      }
      step *= 0.5;
    }
    if (!improved) {
      res.converged = true;  // no descent direction within step limits
      res.iterations = it + 1;
      break;
    }
    if (res.converged) break;
  }

  res.distribution.rates = x;
  res.distribution.response_time = fx;
  res.distribution.utilizations = obj.utilizations(x);
  res.distribution.response_times.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.distribution.response_times[i] = obj.queue(i).generic_response_time(x[i]);
  }
  // Report the mean active marginal as the multiplier estimate.
  num::KahanSum phi;
  int actives = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > 1e-9 * lambda_total) {
      phi.add(obj.marginal(i, x[i]));
      ++actives;
    }
  }
  if (actives > 0) res.distribution.phi = phi.value() / actives;
  return res;
}

}  // namespace blade::opt
