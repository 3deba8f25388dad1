#include "support/discrete_dp.hpp"

#include <limits>
#include <stdexcept>

#include "core/objective.hpp"

namespace blade::opt {

DpResult dp_distribution(const model::Cluster& cluster, queue::Discipline d, double lambda_total,
                         std::size_t units) {
  if (units < 2) throw std::invalid_argument("dp_distribution: need >= 2 units");
  if (!(lambda_total > 0.0) || lambda_total >= cluster.max_generic_rate()) {
    throw std::invalid_argument("dp_distribution: infeasible lambda'");
  }
  const ResponseTimeObjective obj(cluster, d, lambda_total);
  const std::size_t n = obj.size();
  const double delta = lambda_total / static_cast<double>(units);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // cost[i][u] = (u delta) * T'_i(u delta), infinity beyond saturation.
  std::vector<std::vector<double>> cost(n, std::vector<double>(units + 1, kInf));
  for (std::size_t i = 0; i < n; ++i) {
    const double bound = 0.999999 * obj.rate_bound(i);
    for (std::size_t u = 0; u <= units; ++u) {
      const double lam = static_cast<double>(u) * delta;
      if (lam >= bound) break;
      cost[i][u] = lam * obj.queue(i).generic_response_time(lam);
    }
  }

  // f[j] after considering servers 0..i: min cost of assigning j units.
  std::vector<double> f(units + 1, kInf);
  std::vector<std::vector<std::size_t>> choice(n, std::vector<std::size_t>(units + 1, 0));
  for (std::size_t u = 0; u <= units; ++u) f[u] = cost[0][u];
  for (std::size_t u = 0; u <= units; ++u) choice[0][u] = u;

  std::vector<double> g(units + 1);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j <= units; ++j) {
      double best = kInf;
      std::size_t best_u = 0;
      for (std::size_t u = 0; u <= j; ++u) {
        if (cost[i][u] == kInf) break;  // larger u only gets worse
        const double prev = f[j - u];
        if (prev == kInf) continue;
        const double val = prev + cost[i][u];
        if (val < best) {
          best = val;
          best_u = u;
        }
      }
      g[j] = best;
      choice[i][j] = best_u;
    }
    f.swap(g);
  }
  if (f[units] == kInf) {
    throw std::invalid_argument("dp_distribution: no feasible discrete assignment");
  }

  DpResult res;
  res.units = units;
  res.rates.assign(n, 0.0);
  std::size_t remaining = units;
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t u = choice[i][remaining];
    res.rates[i] = static_cast<double>(u) * delta;
    remaining -= u;
  }
  res.response_time = obj.value(res.rates);
  return res;
}

}  // namespace blade::opt
