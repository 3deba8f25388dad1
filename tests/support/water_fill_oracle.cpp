#include "support/water_fill_oracle.hpp"

#include <algorithm>
#include <cmath>

namespace blade::testsupport {

Expected<opt::detail::WaterFill> water_fill_sorted_afresh(double lambda_total,
                                                          opt::detail::NewtonState& s) {
  const std::size_t n = s.x.size();
  auto slope = [&](std::size_t i) { return s.weight[i] / s.dg[i]; };  // m_i/g'_i
  double loaded_slope = 0.0;  // the flattest loaded entry's
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(s.g[i])) return opt::detail::non_finite_marginal_error(i, s.x[i], s.g[i]);
    if (s.x[i] == 0.0) continue;
    if (!(s.dg[i] > 0.0) || !std::isfinite(slope(i))) {
      return Error{ErrorCode::NonConvergence, "optimize: no marginal slope at a loaded entry"};
    }
    loaded_slope = std::max(loaded_slope, slope(i));
  }
  if (loaded_slope == 0.0) return Error{ErrorCode::NonConvergence, "optimize: no loaded entry"};
  // Sorted as (breakpoint, index) pairs, each breakpoint computed once.
  s.keyed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double least = s.weight[i] / loaded_slope;
    if (s.x[i] == 0.0 && !(s.dg[i] >= least && std::isfinite(s.dg[i]))) s.dg[i] = least;
    s.keyed[i] = {s.g[i] - s.dg[i] * s.x[i], i};
  }
  std::sort(s.keyed.begin(), s.keyed.end());
  s.order.resize(n);
  for (std::size_t k = 0; k < n; ++k) s.order[k] = s.keyed[k].second;

  num::KahanSum wg;
  num::KahanSum mx;
  num::KahanSum w;
  opt::detail::WaterFill fill;
  fill.flattest = s.order.front();
  while (fill.active < n) {
    const std::size_t i = s.order[fill.active++];
    wg.add(slope(i) * s.g[i]);
    mx.add(s.weight[i] * s.x[i]);
    w.add(slope(i));
    if (slope(i) > slope(fill.flattest)) fill.flattest = i;
    fill.phi = (wg.value() + (lambda_total - mx.value())) / w.value();
    if (fill.active < n && s.keyed[fill.active].first >= fill.phi) break;
  }
  return fill;
}

}  // namespace blade::testsupport
