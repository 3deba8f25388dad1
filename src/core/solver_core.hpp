// Numeric core of the load-distribution solve. Cold, the paper's nested
// search: the inner rate solve (Fig. 2 with the rtsafe Newton loop), the
// outer phi search (doubling expansion, then Brent and a polish that
// closes the bracket from its nearer end), and the bracket-end rate
// extraction. Warm, from the previous solve's rates: one joint Newton
// iteration over the whole KKT system, with the cold search as its
// fallback inside the same call. ShardedOptimizer (core/sharded.hpp)
// drives it at every cell count, assembling F(phi) and the per-class
// marginals; the inner solve also backs LoadDistributionOptimizer's
// find_rate test hooks.
//
// Everything here is an implementation detail (namespace opt::detail);
// the stable surfaces are LoadDistributionOptimizer and ShardedOptimizer.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.hpp"
#include "numerics/special.hpp"
#include "obs/obs.hpp"
#include "util/status.hpp"

namespace blade::opt::detail {

/// Builds the typed error AND bumps the matching observability counter,
/// so every failure — thrown or returned — is visible in --metrics-out.
inline Error make_solver_error(ErrorCode code, std::string context) {
  switch (code) {
    case ErrorCode::InvalidArgument:
      BLADE_OBS_COUNT("solver.failures.invalid_argument");
      break;
    case ErrorCode::Infeasible:
      BLADE_OBS_COUNT("solver.failures.infeasible");
      break;
    case ErrorCode::BracketNotFound:
      BLADE_OBS_COUNT("solver.failures.bracket_not_found");
      break;
    case ErrorCode::NonConvergence:
      BLADE_OBS_COUNT("solver.failures.non_convergence");
      break;
    case ErrorCode::NonFinite:
      BLADE_OBS_COUNT("solver.failures.non_finite");
      break;
    case ErrorCode::BudgetExceeded:
      BLADE_OBS_COUNT("solver.budget_exceeded");
      // A tripped watchdog is a flight-recorder moment: record it and
      // snapshot every ring so the dump's tail explains what the solver
      // was doing when the budget ran out.
      BLADE_OBS_EVENT(WatchdogTrip, ErrorCode::BudgetExceeded, 0.0, 0.0, 0.0);
      BLADE_OBS_DUMP("watchdog");
      break;
    default:
      BLADE_OBS_COUNT("solver.failures.internal");
      break;
  }
  return Error{code, std::move(context)};
}

/// Per-solve watchdog state shared by every inner solve of one optimize
/// call: a marginal-evaluation counter and (when armed) a wall-clock
/// deadline. The clock is only read every 16th evaluation, so an armed
/// time budget costs a fraction of one Erlang kernel per check. A
/// default-constructed budget (max_evals = 0, untimed) never trips — a
/// multi-cell solve hands one to each cell and enforces the user's
/// budgets itself, between outer probes.
struct SolveBudget {
  long max_evals = 0;
  bool timed = false;
  double max_seconds = 0.0;
  std::chrono::steady_clock::time_point deadline{};
  long used = 0;

  static SolveBudget from(const OptimizerOptions& opts) {
    SolveBudget b;
    b.max_evals = opts.max_marginal_evaluations;
    if (opts.max_solve_seconds > 0.0) {
      b.timed = true;
      b.max_seconds = opts.max_solve_seconds;
      b.deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(opts.max_solve_seconds));
    }
    return b;
  }

  /// Accounts one marginal evaluation; the BudgetExceeded error when a
  /// watchdog trips, nullopt otherwise.
  std::optional<Error> charge() {
    ++used;
    if (max_evals > 0 && used > max_evals) {
      std::ostringstream os;
      os << "optimize: marginal-evaluation budget exceeded (max_marginal_evaluations="
         << max_evals << ")";
      return make_solver_error(ErrorCode::BudgetExceeded, os.str());
    }
    if (timed && (used & 15) == 0 && std::chrono::steady_clock::now() > deadline) {
      std::ostringstream os;
      os << "optimize: wall-time budget exceeded (max_solve_seconds=" << max_seconds << ")";
      return make_solver_error(ErrorCode::BudgetExceeded, os.str());
    }
    return std::nullopt;
  }
};

/// The inner solves' typed failures, shared by the cold and warm paths.
inline Error non_finite_bound_error(std::size_t i) {
  std::ostringstream os;
  os << std::setprecision(10) << "find_rate: non-finite rate bound for server " << i;
  return make_solver_error(ErrorCode::NonFinite, os.str());
}

inline Error non_finite_marginal_error(std::size_t i, double rate, double g) {
  std::ostringstream os;
  os << std::setprecision(10) << "find_rate: non-finite marginal g_" << i << "(" << rate
     << ") = " << g;
  return make_solver_error(ErrorCode::NonFinite, os.str());
}

inline Error non_convergence_error(std::size_t i, double width, int max_iterations) {
  std::ostringstream os;
  os << std::setprecision(10) << "find_rate: lambda'_" << i << " bracket still " << width
     << " wide after max_iterations=" << max_iterations;
  return make_solver_error(ErrorCode::NonConvergence, os.str());
}

/// The non-throwing inner solve (Fig. 2 with the rtsafe Newton loop).
/// The failure exits (bracket exhaustion, NaN marginals, budget, strict
/// non-convergence) return typed errors instead of throwing.
///
/// `Obj` is any objective exposing rate_bound(i), marginal(i, rate), and
/// marginal_with_derivative(i, rate) — the solver's per-cell objective
/// (global-lambda' marginal scaling over a cell's class queues), or
/// ResponseTimeObjective in the find_rate test hooks.
template <class Obj>
Expected<double> find_rate_core(const OptimizerOptions& opts, const Obj& obj, std::size_t i,
                                double phi, double lo, double hi, long* evals,
                                SolveBudget& budget) {
  const double sup = obj.rate_bound(i);
  if (!std::isfinite(sup)) return non_finite_bound_error(i);
  const double hard_ub = (1.0 - opts.saturation_margin) * sup;
  const double tol = opts.rate_tolerance;
  lo = std::clamp(lo, 0.0, hard_ub);
  const bool have_hi = hi >= 0.0;
  if (have_hi) hi = std::clamp(hi, lo, hard_ub);

  // Collapsed warm bracket: the outer bracket already pins this server's
  // rate to within the solver tolerance — no evaluation needed at all.
  if (have_hi && hi - lo <= tol) {
    BLADE_OBS_COUNT("optimizer.warm_bracket_hits");
    return 0.5 * (lo + hi);
  }

  std::optional<Error> err;
  auto g_at = [&](double lam) -> double {
    if (auto e = budget.charge()) {
      err = std::move(e);
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (evals) ++*evals;
    const double g = obj.marginal(i, lam);
    if (!std::isfinite(g)) {
      err = non_finite_marginal_error(i, lam, g);
      return std::numeric_limits<double>::quiet_NaN();
    }
    return g;
  };

  // Inactive server: even the first infinitesimal unit of load costs more
  // than phi (paper: the bisection bracket collapses onto lb = 0). From a
  // warm bracket this is the root sitting at/below the cached lower end.
  double glo = g_at(lo);
  if (err) return std::move(*err);
  if (glo >= phi) return lo;

  double ghi;
  if (have_hi) {
    ghi = g_at(hi);
    if (err) return std::move(*err);
    if (ghi < phi) {
      if (hi >= hard_ub) {
        BLADE_OBS_COUNT("optimizer.saturation_clamps");
        return hard_ub;  // saturated at this phi
      }
      // The warm upper end undershot (only possible by the tolerance fuzz
      // of the cached endpoint); resume the Fig. 2 doubling from there.
      lo = hi;
      glo = ghi;
      hi = -1.0;
    }
  }
  if (hi < 0.0) {
    // Cold upper bound: expand by doubling until g(ub) >= phi, clamping
    // at the saturation guard exactly as lines (4)-(8) of Fig. 2. The
    // last undershooting probe becomes the Newton lower end, so no
    // evaluation is repeated.
    double ub = std::min(hard_ub, std::max(1e-3 * sup, 2.0 * lo));
    int guard = 0;
    double gub = g_at(ub);
    if (err) return std::move(*err);
    while (gub < phi) {
      if (ub >= hard_ub) {
        BLADE_OBS_COUNT("optimizer.saturation_clamps");
        return hard_ub;  // saturated at this phi
      }
      lo = ub;
      glo = gub;
      ub = std::min(2.0 * ub, hard_ub);
      if (++guard > 200) {
        std::ostringstream os;
        os << std::setprecision(10) << "find_rate: failed to bracket lambda'_" << i
           << " (phi=" << phi << ", sup=" << sup << ", ub=" << ub << " after " << guard
           << " doublings)";
        return make_solver_error(ErrorCode::BracketNotFound, os.str());
      }
      gub = g_at(ub);
      if (err) return std::move(*err);
    }
    hi = ub;
    ghi = gub;
  }

  // Safeguarded Newton on g(x) = phi over [lo, hi] (rtsafe-style): take
  // the Newton step when it stays inside the bracket and at least halves
  // the previous step, otherwise bisect — superlinear near the root,
  // never slower than bisection. One derivative-returning marginal
  // evaluation (a single Erlang kernel) per iteration.
  //
  // The loop stops as soon as an evaluation's own Newton correction
  // |(g - phi)/g'| is within half the tolerance, at the Newton point
  // clamped to the bracket. That test comes before the bracket check on
  // the next iterate: an evaluation within an ulp of the root has a
  // Newton step below one ulp, so the next iterate equals x, which that
  // evaluation just made a bracket end. The bracket check would reject
  // it and bisect toward the far end, and every later Newton step would
  // land on the same end again, crawling down to the tolerance.
  double x = 0.5 * (lo + hi);
  double dx_old = hi - lo;
  double dx = dx_old;
  double result = x;
  bool converged = false;
  int it = 0;
  for (; it < opts.max_iterations; ++it) {
    if (auto e = budget.charge()) return std::move(*e);
    if (evals) ++*evals;
    const auto [gx, dgx] = obj.marginal_with_derivative(i, x);
    if (!std::isfinite(gx)) return non_finite_marginal_error(i, x, gx);
    const double fx = gx - phi;
    if (fx == 0.0) {
      result = x;
      converged = true;
      break;
    }
    if (fx < 0.0) {
      lo = x;
    } else {
      hi = x;
    }
    const bool newton_ok = dgx > 0.0 && std::isfinite(dgx);
    const double step = newton_ok ? fx / dgx : std::numeric_limits<double>::infinity();
    if (std::abs(step) <= 0.5 * tol) {
      result = std::clamp(x - step, lo, hi);
      ++it;
      converged = true;
      break;
    }
    if (hi - lo <= tol) {
      result = 0.5 * (lo + hi);
      converged = true;
      break;
    }
    const double newton = x - step;
    double next;
    if (!newton_ok || 2.0 * std::abs(fx) > std::abs(dx_old * dgx) ||
        !(newton > lo && newton < hi)) {
      dx_old = dx;
      dx = 0.5 * (hi - lo);
      next = 0.5 * (lo + hi);
    } else {
      dx_old = dx;
      dx = std::abs(newton - x);
      next = newton;
    }
    result = next;
    x = next;
  }
  BLADE_OBS_COUNT("optimizer.find_rate_calls");
  BLADE_OBS_OBSERVE("optimizer.inner_iterations", it);
  if (!converged && opts.strict_convergence && hi - lo > tol) {
    return non_convergence_error(i, hi - lo, opts.max_iterations);
  }
  return result;
}

/// Sorts (breakpoint, entry) pairs that arrive in the order the last
/// water-fill left them: an insertion sort, O(n + shifts) on the nearly
/// sorted keys of successive rounds and solves. (b_i, i) is a total order
/// (a breakpoint is finite or -inf), so the permutation is std::sort's. A
/// carried order that needs more than n ceil(log2 n) shifts is not nearly
/// sorted, and std::sort takes over.
inline void sort_from_carried(std::vector<std::pair<double, std::size_t>>& keyed) {
  const std::size_t n = keyed.size();
  if (n < 2) return;
  const auto budget = n * static_cast<std::size_t>(std::bit_width(n - 1));
  // The pairs' operator<, spelled out: the synthesized three-way form
  // compiles to slower code.
  auto before = [](const auto& a, const auto& b) {
    return a.first < b.first || (a.first == b.first && a.second < b.second);
  };
  std::size_t shifts = 0;
  for (std::size_t k = 1; k < n; ++k) {
    const auto key = keyed[k];
    std::size_t j = k;
    for (; j > 0 && before(key, keyed[j - 1]); --j) keyed[j] = keyed[j - 1];
    keyed[j] = key;
    shifts += k - j;
    if (shifts > budget) {
      std::sort(keyed.begin(), keyed.end());
      return;
    }
  }
}

/// One Newton round's linear model, the water-fill. With g_i and g'_i
/// evaluated at s.x, phi' is the exact root of
/// sum_i m_i max(0, x_i + (phi - g_i)/g'_i) = lambda', found by
/// water-filling over the breakpoints b_i = g_i - g'_i x_i. An idle
/// entry's slope m_i/g'_i is capped at the flattest loaded entry's (its
/// tangent at zero can be almost flat, or flat, and would pin phi' at its
/// breakpoint, far below the loaded entries' multiplier), so s.dg leaves
/// holding the round's g'_i and s.slope their m_i/g'_i. s.keyed leaves
/// sorted, the next water-fill's starting order, and s.order[0, active)
/// is the active set, cheapest breakpoint first. A typed error when a
/// marginal is not finite, a loaded entry has no slope, or no entry is
/// loaded; s.keyed is then left as it was.
struct WaterFill {
  double phi = 0.0;          ///< phi', the round's multiplier
  std::size_t active = 0;    ///< s.order[0, active) step
  std::size_t flattest = 0;  ///< the active entry of largest slope m_i/g'_i
};

inline Expected<WaterFill> water_fill(double lambda_total, NewtonState& s) {
  const std::size_t n = s.x.size();
  s.slope.resize(n);
  double loaded_slope = 0.0;  // the flattest loaded entry's
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(s.g[i])) return non_finite_marginal_error(i, s.x[i], s.g[i]);
    if (s.x[i] == 0.0) continue;
    s.slope[i] = s.weight[i] / s.dg[i];
    if (!(s.dg[i] > 0.0) || !std::isfinite(s.slope[i])) {
      return Error{ErrorCode::NonConvergence, "optimize: no marginal slope at a loaded entry"};
    }
    loaded_slope = std::max(loaded_slope, s.slope[i]);
  }
  if (loaded_slope == 0.0) return Error{ErrorCode::NonConvergence, "optimize: no loaded entry"};
  for (std::size_t i = 0; i < n; ++i) {
    if (s.x[i] != 0.0) continue;
    const double least = s.weight[i] / loaded_slope;
    if (!(s.dg[i] >= least && std::isfinite(s.dg[i]))) s.dg[i] = least;
    s.slope[i] = s.weight[i] / s.dg[i];
  }
  // Each breakpoint computed once, in the carried order; a state whose
  // entry count changed carries none.
  auto breakpoint = [&](std::size_t i) { return s.g[i] - s.dg[i] * s.x[i]; };
  if (s.keyed.size() == n) {
    for (auto& [b, i] : s.keyed) b = breakpoint(i);
    sort_from_carried(s.keyed);
  } else {
    s.keyed.resize(n);
    for (std::size_t i = 0; i < n; ++i) s.keyed[i] = {breakpoint(i), i};
    std::sort(s.keyed.begin(), s.keyed.end());
  }

  // Over the k cheapest breakpoints the linearized total is
  // sum m_i x_i + sum (m_i/g'_i)(phi - g_i), so its root is
  // (sum (m_i/g'_i) g_i + lambda' - sum m_i x_i) / sum m_i/g'_i; the
  // active set grows until the next breakpoint lies at or above it.
  num::KahanSum wg;
  num::KahanSum mx;
  num::KahanSum w;
  WaterFill fill;
  s.order.resize(n);
  fill.flattest = s.keyed.front().second;
  while (fill.active < n) {
    const std::size_t i = s.keyed[fill.active].second;
    s.order[fill.active++] = i;
    wg.add(s.slope[i] * s.g[i]);
    mx.add(s.weight[i] * s.x[i]);
    w.add(s.slope[i]);
    if (s.slope[i] > s.slope[fill.flattest]) fill.flattest = i;
    fill.phi = (wg.value() + (lambda_total - mx.value())) / w.value();
    if (fill.active < n && s.keyed[fill.active].first >= fill.phi) break;
  }
  return fill;
}

/// Entry i's Newton step target at multiplier `phi`:
/// max(0, x_i + (phi - g_i)/g'_i).
inline double newton_target(const NewtonState& s, std::size_t i, double phi) {
  return std::max(0.0, s.x[i] + (phi - s.g[i]) / s.dg[i]);
}

/// Flat plateau: the rate the constraint leaves the flattest active
/// entry once every other entry takes its s.next, unclamped. Its own
/// target would divide a rounding error in phi' by its near-zero g'_i.
/// In the same pass, `settled` (when given) reports whether every other
/// entry's step |s.next_i - s.x_i| is within `step_tolerance`.
inline double plateau_residual(const NewtonState& s, double lambda_total, std::size_t flattest,
                               bool* settled = nullptr, double step_tolerance = 0.0) {
  num::KahanSum others;
  bool all = true;
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    if (i == flattest) continue;
    others.add(s.weight[i] * s.next[i]);
    all = all && std::abs(s.next[i] - s.x[i]) <= step_tolerance;
  }
  if (settled != nullptr) *settled = all;
  return (lambda_total - others.value()) / s.weight[flattest];
}

/// The decrease of T' that the round's quadratic model predicts for its
/// step without the safeguards' pins: every entry to newton_target at
/// phi', the plateau entry to the residual. With d = s.next - s.x (s.next
/// is overwritten), that is -sum_i m_i ((g_i - phi') d_i + g'_i d_i^2 / 2);
/// the phi' term vanishes on a step that meets the constraint and keeps
/// the sum free of cancellation.
inline double model_decrease(NewtonState& s, double lambda_total, const WaterFill& fill) {
  const std::size_t n = s.x.size();
  s.next.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.next[i] = newton_target(s, i, fill.phi);
  s.next[fill.flattest] = std::max(0.0, plateau_residual(s, lambda_total, fill.flattest));
  num::KahanSum change;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = s.next[i] - s.x[i];
    change.add(s.weight[i] * ((s.g[i] - fill.phi) + 0.5 * s.dg[i] * d) * d);
  }
  return -change.value();
}

/// The warm solve: Newton on the whole KKT system at once (g_i(x_i) = phi
/// on active entries, sum_i m_i x_i = lambda'), from the previous solve's
/// rates in `s.x`. An entry is a server class (m_i its member count, x_i
/// the per-member rate). docs/optimizer.md gives each rule's reason. Each
/// round:
///   * `eval_at(x, g, dg)` evaluates every entry once, charging the budget.
///   * water_fill gives phi' and the active set.
///   * Every active entry steps to newton_target(i, phi'), except that
///     safeguards pin some: a loaded entry with g_i > 2 phi' (pole side)
///     is solved exactly at phi' on [0, x_i] (`exact_at(i, phi, lo, hi)`,
///     find_rate_core); a step past half the headroom to the saturation
///     guard is cut to half, or solved exactly, cold, from zero rate. phi'
///     then moves by the pinned entries' shortfall over the free entries'
///     total slope, and the free entries step to it.
///   * Flat plateau: the flattest active entry (largest m_i/g'_i) takes the
///     constraint residual instead of its own step (plateau_residual).
///   * Stop once every step is within rate_tolerance/2 (the plateau
///     entry's test adds 4 eps lambda'/m_i, the resolution of a residual of
///     size lambda'); phi' is the multiplier.
/// Returns the round count, or a typed error when an evaluation or an
/// exact solve fails, water_fill fails, or no round settles within
/// Brent's cap (min(60, max_iterations)); the caller then runs the cold
/// search instead.
template <class EvalAt, class ExactAt>
Expected<int> joint_newton(const OptimizerOptions& opts, double lambda_total, NewtonState& s,
                           double& phi, EvalAt&& eval_at, ExactAt&& exact_at) {
  const std::size_t n = s.x.size();
  s.g.resize(n);
  s.dg.resize(n);
  s.next.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(s.hub[i])) return non_finite_bound_error(i);
    s.x[i] = std::isfinite(s.x[i]) ? std::clamp(s.x[i], 0.0, s.hub[i]) : 0.0;
  }
  auto trust = [&](std::size_t i) { return s.x[i] + 0.5 * (s.hub[i] - s.x[i]); };
  auto solve_exactly = [&](std::size_t i, double at, double hi) -> std::optional<Error> {
    auto r = exact_at(i, at, 0.0, hi);
    if (!r) return r.error();
    s.next[i] = r.value();
    return std::nullopt;
  };

  const int cap = std::min(60, opts.max_iterations);
  for (int round = 1; round <= cap; ++round) {
    if (auto e = eval_at(s.x, s.g, s.dg)) return std::move(*e);
    const auto fill = water_fill(lambda_total, s);
    if (!fill) return fill.error();
    double next_phi = fill.value().phi;
    const std::size_t active = fill.value().active;
    const std::size_t flattest = fill.value().flattest;

    // Steps, and the safeguards' pins: s.order keeps the active entries
    // that step freely, the plateau entry among them.
    std::fill(s.next.begin(), s.next.end(), 0.0);
    std::size_t free = 0;
    for (std::size_t k = 0; k < active; ++k) {
      const std::size_t i = s.order[k];
      const double x = s.x[i];
      s.next[i] = newton_target(s, i, next_phi);
      if (i != flattest && x > 0.0 && s.g[i] > 2.0 * next_phi) {
        if (auto e = solve_exactly(i, next_phi, x)) return std::move(*e);  // pole side
      } else if (i != flattest && s.next[i] > trust(i)) {
        if (x > 0.0) {
          s.next[i] = trust(i);
        } else if (auto e = solve_exactly(i, next_phi, -1.0)) {
          return std::move(*e);
        }
      } else {
        s.order[free++] = i;
      }
    }
    s.order.resize(free);

    // The pinned entries' shortfall from the model moves phi once more,
    // over the free entries' total slope, and they step to the moved phi.
    num::KahanSum assigned;
    num::KahanSum free_slope;
    for (std::size_t i = 0; i < n; ++i) assigned.add(s.weight[i] * s.next[i]);
    for (const std::size_t i : s.order) free_slope.add(s.slope[i]);
    next_phi += (lambda_total - assigned.value()) / free_slope.value();
    for (const std::size_t i : s.order) {
      if (i != flattest) s.next[i] = std::min(newton_target(s, i, next_phi), trust(i));
    }
    bool settled = false;
    s.next[flattest] = std::clamp(
        plateau_residual(s, lambda_total, flattest, &settled, 0.5 * opts.rate_tolerance), 0.0,
        trust(flattest));

    // A residual of size lambda' is resolved to a few ulps of lambda' (as
    // Brent's test allows 2 eps |b|).
    settled = settled && std::abs(s.next[flattest] - s.x[flattest]) <=
                             0.5 * opts.rate_tolerance +
                                 4.0 * std::numeric_limits<double>::epsilon() * lambda_total /
                                     s.weight[flattest];
    s.x.swap(s.next);
    if (settled) {
      phi = next_phi;
      BLADE_OBS_OBSERVE("optimizer.newton_rounds", round);
      return round;
    }
  }
  return Error{ErrorCode::NonConvergence,
               "optimize: warm Newton iteration unsettled after " + std::to_string(cap) + " rounds"};
}

/// Brent plus the polish over an established bracket (the cold search);
/// returns the outer iteration count. On return (unless
/// max_iterations ran out) F(phi_lo) < lambda' <= F(phi_hi) and the
/// bracket is at most phi_tolerance wide, with rates kept at both ends.
template <class TotalAt, class Absorb>
Expected<int> refine_phi(const OptimizerOptions& opts, double lambda_total, PhiBracket& br,
                         std::optional<Error>& err, TotalAt&& total_at, Absorb&& absorb) {
  // Outer refinement (replacing the bisection of lines (11)-(27)): Brent
  // on F(phi) - lambda' over the established bracket. The endpoint
  // values are already known from the bracketing probes, so nothing is
  // re-evaluated; every new evaluation is absorbed into the workspace, so
  // the inner warm brackets tighten as the outer iteration converges.
  // The bracket-width trace is the solver's convergence signature.
  int outer_it = 0;
  if (br.total_hi - lambda_total != 0.0) {
    double a = br.phi_lo, fa = br.total_lo - lambda_total;
    double b = br.phi_hi, fb = br.total_hi - lambda_total;
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
    double c = a, fc = fa;
    double d = b - a, e = d;
    // Brent worst-case iteration count is quadratic in log(width/tol);
    // cap it well under max_iterations so the bisection polish below
    // always has budget left even on pathologically step-like F.
    const int brent_cap = std::min(60, opts.max_iterations);
    while (fb != 0.0 && outer_it < brent_cap) {
      if ((fb > 0.0) == (fc > 0.0)) {
        c = a;
        fc = fa;
        d = e = b - a;
      }
      if (std::abs(fc) < std::abs(fb)) {
        a = b;
        b = c;
        c = a;
        fa = fb;
        fb = fc;
        fc = fa;
      }
      const double brent_tol =
          2.0 * std::numeric_limits<double>::epsilon() * std::abs(b) + 0.5 * opts.phi_tolerance;
      const double m = 0.5 * (c - b);
      if (std::abs(m) <= brent_tol) break;
      if (std::abs(e) >= brent_tol && std::abs(fa) > std::abs(fb)) {
        const double s = fb / fa;
        double p, q;
        if (a == c) {
          p = 2.0 * m * s;
          q = 1.0 - s;
        } else {
          const double qq = fa / fc;
          const double r = fb / fc;
          p = s * (2.0 * m * qq * (qq - r) - (b - a) * (r - 1.0));
          q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
        }
        if (p > 0.0) {
          q = -q;
        } else {
          p = -p;
        }
        if (2.0 * p < std::min(3.0 * m * q - std::abs(brent_tol * q), std::abs(e * q))) {
          e = d;
          d = p / q;
        } else {
          d = m;
          e = m;
        }
      } else {
        d = m;
        e = m;
      }
      a = b;
      fa = fb;
      b += (std::abs(d) > brent_tol) ? d : (m > 0.0 ? brent_tol : -brent_tol);
      const double total = total_at(b);
      if (err) return std::move(*err);
      fb = total - lambda_total;
      absorb(b, total);
      ++outer_it;
      BLADE_OBS_SERIES_APPEND("optimizer.phi_bracket", outer_it,
                              br.phi_hi >= 0.0 ? br.phi_hi - br.phi_lo : 0.0);
    }
  }
  // Polish: Brent converges on the root of F - lambda' but can stop with
  // one side of the sign bracket still wide: F is step-like around
  // flat-marginal servers, and a probe that hits F = lambda' exactly
  // ends Brent (or skips it, when the bracketing probe hit). The
  // extraction below interpolates between the bracket ends, so the
  // bracket itself must close to the phi_tolerance the seed bisection
  // guaranteed. The root then sits next to the end whose F is closer to
  // lambda': step inward from that end by phi_tolerance/2, doubling the
  // step after each probe, and bisect once a step would pass the
  // midpoint (or fall outside the bracket at fp resolution).
  double step = 0.5 * opts.phi_tolerance;
  while (br.phi_hi - br.phi_lo > opts.phi_tolerance && outer_it < opts.max_iterations) {
    const double mid = 0.5 * (br.phi_lo + br.phi_hi);
    if (!(mid > br.phi_lo && mid < br.phi_hi)) break;  // bracket at fp resolution
    const bool from_hi =
        std::abs(br.total_hi - lambda_total) <= std::abs(br.total_lo - lambda_total);
    double phi = from_hi ? br.phi_hi - step : br.phi_lo + step;
    if (!(from_hi ? phi > mid && phi < br.phi_hi : phi < mid && phi > br.phi_lo)) phi = mid;
    step *= 2.0;
    const double total = total_at(phi);
    if (err) return std::move(*err);
    absorb(phi, total);
    ++outer_it;
    BLADE_OBS_SERIES_APPEND("optimizer.phi_bracket", outer_it, br.phi_hi - br.phi_lo);
  }
  if (opts.strict_convergence && br.phi_hi - br.phi_lo > opts.phi_tolerance) {
    const double mid = 0.5 * (br.phi_lo + br.phi_hi);
    if (mid > br.phi_lo && mid < br.phi_hi) {  // width above fp resolution
      std::ostringstream os;
      os << std::setprecision(10) << "optimize: phi bracket still " << (br.phi_hi - br.phi_lo)
         << " wide after max_iterations=" << opts.max_iterations;
      return make_solver_error(ErrorCode::NonConvergence, os.str());
    }
  }
  return outer_it;
}

/// The outer solve, at every cell count.
///
/// Warm (`warm` enters true: the workspace holds a previous solve):
/// `warm_solve()` runs joint_newton from the previous solve's rates.
/// Should it fail — a typed error, an exception, or no settled round
/// within its cap — `restart()` re-arms the caller's per-solve state and
/// the cold search runs inside the same call, so a warm start never
/// returns an error the cold path would not. `warm` leaves true only when
/// the warm solve produced the answer.
///
/// Cold: Fig. 3's doubling expansion from phi = 1e-6 until F(phi) covers
/// lambda', then refine_phi, every inner solve find_rate_core.
/// `total_at(phi)` evaluates F(phi), parking any inner failure in `err`
/// and returning NaN; `absorb(phi, total)` folds an evaluation into `br`
/// (and the per-cell rate state the caller keeps at the bracket ends).
/// Only monotone improvements may be kept: phi_lo only moves up, phi_hi
/// only moves down.
///
/// Returns the warm rounds or the outer iteration count, or the cold
/// search's typed error.
template <class WarmSolve, class TotalAt, class Absorb, class Restart>
Expected<int> run_phi_search(const OptimizerOptions& opts, double lambda_total,
                             double lambda_max, bool& warm, PhiBracket& br,
                             std::optional<Error>& err, WarmSolve&& warm_solve, TotalAt&& total_at,
                             Absorb&& absorb, Restart&& restart) {
  if (warm) {
    BLADE_OBS_COUNT("optimizer.warm_starts");
    Expected<int> attempt = Error{ErrorCode::Internal, {}};
    try {
      attempt = warm_solve();
    } catch (const std::exception&) {
      // Queueing-layer domain checks can throw where the cold search
      // would never evaluate (a carried rate at the guard of a server
      // whose headroom shrank below one ulp of its utilization).
    }
    if (attempt) return attempt;
    BLADE_OBS_COUNT("optimizer.warm_fallbacks");
    warm = false;
    err.reset();
    br = PhiBracket{};
    restart();
  }

  // Outer bracket (Fig. 3 lines (1)-(10)): start phi small and double
  // until the induced total meets lambda'.
  double phi_probe = 1e-6;
  int expansions = 0;
  while (true) {
    const double total = total_at(phi_probe);
    if (err) return std::move(*err);
    const bool covered = total >= lambda_total;
    absorb(phi_probe, total);
    if (covered) break;
    phi_probe *= 2.0;
    if (++expansions > 200) {
      std::ostringstream os;
      os << std::setprecision(10) << "optimize: failed to bracket phi (lambda'=" << lambda_total
         << ", lambda'_max=" << lambda_max << ", phi_ub=" << phi_probe << " after " << expansions
         << " doublings)";
      return make_solver_error(ErrorCode::BracketNotFound, os.str());
    }
  }
  BLADE_OBS_COUNT_N("optimizer.phi_expansions", expansions);
  return refine_phi(opts, lambda_total, br, err, total_at, absorb);
}

/// Compensated total of a rate vector.
inline double rate_total(const std::vector<double>& rates) {
  num::KahanSum s;
  for (double r : rates) s.add(r);
  return s.value();
}

/// Scales `rates`, whose total is `assigned`, so the assigned mass sits
/// exactly on the constraint and downstream consumers see an exactly
/// feasible point.
inline void rescale_to(std::vector<double>& rates, double assigned, double lambda_total) {
  if (assigned > 0.0) {
    const double scale = lambda_total / assigned;
    for (double& r : rates) r *= scale;
  }
}

/// Extracts the final rates from BOTH bracket ends — `rates` enters as a
/// copy of the rate vector at phi_hi, `rates_lo` is the vector at
/// phi_lo. Evaluating only at the bracket midpoint is unsafe: wide
/// servers (large m_i) have nearly flat marginal-cost curves, so F(phi)
/// is step-like and the midpoint can land below the step, assigning zero
/// load everywhere. phi_hi is guaranteed by the bracketing invariant to
/// cover lambda' (F(phi_hi) >= lambda' > F(phi_lo)), so interpolating
/// between the two rate vectors yields a feasible point whose marginals
/// stay inside the [phi_lo, phi_hi] band: the flat servers — exactly the
/// ones whose load the band cannot pin down — absorb the residual, where
/// the objective is insensitive by that same flatness. A final rescale
/// puts the assigned mass exactly on the constraint.
inline void extract_rates(const PhiBracket& br, const std::vector<double>& rates_lo,
                          std::vector<double>& rates, double lambda_total,
                          double rate_tolerance) {
  double assigned = br.total_hi;
  if (assigned > lambda_total && assigned - br.total_lo > rate_tolerance) {
    const double t =
        std::clamp((lambda_total - br.total_lo) / (assigned - br.total_lo), 0.0, 1.0);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      rates[i] = rates_lo[i] + t * (rates[i] - rates_lo[i]);
    }
    assigned = rate_total(rates);
  }
  rescale_to(rates, assigned, lambda_total);
}

}  // namespace blade::opt::detail
