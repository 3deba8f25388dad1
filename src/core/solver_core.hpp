// Shared numeric core of the flat and sharded load-distribution solvers:
// the inner rate solve (Fig. 2 with the rtsafe Newton loop, cold from a
// bracket or warm from the best known rate), the outer phi search
// (doubling expansion, or seeded Newton steps on F when warm, then Brent
// and a polish that closes the bracket from its nearer end), and the
// bracket-end rate extraction. The flat LoadDistributionOptimizer and the
// sharded hierarchical solver (core/sharded.hpp) both delegate here,
// which is what makes "sharded with 1 cell" bitwise identical to the
// flat path: there is exactly one implementation of every numeric step,
// parameterized only by how F(phi) is assembled.
//
// Everything here is an implementation detail (namespace opt::detail);
// the stable surfaces are LoadDistributionOptimizer and ShardedOptimizer.
#pragma once

#include <algorithm>
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
/// default-constructed budget (max_evals = 0, untimed) never trips — the
/// sharded solver hands one to each cell and enforces the user's budgets
/// itself, between outer probes.
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
/// marginal_with_derivative(i, rate) — ResponseTimeObjective for the
/// flat solver, the per-cell objective (global-lambda' marginal scaling
/// over a cell sub-cluster) for the sharded one.
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

/// The warm inner solve: the same root of g_i = phi as find_rate_core,
/// reached by the same safeguarded Newton iteration but started at `x0`,
/// the best known rate (the previous solve's, or a first-order prediction
/// from this solve's previous probe), instead of at a bracket midpoint.
/// A non-finite `x0` starts at the lower end.
///
/// [lo, hi] are the monotone hints find_rate_core takes (hi < 0: none,
/// and the saturation guard stands in). find_rate_core evaluates both
/// ends up front; here an end is evaluated only when an iterate would
/// leave through it, or when the bracket closes onto an upper end no
/// evaluation has confirmed, so a good start costs one or two kernel
/// evaluations. Without an upper hint the iteration brackets outward by
/// Newton-sized steps from `x0`. An upper end found to undershoot the
/// root reopens the bracket up to the saturation guard, as the doubling
/// resumes in find_rate_core.
///
/// `slope` receives dlambda'_i/dphi = 1/g'_i at the last evaluation (0
/// when the server is inactive, saturated or pinned by a collapsed
/// bracket), the term this server contributes to F'(phi).
template <class Obj>
Expected<double> find_rate_from(const OptimizerOptions& opts, const Obj& obj, std::size_t i,
                                double phi, double lo, double hi, double x0, long* evals,
                                SolveBudget& budget, double& slope) {
  slope = 0.0;
  const double sup = obj.rate_bound(i);
  if (!std::isfinite(sup)) return non_finite_bound_error(i);
  const double hard_ub = (1.0 - opts.saturation_margin) * sup;
  const double tol = opts.rate_tolerance;
  lo = std::clamp(lo, 0.0, hard_ub);
  const bool have_hi = hi >= 0.0;
  hi = have_hi ? std::clamp(hi, lo, hard_ub) : hard_ub;
  if (have_hi && hi - lo <= tol) {
    BLADE_OBS_COUNT("optimizer.warm_bracket_hits");
    return 0.5 * (lo + hi);
  }

  bool hi_sure = false;  // g(hi) >= phi confirmed by an evaluation
  bool lo_sure = false;  // g(lo) < phi confirmed by an evaluation
  double x = std::isfinite(x0) ? std::clamp(x0, lo, hi) : lo;
  double dx_old = hi - lo;
  double dx = dx_old;
  double dg_last = 0.0;
  double result = x;
  bool converged = false;
  int it = 0;
  for (; it < opts.max_iterations; ++it) {
    if (auto e = budget.charge()) return std::move(*e);
    if (evals) ++*evals;
    const auto [gx, dgx] = obj.marginal_with_derivative(i, x);
    if (!std::isfinite(gx)) return non_finite_marginal_error(i, x, gx);
    dg_last = dgx;
    const double fx = gx - phi;
    if (fx == 0.0) {
      result = x;
      converged = true;
      break;
    }
    if (fx < 0.0) {
      if (x >= hi) {
        if (hi >= hard_ub) {
          BLADE_OBS_COUNT("optimizer.saturation_clamps");
          return hard_ub;  // saturated at this phi
        }
        hi = hard_ub;  // the upper hint undershot: reopen to the guard
        hi_sure = false;
      }
      lo = x;
      lo_sure = true;
    } else {
      if (x <= lo) return lo;  // root at or below the lower end: inactive when lo = 0
      hi = x;
      hi_sure = true;
    }
    // find_rate_core's Newton stop, whether or not the upper end has been
    // confirmed: the root lies within the tolerance of this evaluation.
    const bool newton_ok = dgx > 0.0 && std::isfinite(dgx);
    const double step = newton_ok ? fx / dgx : std::numeric_limits<double>::infinity();
    if (std::abs(step) <= 0.5 * tol) {
      result = std::clamp(x - step, lo, hi);
      ++it;
      converged = true;
      break;
    }
    if (hi - lo <= tol) {
      if (!hi_sure) {
        x = hi;  // closed onto an unconfirmed upper end: confirm it
        continue;
      }
      result = 0.5 * (lo + hi);
      converged = true;
      break;
    }
    const double newton = x - step;
    double next;
    if (newton_ok && newton >= hi && !hi_sure) {
      next = hi;  // leaving through an unconfirmed end: probe the end
    } else if (newton_ok && newton <= lo && !lo_sure) {
      next = lo;
    } else if (!newton_ok || 2.0 * std::abs(fx) > std::abs(dx_old * dgx) ||
               !(newton > lo && newton < hi)) {
      next = 0.5 * (lo + hi);
    } else {
      next = newton;
    }
    dx_old = dx;
    dx = std::abs(next - x);
    result = next;
    x = next;
  }
  BLADE_OBS_COUNT("optimizer.find_rate_calls");
  BLADE_OBS_OBSERVE("optimizer.inner_iterations", it);
  if (!converged && opts.strict_convergence && hi - lo > tol) {
    return non_convergence_error(i, hi - lo, opts.max_iterations);
  }
  if (dg_last > 0.0 && std::isfinite(1.0 / dg_last)) slope = 1.0 / dg_last;
  return result;
}

/// The first probe of a warm solve: the previous solve's multiplier,
/// rescaled by lambda'_prev / lambda' (every g_i carries a 1/lambda'
/// factor, so the rescaled seed reproduces the previous split's
/// marginals). -1, meaning cold, when the workspace holds no solve.
inline double warm_seed(double seed_phi, double seed_lambda, double lambda_total) {
  return seed_phi > 0.0 && seed_lambda > 0.0 ? seed_phi * seed_lambda / lambda_total : -1.0;
}

/// Seeded bracketing for a warm solve. Probes F at `seed_phi`, then steps
/// phi by Newton on F, (lambda' - F)/F' with F' = sum_i 1/g'_i from the
/// same probe. A step from below is stretched by a quarter so it tends
/// to land just past the root: F is concave between activations, so the
/// plain Newton step undershoots from below (and overshoots from above,
/// which already crosses). A step is never shorter than half of
/// phi_tolerance, so a seed that already sits on the root still gets
/// its tight bracket, and it stays within a factor of two of the
/// previous probe, which is also the fallback when F' gives no step
/// (geometric halve/double), so phi stays positive however far the seed.
/// Stops once probes of this solve lie on both sides of lambda'.
///
/// `warm_at(phi, slope)` evaluates F(phi) and stores F'(phi) in `slope`,
/// parking any inner failure in `err` like total_at.
template <class WarmAt, class Absorb>
Expected<int> seeded_bracket(const OptimizerOptions& opts, double lambda_total, double seed_phi,
                             PhiBracket& br, std::optional<Error>& err, WarmAt&& warm_at,
                             Absorb&& absorb) {
  double phi = seed_phi;
  for (int probes = 0;; ++probes) {
    double slope = 0.0;
    const double total = warm_at(phi, slope);
    if (err) return std::move(*err);
    absorb(phi, total);
    if (br.phi_lo > 0.0 && br.phi_hi >= 0.0) return probes;
    if (probes >= 200) {
      std::ostringstream os;
      os << std::setprecision(10) << "optimize: seeded phi search failed to bracket lambda'="
         << lambda_total << " from phi=" << seed_phi << " after " << probes << " probes";
      return make_solver_error(ErrorCode::BracketNotFound, os.str());
    }
    const bool below = total < lambda_total;
    const double step = std::abs(lambda_total - total) / slope;
    double next = below ? 2.0 * phi : 0.5 * phi;
    if (slope > 0.0 && std::isfinite(step)) {
      const double reach = std::max((below ? 1.25 : 1.0) * step, 0.5 * opts.phi_tolerance);
      next = std::clamp(below ? phi + reach : phi - reach, 0.5 * phi, 2.0 * phi);
    }
    phi = next;
  }
}

/// Brent plus the polish over an established bracket, shared by the cold
/// and warm searches; returns the outer iteration count. On return (unless
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

/// The outer phi search shared by the flat and sharded solvers.
///
/// Cold (`seed_phi` <= 0 or non-finite: the workspace holds no previous
/// solve): Fig. 3's doubling expansion from phi = 1e-6 until F(phi)
/// covers lambda', then refine_phi. Every inner solve is find_rate_core.
///
/// Warm (`seed_phi` > 0: the previous solve's multiplier, rescaled to
/// this lambda'): seeded_bracket, then refine_phi, with every inner solve
/// started from the best known rate (find_rate_from, inside `warm_at`).
/// Monotonicity of F makes any seed safe: a stale one costs probes,
/// never correctness. Should the warm attempt fail anyway, `restart()`
/// re-arms the caller's per-solve state and the cold search runs inside
/// the same call, so a warm start never returns an error the cold path
/// would not.
///
/// `total_at(phi)` evaluates F(phi) cold, parking any inner failure in
/// `err` and returning NaN; `absorb(phi, total)` folds an evaluation into
/// `br` (and whatever per-server/per-cell rate state the caller keeps at
/// the bracket ends). Only monotone improvements may be kept: phi_lo
/// only moves up, phi_hi only moves down.
///
/// Returns the outer iteration count, or the search's typed error.
template <class WarmAt, class TotalAt, class Absorb, class Restart>
Expected<int> run_phi_search(const OptimizerOptions& opts, double lambda_total,
                             double lambda_max, double seed_phi, PhiBracket& br,
                             std::optional<Error>& err, WarmAt&& warm_at, TotalAt&& total_at,
                             Absorb&& absorb, Restart&& restart) {
  if (seed_phi > 0.0 && std::isfinite(seed_phi)) {
    BLADE_OBS_COUNT("optimizer.warm_starts");
    auto warm = seeded_bracket(opts, lambda_total, seed_phi, br, err, warm_at, absorb);
    if (warm) {
      BLADE_OBS_COUNT_N("optimizer.phi_expansions", warm.value());
      auto warm_total = [&](double phi) {
        double slope = 0.0;
        return warm_at(phi, slope);
      };
      warm = refine_phi(opts, lambda_total, br, err, warm_total, absorb);
      if (warm) return warm;
    }
    BLADE_OBS_COUNT("optimizer.warm_fallbacks");
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
/// puts the assigned mass exactly on the constraint, so downstream
/// consumers see an exactly feasible point.
inline void extract_rates(const PhiBracket& br, const std::vector<double>& rates_lo,
                          std::vector<double>& rates, double lambda_total,
                          double rate_tolerance) {
  auto total_of = [](const std::vector<double>& rs) {
    num::KahanSum s;
    for (double r : rs) s.add(r);
    return s.value();
  };
  double assigned = br.total_hi;
  if (assigned > lambda_total && assigned - br.total_lo > rate_tolerance) {
    const double t =
        std::clamp((lambda_total - br.total_lo) / (assigned - br.total_lo), 0.0, 1.0);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      rates[i] = rates_lo[i] + t * (rates[i] - rates_lo[i]);
    }
    assigned = total_of(rates);
  }
  if (assigned > 0.0) {
    const double scale = lambda_total / assigned;
    for (double& r : rates) r *= scale;
  }
}

}  // namespace blade::opt::detail
