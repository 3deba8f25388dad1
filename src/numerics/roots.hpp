// Root finding for monotone equations. The paper's two algorithms
// (Find_lambda'_i, Calculate T') are both "expand an upper bracket by
// doubling, then bisect"; solve_increasing generalizes that pattern for
// the closed forms, the baseline policies and the waiting-time quantile
// inversions. The optimizer runs its own safeguarded Newton and Brent
// iterations (core/solver_core.hpp), not these.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>

namespace blade::num {

/// Thrown when a solver cannot bracket or converge.
class RootFindingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Options of solve_increasing.
struct RootOptions {
  double tolerance = 1e-12;   ///< absolute width of the final bracket
  int max_iterations = 200;   ///< bisection iteration cap
  int max_expansions = 200;   ///< doubling steps allowed when bracketing
  /// Wall-clock watchdog: a solve exceeding this many seconds throws
  /// RootFindingError ("time budget exceeded"). 0 disables the check
  /// (and its per-iteration clock read) — the default, since a solve is
  /// usually budgeted by max_iterations alone.
  double max_seconds = 0.0;
};

/// Result of a solve, including diagnostics used by the perf benches.
struct RootResult {
  double x = 0.0;            ///< located root (bracket midpoint)
  double f = 0.0;            ///< residual f(x)
  int iterations = 0;        ///< refinement iterations used
  int expansions = 0;        ///< bracketing expansions used
  bool clamped_at_upper = false;  ///< bracket hit the sup bound (saturation)
};

/// Solves f(x) = target for an *increasing* f on [lower, sup).
///
/// Mirrors the paper's Fig. 2 algorithm: the upper bound starts at
/// `initial_ub` (or a small default) and doubles until f(ub) >= target,
/// clamping to (1-eps)*sup when a finite supremum is given (the server
/// saturation point); then the bracket is bisected. If f(lower) >= target
/// the root is reported at `lower` (the "inactive server" case).
///
/// Rejects a non-finite f(x) (NaN/Inf) with a RootFindingError naming
/// the evaluation point instead of iterating on garbage, and honors
/// RootOptions::max_seconds when set.
[[nodiscard]] RootResult solve_increasing(const std::function<double(double)>& f, double target,
                                          double lower, std::optional<double> sup,
                                          std::optional<double> initial_ub = std::nullopt,
                                          const RootOptions& opts = {});

}  // namespace blade::num
