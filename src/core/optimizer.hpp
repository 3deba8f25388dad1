// The paper's solver: Algorithm Find_lambda'_i (Fig. 2) nested inside
// Algorithm Calculate T' (Fig. 3). Both levels bracket a monotone
// function as the paper does, then refine inside the bracket instead of
// bisecting (safeguarded Newton inside, Brent and a polish outside), and
// each stops as soon as it has its answer (core/solver_core.hpp):
//
//   inner:  g_i(lambda'_i) = (1/lambda')(T'_i + lambda'_i dT'_i/dlambda'_i)
//           is strictly increasing (T' is convex in lambda'_i); given the
//           multiplier phi, solve g_i = phi on [0, m_i/xbar_i - lambda''_i).
//           If g_i(0) >= phi the server receives no generic load.
//
//   outer:  F(phi) = sum_i lambda'_i(phi) is increasing in phi; solve
//           F(phi) = lambda'.
//
// A re-solve on a workspace holding a previous solve instead steps every
// rate and phi together by Newton on the KKT system (SolverWorkspace).
// There is one implementation of the solve, ShardedOptimizer
// (core/sharded.hpp); LoadDistributionOptimizer is its one-cell case.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "model/cluster.hpp"
#include "queueing/blade_queue.hpp"
#include "util/status.hpp"

namespace blade::opt {

struct OptimizerOptions {
  double rate_tolerance = 1e-12;  ///< bracket width (or Newton step) for each lambda'_i
  double phi_tolerance = 1e-12;   ///< bracket width for phi
  int max_iterations = 300;       ///< per root find
  /// Fraction of the saturation point where the per-server bracket is
  /// clamped, mirroring the paper's (1 - epsilon) guard on line (7).
  double saturation_margin = 1e-9;
  /// Task-size squared coefficient of variation; 1 is the paper's exact
  /// exponential model, other values engage the Allen–Cunneen M/G/m
  /// approximation (used by the sensitivity ablation).
  double service_scv = 1.0;
  /// Opt-in diagnostics: at >= 1 every optimize() call emits a one-line
  /// convergence summary (LoadDistribution::summary()) so solver behavior
  /// is visible without a debugger. 0 (default) stays silent.
  int verbosity = 0;
  /// Where verbose diagnostics go; std::clog when unset. Also receives
  /// nothing on failure — failures carry their diagnostics inside the
  /// thrown exception message instead.
  std::function<void(const std::string&)> diagnostic_sink;

  // --- watchdogs (resilience layer) ---

  /// Per-solve budget of marginal-cost evaluations across ALL inner
  /// solves; exceeding it fails the solve with ErrorCode::BudgetExceeded
  /// instead of burning unbounded CPU on a pathological instance.
  /// 0 (default) = unlimited.
  long max_marginal_evaluations = 0;
  /// Per-solve wall-clock budget in seconds, checked every few marginal
  /// evaluations (ErrorCode::BudgetExceeded when tripped). 0 (default)
  /// = unlimited, and the solver never reads the clock.
  double max_solve_seconds = 0.0;
  /// When true, a solve whose phi bracket (outer) or rate bracket
  /// (inner) is still wider than its tolerance after max_iterations
  /// fails with ErrorCode::NonConvergence. When false (default, the
  /// paper's behavior) the solver returns the bracket midpoint as a
  /// best-effort answer.
  bool strict_convergence = false;

  /// Throws std::invalid_argument when any field is out of domain:
  /// tolerances must be > 0, max_iterations >= 1, saturation_margin in
  /// (0, 1), service_scv >= 0, max_marginal_evaluations >= 0,
  /// max_solve_seconds finite and >= 0. NaNs are rejected by the same
  /// checks.
  void validate() const;
};

/// Solution of the load-distribution problem.
struct LoadDistribution {
  std::vector<double> rates;         ///< lambda'_i
  std::vector<double> utilizations;  ///< rho_i at the optimum
  std::vector<double> response_times;  ///< per-server T'_i at the optimum
  double response_time = 0.0;        ///< minimized T'
  double phi = 0.0;                  ///< Lagrange multiplier (paper's phi)
  /// Cold: phi probes after bracketing (Brent + polish). Warm: joint
  /// Newton rounds.
  int outer_iterations = 0;
  long inner_evaluations = 0;        ///< total marginal-cost evaluations (all rounds, safeguards too)

  [[nodiscard]] double total_rate() const;

  /// Servers with strictly positive generic load.
  [[nodiscard]] std::size_t active_servers() const noexcept;

  /// One-line convergence summary (iterations, final phi, active-server
  /// count, objective) — what OptimizerOptions::verbosity >= 1 emits.
  [[nodiscard]] std::string summary() const;
};

namespace detail {

/// The outer search's monotone bracket on the Lagrange multiplier:
/// F(phi_lo) < lambda' <= F(phi_hi), plus the totals at both ends;
/// core/solver_core.hpp holds the search that drives it.
struct PhiBracket {
  double phi_lo = 0.0;
  double phi_hi = -1.0;  ///< < 0: no covering phi found yet
  double total_lo = 0.0;  ///< F(phi_lo)
  double total_hi = 0.0;  ///< F(phi_hi)
};

/// The warm solve's per-entry vectors (detail::joint_newton), one entry
/// per server class. The caller fills `x`, `weight` and `hub`; the rest
/// is per-round scratch.
struct NewtonState {
  std::vector<double> x;       ///< rates: the start, then each accepted round
  std::vector<double> weight;  ///< m_i: the class's member count
  std::vector<double> hub;     ///< saturation guards (1 - saturation_margin) * bound
  std::vector<double> g;       ///< g_i at x_i
  std::vector<double> dg;      ///< g'_i at x_i
  std::vector<double> slope;   ///< m_i/g'_i, as the water-fill capped g'_i
  std::vector<double> next;    ///< the round's step
  std::vector<std::size_t> order;  ///< modelled entries by breakpoint
  /// (breakpoint, entry), sorted; the next water-fill starts from this order.
  std::vector<std::pair<double, std::size_t>> keyed;
};

}  // namespace detail

class ShardedOptimizer;

/// Mutable per-solve scratch reused across outer iterations — and, when
/// the caller keeps one alive, across successive solves (optimize_many,
/// sweeps, the runtime controller). It caches the solver's monotone state:
///
///   * per cell, the class rates at both ends of the current outer
///     bracket [phi_lo, phi_hi] with F(phi_lo) < lambda' <= F(phi_hi) —
///     because each F_i(phi) is increasing, [rate_lo_k, rate_hi_k]
///     brackets class k's rate for ANY phi inside the outer bracket, so
///     inner searches warm-start from there instead of from [0, sup);
///   * the previous solve on this workspace: its converged phi and its
///     per-server split. The next solve is then warm: it steps every rate
///     and phi together by Newton on the KKT system, starting from that
///     split mapped onto its own server classes (see
///     detail::joint_newton), so the next solver may partition the
///     cluster differently. A stale start costs rounds, never correctness,
///     and a warm attempt that fails falls back to the cold search inside
///     the same call.
///
/// A fresh or clear()ed workspace solves cold, bit for bit the solve the
/// plain optimize() runs. A workspace is NOT thread-safe: use one per
/// thread (optimize_many hands one to each pool task). A
/// default-constructed workspace is valid for any instance size; the
/// solver resizes it as needed.
class SolverWorkspace {
 public:
  SolverWorkspace() = default;

  /// Drops every cached value, including the previous solve's phi and
  /// rates: the next solve runs cold.
  void clear();

  /// Replaces the per-server rates the next solve starts from, one per
  /// server of the cluster it will solve: the last split mapped onto a
  /// changed topology, for instance. On a workspace without a previous
  /// solve (fresh or cleared) this is a no-op and the next solve stays
  /// cold. Stale, wrong-length or non-finite rates only cost evaluations.
  void warm_start(std::span<const double> rates);

  /// The converged phi of the last solve on this workspace (< 0 when the
  /// workspace has not completed a solve yet). Exposed for tests.
  [[nodiscard]] double seed_phi() const noexcept { return seed_phi_; }

 private:
  friend class ShardedOptimizer;

  struct CellState {
    std::vector<double> rates_lo;  ///< per-class rates at phi_lo
    std::vector<double> rates_hi;  ///< per-class rates at phi_hi
    std::vector<double> scratch;   ///< per-class rates at the probe phi
    double total = 0.0;            ///< F_c at the probe phi
    long evals = 0;                ///< marginal evaluations in this cell
    Error err{ErrorCode::Ok, {}};  ///< first inner failure, if any
  };

  std::vector<CellState> cells_;
  /// The warm solve's state over every kept class, cell after cell.
  detail::NewtonState newton_;
  std::vector<double> rates_;  ///< the last solve's split (or warm_start's), per server
  double seed_phi_ = -1.0;
};

/// The paper's solver over a whole cluster. It solves as a one-cell
/// ShardedOptimizer (core/sharded.hpp) on the caller's thread: servers
/// with identical queueing parameters share one inner solve per probe,
/// and the user budget is charged at every marginal evaluation.
class LoadDistributionOptimizer {
 public:
  LoadDistributionOptimizer(model::Cluster cluster, queue::Discipline d,
                            OptimizerOptions opts = {});

  /// Heterogeneous disciplines: ds[i] applies to server i.
  LoadDistributionOptimizer(model::Cluster cluster, std::vector<queue::Discipline> ds,
                            OptimizerOptions opts = {});

  [[nodiscard]] const model::Cluster& cluster() const noexcept;
  /// The common discipline; for heterogeneous setups, that of server 0.
  [[nodiscard]] queue::Discipline discipline() const noexcept { return disciplines().front(); }
  [[nodiscard]] const std::vector<queue::Discipline>& disciplines() const noexcept;

  /// Solves for a given total generic rate lambda' in (0, lambda'_max).
  /// Throws std::invalid_argument when lambda' is infeasible.
  [[nodiscard]] LoadDistribution optimize(double lambda_total) const;

  /// Same solve, but threading the caller's workspace through so
  /// successive solves warm-start each other (see SolverWorkspace). The
  /// plain optimize() is exactly this with a fresh workspace, so a reused
  /// workspace changes results only below the solver tolerances.
  LoadDistribution optimize(double lambda_total, SolverWorkspace& ws) const;

  /// Non-throwing solve: the solution, or a typed diagnostic
  /// (Infeasible, InvalidArgument, BracketNotFound, NonConvergence,
  /// NonFinite, BudgetExceeded). Solver failures NEVER propagate as
  /// exceptions from this entry point — any exception escaping the
  /// numeric core is converted to ErrorCode::Internal — which is what
  /// lets the runtime controller contain a failed re-solve instead of
  /// unwinding the control thread. The throwing optimize() is a thin
  /// wrapper over the same core. Every failure increments the matching
  /// solver.failures.* / solver.budget_exceeded obs counter.
  [[nodiscard]] Expected<LoadDistribution> try_optimize(double lambda_total) const;
  Expected<LoadDistribution> try_optimize(double lambda_total, SolverWorkspace& ws) const;

  /// The inner algorithm (Fig. 2): lambda'_i achieving marginal cost phi.
  /// Exposed for tests; `evals` (optional) accumulates marginal evaluations.
  [[nodiscard]] double find_rate(const ResponseTimeObjective& obj, std::size_t i, double phi,
                                 long* evals = nullptr) const;

  /// Warm-bracketed inner solve: like find_rate but searching only
  /// [lo, hi] (clamped to the server's domain), where monotonicity of
  /// F_i(phi) guarantees the root lies within the bracket up to the
  /// solver tolerance. Pass hi < 0 when no upper bound is known (falls
  /// back to the doubling expansion of Fig. 2). Exposed for the
  /// warm-start invariant tests.
  [[nodiscard]] double find_rate_bracketed(const ResponseTimeObjective& obj, std::size_t i,
                                           double phi, double lo, double hi,
                                           long* evals = nullptr) const;

  /// Non-throwing counterparts of find_rate / find_rate_bracketed: the
  /// rate, or a typed diagnostic (BracketNotFound, NonConvergence under
  /// strict_convergence, NonFinite, BudgetExceeded). Budgets reset per
  /// call here; inside try_optimize one budget spans the whole solve.
  [[nodiscard]] Expected<double> try_find_rate(const ResponseTimeObjective& obj, std::size_t i,
                                               double phi, long* evals = nullptr) const;
  [[nodiscard]] Expected<double> try_find_rate_bracketed(const ResponseTimeObjective& obj,
                                                         std::size_t i, double phi, double lo,
                                                         double hi, long* evals = nullptr) const;

 private:
  /// Immutable once built, so copies of this optimizer share it.
  std::shared_ptr<const ShardedOptimizer> solver_;
};

/// Maps a solver Error back onto the throwing API's exception types:
/// InvalidArgument / Infeasible become std::invalid_argument, everything
/// else num::RootFindingError (declared in numerics/roots.hpp). The
/// exception message is the error's context verbatim.
[[noreturn]] void throw_solver_error(const Error& error);

}  // namespace blade::opt
