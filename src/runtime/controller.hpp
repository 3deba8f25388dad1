// Online load-distribution control plane. The paper's solver answers one
// stationary instance; this Controller closes the loop around it for a
// live cluster:
//
//   estimate     lambda' (total generic rate) and per-server lambda''_i
//                online from the event stream (bias-corrected EWMA,
//                configurable half-life);
//   re-solve     the optimal split through a persistent SolverWorkspace
//                with hysteresis — a drift check every check_interval
//                arrivals, a re-solve only when the first round of the
//                re-solve's own warm solve, taken at the published split
//                under the current estimates, predicts a relative T' loss
//                above loss_threshold. Every re-solve, sharded,
//                failovers and health-driven ones included, starts warm
//                from the last successful split mapped onto the servers
//                it sees (see SolverWorkspace::warm_start);
//   publish      routing weights as an O(1) alias-table sampler swapped
//                through an atomic slot, so dispatch threads keep
//                sampling while the control path reconverges;
//   degrade      blade failures/recoveries mutate the available m_i
//                (server removal = m_i -> 0) and force an immediate
//                re-solve; when the estimated lambda' approaches the
//                surviving capacity, admission control sheds the minimum
//                fraction that restores feasibility at the configured
//                utilization ceiling.
//
// Threading contract: all event ingestion (on_* and resolve_now) is
// single-threaded — one control thread owns it. weights(),
// routing_fractions(), and shed_probability() are safe to call from any
// number of concurrent dispatch threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/optimizer.hpp"
#include "core/sharded.hpp"
#include "model/cluster.hpp"
#include "obs/recorder.hpp"
#include "queueing/blade_queue.hpp"
#include "runtime/estimator.hpp"
#include "runtime/health.hpp"
#include "util/alias_table.hpp"
#include "util/status.hpp"

namespace blade::runtime {

namespace detail {

/// Atomic publication slot for the routing table. Semantically this is
/// std::atomic<std::shared_ptr<const AliasTable>>, but libstdc++ 12's
/// _Sp_atomic unlocks with a relaxed fetch_sub, which leaves no
/// TSan-visible happens-before edge between a reader's critical section
/// and the next writer's (the annotations landed in GCC 13). A
/// micro-spinlock with a release unlock gives the same O(1) hand-off
/// with ordering the model (and TSan) accepts: readers copy the current
/// pointer under the lock (one refcount bump), the single control
/// thread swaps it, and the displaced table is released outside the
/// critical section.
class TableSlot {
 public:
  [[nodiscard]] std::shared_ptr<const util::AliasTable> load() const noexcept {
    lock();
    auto copy = ptr_;
    unlock();
    return copy;
  }

  void store(std::shared_ptr<const util::AliasTable> next) noexcept {
    lock();
    ptr_.swap(next);
    unlock();
    // `next` now holds the displaced table; it dies here, after unlock.
  }

 private:
  void lock() const noexcept {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      while (locked_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const noexcept { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<const util::AliasTable> ptr_;
};

}  // namespace detail

struct ControllerConfig {
  queue::Discipline discipline = queue::Discipline::Fcfs;
  /// Estimator memory: the half-life of every rate estimate's EWMA.
  double half_life = 1.0;
  /// Hysteresis: a drift check re-solves only when one Newton round at the
  /// published split predicts a T' loss above this fraction of the last
  /// solve's T' (see Controller::check_drift). Finite, >= 0.
  double loss_threshold = 3e-3;
  /// Arrivals between drift checks (each check either re-solves or
  /// counts as skipped_by_hysteresis).
  std::uint64_t check_interval = 16;
  /// Estimator warmup: no estimate-driven solve before this many
  /// arrivals have been observed.
  std::uint64_t min_arrivals = 8;
  /// Admission control keeps the admitted lambda' at or below this
  /// fraction of the generic capacity the re-solve can load: the
  /// surviving servers', or the kept ones' when prune_top_k prunes some;
  /// must be in (0, 1).
  double utilization_ceiling = 0.95;
  /// When > 0, solve for this lambda' at construction so the published
  /// weights start optimal for the expected load instead of
  /// capacity-proportional.
  double initial_lambda = 0.0;
  /// Bounded staleness for the last-known-good table: after a failed
  /// re-solve the LKG split is only served while it is at most this old
  /// (in event time); past that the controller degrades further to the
  /// capacity-proportional fallback. 0 (default) derives 8 half-lives.
  double lkg_max_age = 0.0;
  /// Cells of the re-solve (core/sharded.hpp), clamped to [1, surviving
  /// servers]: several cells evaluate in parallel on the global pool —
  /// the fleet-scale setting that keeps serve-replay responsive at
  /// n = 50,000. 0 (default) and 1 solve as one cell on the control
  /// thread.
  std::size_t shard_cells = 0;
  /// Per-cell top-k rate-matrix pruning of the re-solve; requires
  /// shard_cells > 0. 0 (default) keeps every server. The drift check
  /// runs on the re-solve's solver, so it prices only the kept servers,
  /// and fires without evaluating when a pruned server holds load. When
  /// a server is pruned, admission control sheds down to
  /// utilization_ceiling of the kept servers' capacity
  /// (ShardedOptimizer::kept_capacity), read from that solver.
  std::size_t prune_top_k = 0;
  /// Gray-failure detection: per-blade health scoring + the quarantine
  /// state machine (runtime/health.hpp). Off by default; when enabled the
  /// caller must feed on_dispatch()/on_completion().
  HealthConfig health;
  opt::OptimizerOptions solver;

  /// Throws std::invalid_argument on out-of-domain fields.
  void validate() const;
};

struct ControllerStats {
  std::uint64_t generic_arrivals = 0;  ///< offered (admitted + shed)
  std::uint64_t special_arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;               ///< dropped by admission control
  std::uint64_t resolves = 0;           ///< optimizer re-solves
  /// Marginal evaluations of every successful re-solve, summed (the
  /// solution's inner_evaluations): divided by resolves, the solver work
  /// per re-solve, with or without an observability build.
  std::uint64_t solver_evaluations = 0;
  // Drift checks in mode Optimal with a warm estimator, by outcome (see
  // Controller::check_drift):
  std::uint64_t shedding_checks = 0;     ///< fired: lambda' at the ceiling, or shedding
  std::uint64_t unevaluated_checks = 0;  ///< fired without evaluating the round
  std::uint64_t loss_checks = 0;         ///< fired: predicted loss above loss_threshold
  std::uint64_t skipped_by_hysteresis = 0;  ///< predicted loss within loss_threshold
  /// Marginal evaluations of the checks that did not fire: one per class
  /// the re-solve's solver keeps (a fired check's round is its re-solve's
  /// first, counted in solver_evaluations).
  std::uint64_t check_evaluations = 0;
  std::uint64_t infeasible_resolves = 0;    ///< re-solves that engaged shedding
  std::uint64_t failures = 0;           ///< blade-failure events ingested
  std::uint64_t recoveries = 0;
  std::uint64_t publications = 0;       ///< reconvergence epochs (weight swaps)
  std::uint64_t solver_failures = 0;    ///< contained re-solve failures
  std::uint64_t lkg_publications = 0;   ///< failures served from last-known-good
  std::uint64_t fallback_publications = 0;  ///< failures degraded to proportional
  std::uint64_t rejected_observations = 0;  ///< corrupt event times dropped/repaired
  std::uint64_t injected_faults = 0;    ///< solver faults forced by arm_solver_fault
  std::uint64_t restores = 0;           ///< checkpoint restores applied
  std::uint64_t mode_transitions = 0;   ///< degraded-mode state changes

  // Gray-failure detection (zero when cfg.health.enabled is off):
  std::uint64_t health_transitions = 0;  ///< quarantine state-machine edges
  std::uint64_t quarantines = 0;         ///< edges into Quarantined
  std::uint64_t probations = 0;          ///< edges into Probation
  std::uint64_t health_recoveries = 0;   ///< Probation -> Healthy clears
  std::uint64_t quarantine_publications = 0;  ///< cheap redistributions (no re-solve)

  // Always 0: the surrogate-cache drift mode these counted is gone, but
  // servebench/src/replay.cpp still lists them.
  std::uint64_t mcache_hits = 0;
  std::uint64_t mcache_fallthroughs = 0;
  std::uint64_t mcache_out_of_domain = 0;

  /// Wall-clock cost of re-solves (control-loop latency, fed to the SLO
  /// resolve_latency monitor): total seconds across all resolves and the
  /// most recent one. A re-solve a drift check fired is timed from the
  /// check's start, since its first round is the check's.
  double resolve_seconds_total = 0.0;
  double last_resolve_seconds = 0.0;

  /// Fraction of offered generic tasks shed so far (0 when none offered).
  [[nodiscard]] double shed_fraction() const noexcept;
};

/// What the published routing table currently is (the degraded-mode state
/// machine; see docs/resilience.md for the full transition diagram):
///
///   Optimal        the last re-solve succeeded; serving its split.
///   LastKnownGood  the last re-solve failed; serving the most recent
///                  successful split, bounded by lkg_max_age and only
///                  while every server it routes to keeps the blades it
///                  had when it was solved.
///   Fallback       serving the capacity-proportional split (boot state
///                  before the first estimate-driven solve, no measurable
///                  load, or a failure with no servable LKG).
///   Blackout       nothing publishable: every blade is down; the table
///                  is null and shed_probability() is 1.
enum class Mode : std::uint8_t { Optimal = 0, LastKnownGood = 1, Fallback = 2, Blackout = 3 };

[[nodiscard]] const char* to_string(Mode m) noexcept;

class Controller {
 public:
  /// @param cluster  nominal topology and special-stream preloads; the
  ///                 spec lambda''_i also back the estimators before
  ///                 they warm up
  Controller(model::Cluster cluster, ControllerConfig cfg);

  // --- event ingestion (control thread only) ---

  /// A generic task was offered at time t; `u` is the caller's uniform
  /// draw in [0, 1) deciding admission. Returns true when the task is
  /// admitted (route it via weights()); false when admission control
  /// shed it. Also feeds the lambda' estimator and runs the hysteresis
  /// check every check_interval arrivals.
  bool on_generic_arrival(double t, double u);

  /// A special task arrived at server `i` at time t (feeds lambda''_i).
  void on_special_arrival(double t, std::size_t i);

  /// `blades` blades of server i failed at time t (0 = all remaining).
  /// Triggers an immediate re-solve over the surviving topology.
  void on_failure(double t, std::size_t i, unsigned blades = 0);

  /// `blades` blades of server i came back at time t (0 = all missing).
  void on_recovery(double t, std::size_t i, unsigned blades = 0);

  /// An admitted generic task was routed to server i at time t. Feeds the
  /// health tracker's expected-rate side; no-op when health is disabled.
  void on_dispatch(double t, std::size_t i);

  /// A task completed at server i at time t. Feeds the health tracker's
  /// observed-rate side and runs the (throttled) quarantine state
  /// machine; no-op when health is disabled.
  void on_completion(double t, std::size_t i);

  /// Forces an immediate re-estimate + re-solve + publish (epoch
  /// boundaries, tests).
  void resolve_now(double t);

  // --- read side (any thread) ---

  /// The current routing sampler; never null while any server is alive
  /// (a capacity-proportional table is published at construction).
  /// Null only when every blade is down — shed_probability() is 1 then.
  [[nodiscard]] std::shared_ptr<const util::AliasTable> weights() const;

  /// Published routing fractions over all n servers (zeros for removed
  /// servers); empty when no table is published (all blades down).
  [[nodiscard]] std::vector<double> routing_fractions() const;

  /// Probability that admission control sheds an offered generic task.
  [[nodiscard]] double shed_probability() const noexcept;

  /// Monotone counter bumped on every urgent publication (degraded-mode
  /// transition, quarantine redistribution, checkpoint restore). Per-
  /// thread DispatchShards compare it against their cached value each
  /// route and refresh immediately on mismatch, instead of serving a
  /// stale table for up to refresh_interval more draws.
  [[nodiscard]] std::uint64_t publish_epoch() const noexcept {
    return publish_epoch_.load(std::memory_order_acquire);
  }

  // --- introspection (control thread only) ---

  [[nodiscard]] double estimated_lambda(double t) const;
  /// lambda''_i estimate the next solve would use: the online estimate
  /// once warmed up, the spec preload before that.
  [[nodiscard]] double estimated_special_rate(std::size_t i, double t) const;
  [[nodiscard]] unsigned available_blades(std::size_t i) const;
  [[nodiscard]] std::size_t alive_servers() const noexcept;
  /// The offered-rate estimate consumed by the last solve (< 0 before
  /// the first estimate-driven solve).
  [[nodiscard]] double last_solved_lambda() const noexcept { return solved_lambda_; }
  /// The special rates lambda''_i the last solve assumed, full-cluster
  /// indexed; < 0 for the servers it left out (dark, or quarantined while
  /// a healthy alternative was up), so all < 0 before the first solve.
  [[nodiscard]] const std::vector<double>& last_solved_special_rates() const noexcept {
    return solved_special_;
  }
  [[nodiscard]] const ControllerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const model::Cluster& cluster() const noexcept { return cluster_; }
  [[nodiscard]] std::size_t size() const noexcept { return cluster_.size(); }

  /// Health introspection; Healthy / 1.0 when health is disabled.
  [[nodiscard]] bool health_enabled() const noexcept { return health_ != nullptr; }
  [[nodiscard]] HealthState health_state(std::size_t i) const;
  [[nodiscard]] double health_score(std::size_t i) const;
  /// The effective-speed multiplier re-solves apply to server i: the
  /// frozen degraded estimate while Quarantined or on Probation, 1
  /// otherwise and whenever health is disabled.
  [[nodiscard]] double health_speed_factor(std::size_t i) const;

  // --- resilience (control thread only) ---

  /// Which state machine state the published table came from.
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// The diagnostic of the most recent contained solver failure
  /// (ErrorCode::Ok when the last re-solve succeeded).
  [[nodiscard]] const Error& last_solver_error() const noexcept { return last_error_; }

  /// True when the last-known-good split could be served at time t:
  /// it exists, is younger than lkg_max_age, and every server it routes
  /// to still has at least the blades it had when solved.
  [[nodiscard]] bool lkg_servable(double t) const noexcept;

  /// Age (event time) of the last successful solve at time t; t itself
  /// when no solve has succeeded yet. The SLO staleness objective.
  [[nodiscard]] double lkg_age(double t) const noexcept;

  /// Fault injection: the next `n` re-solves fail with a typed
  /// NonConvergence error instead of calling the optimizer, exercising
  /// the containment path deterministically (chaos harness hook).
  void arm_solver_fault(std::uint64_t n = 1) noexcept { armed_faults_ += n; }
  [[nodiscard]] std::uint64_t armed_faults() const noexcept { return armed_faults_; }

  /// Serializes the full control-plane state (topology view, estimator
  /// states, last solve, LKG, mode) as a version-1 JSON document; see
  /// docs/resilience.md for the schema.
  [[nodiscard]] std::string checkpoint_json() const;

  /// Restores state from checkpoint_json() output. Validates everything
  /// before mutating: a malformed document returns ParseError, a
  /// checkpoint for a different topology or of sliding-window estimators
  /// (written by an older build) returns StaleState, inconsistent
  /// estimator snapshots return InvalidArgument — in all three cases
  /// *this is untouched. On success
  /// the checkpointed table is re-published and Ok is returned.
  [[nodiscard]] blade::Status restore_checkpoint(const std::string& json);

 private:
  /// Generic capacity of server i under the surviving blade count and the
  /// health tracker's effective-speed factor (1 when health is off).
  [[nodiscard]] double capacity(std::size_t i) const;
  /// Health-adjusted effective-speed multiplier (1 when health is off).
  [[nodiscard]] double health_factor(std::size_t i) const;
  /// True when at least one alive server is not quarantined; when false
  /// the fleet is "otherwise dark" and quarantined blades stay servable.
  [[nodiscard]] bool any_routable_alive() const;
  /// Runs the quarantine state machine every check_interval health events.
  void maybe_evaluate_health(double t);
  void evaluate_health(double t);
  /// Cheap quarantine containment: zeroes quarantined blades' published
  /// fractions and renormalizes — no optimizer call.
  void publish_quarantine(double t);
  void bump_publish_epoch() noexcept {
    publish_epoch_.fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] double special_rate_for_solve(std::size_t i, double t) const;
  /// The servers a re-solve at time t models, into model_alive_ (index
  /// order) and model_special_ (their preloads, special_rate_for_solve;
  /// -1 for the servers left out): alive, and not quarantined unless the
  /// fleet is otherwise dark. Returns their lambda'_max.
  double build_model(double t);
  /// The re-solve's solver over the servers build_model() chose, as the
  /// re-solve models them, for the drift check and resolve() alike.
  [[nodiscard]] opt::ShardedOptimizer make_solver() const;
  /// The drift check, every check_interval generic arrivals (see
  /// docs/runtime.md): re-solves during warmup, in a degraded mode, at
  /// the admission ceiling or while shedding, when the held split has no
  /// round to price, and when the round's predicted loss exceeds
  /// loss_threshold; otherwise counts a skip.
  void check_drift(double t);
  /// Re-solves at time t: build_model(t), then resolve_on_model.
  void resolve(double t);
  /// Re-solves at time t on the model build_model(t) left, of lambda'_max
  /// `lambda_max`, timed from `started_ns`. A drift check that fires runs
  /// it on the model it built, timed from its own start, and hands over
  /// the solver it built and, on predicted loss, the round it evaluated,
  /// which the solve starts from.
  void resolve_on_model(double t, double lambda_max, std::uint64_t started_ns,
                        const opt::ShardedOptimizer* check_solver = nullptr,
                        const opt::FirstRound* round = nullptr);
  /// Validated publication: rejects any weight vector AliasTable would
  /// not accept (NaN/negative/all-zero) instead of publishing it.
  /// Returns false and leaves the previous table in place on rejection.
  bool publish(const std::vector<double>& weights, double shed_prob);
  void publish_fallback(double shed_prob, obs::Cause cause = obs::Cause::None);
  void publish_blackout(obs::Cause cause = obs::Cause::Infeasible);
  /// Failure containment: serve the LKG split while servable, otherwise
  /// the capacity-proportional fallback; never leaves the slot invalid.
  void contain(double t, double shed_prob, Error err);
  void remember_lkg(double t, double lambda, const std::vector<double>& weights);
  /// Mode change bookkeeping: on an actual transition records the
  /// ModeTransition event (with `cause`) and triggers a recorder
  /// auto-dump, so every degraded-mode change leaves an audit trail.
  void set_mode(Mode m, obs::Cause cause = obs::Cause::None);
  [[nodiscard]] double lkg_max_age() const noexcept;
  /// Repairs corrupt event times (non-finite or backwards → the last
  /// credible instant) so one poisoned timestamp cannot wedge the
  /// estimators or the drift check; counts repairs.
  [[nodiscard]] double sanitize_time(double t);

  /// Last successful solve, kept for degraded-mode serving.
  struct Lkg {
    bool valid = false;
    double time = 0.0;    ///< event time of the solve
    double lambda = 0.0;  ///< admitted lambda' it was solved for
    std::vector<double> weights;
    std::vector<unsigned> avail;  ///< blade counts it assumed
  };

  model::Cluster cluster_;
  ControllerConfig cfg_;
  std::vector<unsigned> avail_;  ///< surviving blades per server

  std::vector<EwmaRateEstimator> ewma_;  ///< [0] = lambda', [i+1] = lambda''_i

  opt::SolverWorkspace ws_;
  double solved_lambda_ = -1.0;
  std::vector<double> solved_special_;
  /// T' the last re-solve reported when it succeeded; < 0 when there is no
  /// reference (boot, after a restore, after any other re-solve exit).
  double reference_tprime_ = -1.0;
  std::vector<std::size_t> model_alive_;
  std::vector<double> model_special_;
  opt::FirstRound round_;  ///< drift-check scratch, handed only to the re-solve it fires
  std::uint64_t arrivals_since_check_ = 0;
  ControllerStats stats_;

  Mode mode_ = Mode::Fallback;
  Error last_error_{ErrorCode::Ok, {}};
  Lkg lkg_;
  std::uint64_t armed_faults_ = 0;
  double last_event_time_ = 0.0;

  std::unique_ptr<HealthTracker> health_;  ///< null when health is off
  std::vector<HealthTransition> health_scratch_;
  std::uint64_t health_events_since_eval_ = 0;

  std::atomic<double> shed_prob_{0.0};
  std::atomic<std::uint64_t> publish_epoch_{0};
  detail::TableSlot table_;
};

}  // namespace blade::runtime
