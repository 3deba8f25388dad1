#include "runtime/controller.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"

namespace blade::runtime {

namespace {

/// What the admission ceiling is a fraction of: the modelled servers'
/// lambda'_max, or the kept servers' capacity when the re-solve's solver
/// prunes some of them (a pruned solve is Infeasible at or above it).
double admissible_capacity(double lambda_max, const opt::ShardedOptimizer* solver) {
  return solver != nullptr && solver->pruned_servers() > 0 ? solver->kept_capacity()
                                                            : lambda_max;
}

}  // namespace

void ControllerConfig::validate() const {
  if (!(half_life > 0.0) || !std::isfinite(half_life)) {
    throw std::invalid_argument("ControllerConfig: half_life must be > 0");
  }
  if (!(loss_threshold >= 0.0) || !std::isfinite(loss_threshold)) {
    throw std::invalid_argument("ControllerConfig: loss_threshold must be finite and >= 0");
  }
  if (check_interval < 1) {
    throw std::invalid_argument("ControllerConfig: check_interval must be >= 1");
  }
  if (!(utilization_ceiling > 0.0) || !(utilization_ceiling < 1.0)) {
    throw std::invalid_argument("ControllerConfig: utilization_ceiling must be in (0, 1)");
  }
  if (!(initial_lambda >= 0.0) || !std::isfinite(initial_lambda)) {
    throw std::invalid_argument("ControllerConfig: initial_lambda must be >= 0");
  }
  if (!(lkg_max_age >= 0.0) || !std::isfinite(lkg_max_age)) {
    throw std::invalid_argument("ControllerConfig: lkg_max_age must be >= 0");
  }
  if (prune_top_k > 0 && shard_cells == 0) {
    throw std::invalid_argument("ControllerConfig: prune_top_k requires shard_cells > 0");
  }
  health.validate();
  solver.validate();
}

const char* to_string(Mode m) noexcept {
  switch (m) {
    case Mode::Optimal: return "optimal";
    case Mode::LastKnownGood: return "last_known_good";
    case Mode::Fallback: return "fallback";
    case Mode::Blackout: return "blackout";
  }
  return "unknown";
}

double ControllerStats::shed_fraction() const noexcept {
  const std::uint64_t offered = admitted + shed;
  return offered > 0 ? static_cast<double>(shed) / static_cast<double>(offered) : 0.0;
}

Controller::Controller(model::Cluster cluster, ControllerConfig cfg)
    : cluster_(std::move(cluster)), cfg_(cfg) {
  cfg_.validate();
  const std::size_t n = cluster_.size();
  avail_.resize(n);
  for (std::size_t i = 0; i < n; ++i) avail_[i] = cluster_.server(i).size();
  solved_special_.assign(n, -1.0);
  model_alive_.reserve(n);
  model_special_.reserve(n);

  ewma_.assign(n + 1, EwmaRateEstimator(cfg_.half_life, 0.0));

  if (cfg_.health.enabled) {
    health_ = std::make_unique<HealthTracker>(n, cfg_.health, 0.0);
    health_scratch_.reserve(n);
  }

  if (cfg_.initial_lambda > 0.0) {
    resolve(0.0);
  } else {
    publish_fallback(0.0);
  }
}

double Controller::health_factor(std::size_t i) const {
  return health_ ? health_->speed_factor(i) : 1.0;
}

bool Controller::any_routable_alive() const {
  for (std::size_t i = 0; i < avail_.size(); ++i) {
    if (avail_[i] > 0 && (!health_ || health_->routable(i))) return true;
  }
  return false;
}

double Controller::capacity(std::size_t i) const {
  return static_cast<double>(avail_[i]) * cluster_.server(i).speed() * health_factor(i) /
         cluster_.rbar();
}

double Controller::estimated_lambda(double t) const {
  return ewma_[0].rate(t);
}

double Controller::estimated_special_rate(std::size_t i, double t) const {
  if (i >= cluster_.size()) throw std::invalid_argument("Controller: server index out of range");
  if (ewma_[i + 1].count() < cfg_.min_arrivals) return cluster_.server(i).special_rate();
  return ewma_[i + 1].rate(t);
}

double Controller::special_rate_for_solve(std::size_t i, double t) const {
  // Clamp below the surviving capacity so the effective per-server model
  // stays constructible even when the estimate (or the nominal preload
  // after blade loss) would saturate the server on its own.
  return std::min(estimated_special_rate(i, t), cfg_.utilization_ceiling * capacity(i));
}

unsigned Controller::available_blades(std::size_t i) const {
  if (i >= avail_.size()) throw std::invalid_argument("Controller: server index out of range");
  return avail_[i];
}

std::size_t Controller::alive_servers() const noexcept {
  std::size_t alive = 0;
  for (unsigned a : avail_) {
    if (a > 0) ++alive;
  }
  return alive;
}

std::shared_ptr<const util::AliasTable> Controller::weights() const {
  return table_.load();
}

std::vector<double> Controller::routing_fractions() const {
  const auto table = weights();
  return table ? table->fractions() : std::vector<double>{};
}

double Controller::shed_probability() const noexcept {
  return shed_prob_.load(std::memory_order_relaxed);
}

double Controller::sanitize_time(double t) {
  if (std::isfinite(t) && t >= last_event_time_) {
    last_event_time_ = t;
    return t;
  }
  // Non-finite or backwards clock: the event is real, the timestamp is
  // not. Repair to the last credible instant so one poisoned time cannot
  // wedge the estimators, the drift check, or the LKG staleness bound.
  ++stats_.rejected_observations;
  BLADE_OBS_COUNT("runtime.rejected_observations");
  return last_event_time_;
}

bool Controller::on_generic_arrival(double t, double u) {
  t = sanitize_time(t);
  ++stats_.generic_arrivals;
  BLADE_OBS_COUNT("runtime.generic_arrivals");
  ewma_[0].try_observe(t);
  if (++arrivals_since_check_ >= cfg_.check_interval) {
    arrivals_since_check_ = 0;
    check_drift(t);
  }
  // A NaN draw fails the comparison and admits -- the caller's RNG lied,
  // not the task; shedding stays driven by healthy draws.
  const bool admit = !(u < shed_prob_.load(std::memory_order_relaxed));
  if (admit) {
    ++stats_.admitted;
    BLADE_OBS_COUNT("runtime.admitted");
  } else {
    ++stats_.shed;
    BLADE_OBS_COUNT("runtime.shed_tasks");
  }
  return admit;
}

void Controller::on_special_arrival(double t, std::size_t i) {
  if (i >= cluster_.size()) throw std::invalid_argument("Controller: server index out of range");
  t = sanitize_time(t);
  ++stats_.special_arrivals;
  BLADE_OBS_COUNT("runtime.special_arrivals");
  ewma_[i + 1].try_observe(t);
}

void Controller::on_failure(double t, std::size_t i, unsigned blades) {
  if (i >= avail_.size()) throw std::invalid_argument("Controller: server index out of range");
  t = sanitize_time(t);
  ++stats_.failures;
  BLADE_OBS_COUNT("runtime.failures");
  const unsigned before = avail_[i];
  avail_[i] = blades == 0 ? 0u : avail_[i] - std::min(avail_[i], blades);
  BLADE_OBS_EVENT(BladeFail, i, avail_[i], before - avail_[i], t);
  // Hard failure supersedes gray scoring: the topology view already
  // carries the outage, so stale health state must not double-penalize
  // the blade when it returns.
  if (health_) health_->reset_server(i, t);
  BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Failure, 0.0, cfg_.loss_threshold, t);
  resolve(t);
}

void Controller::on_recovery(double t, std::size_t i, unsigned blades) {
  if (i >= avail_.size()) throw std::invalid_argument("Controller: server index out of range");
  t = sanitize_time(t);
  ++stats_.recoveries;
  BLADE_OBS_COUNT("runtime.recoveries");
  const unsigned before = avail_[i];
  const unsigned full = cluster_.server(i).size();
  avail_[i] = blades == 0 ? full : std::min(full, avail_[i] + blades);
  BLADE_OBS_EVENT(BladeRecover, i, avail_[i], avail_[i] - before, t);
  if (health_) health_->reset_server(i, t);
  BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Recovery, 0.0, cfg_.loss_threshold, t);
  resolve(t);
}

void Controller::resolve_now(double t) {
  t = sanitize_time(t);
  BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Forced, 0.0, cfg_.loss_threshold, t);
  resolve(t);
}

void Controller::on_dispatch(double t, std::size_t i) {
  if (!health_) return;
  if (i >= cluster_.size()) throw std::invalid_argument("Controller: server index out of range");
  t = sanitize_time(t);
  health_->on_dispatch(t, i);
  maybe_evaluate_health(t);
}

void Controller::on_completion(double t, std::size_t i) {
  if (!health_) return;
  if (i >= cluster_.size()) throw std::invalid_argument("Controller: server index out of range");
  t = sanitize_time(t);
  health_->on_completion(t, i);
  maybe_evaluate_health(t);
}

void Controller::maybe_evaluate_health(double t) {
  // Same cadence knob as the drift check: scoring every dispatch +
  // completion would double the per-task control cost for no detection
  // benefit (the EWMAs integrate between evaluations anyway).
  if (++health_events_since_eval_ < cfg_.check_interval) return;
  health_events_since_eval_ = 0;
  evaluate_health(t);
}

void Controller::evaluate_health(double t) {
  health_scratch_.clear();
  if (!health_->evaluate(t, health_scratch_)) return;
  bool need_resolve = false;
  bool need_redistribute = false;
  obs::Cause cause = obs::Cause::None;
  for (const auto& tr : health_scratch_) {
    ++stats_.health_transitions;
    BLADE_OBS_COUNT("runtime.health.transitions");
    BLADE_OBS_EVENT(HealthTransition, tr.server,
                    static_cast<double>(static_cast<std::uint8_t>(tr.from)),
                    static_cast<double>(static_cast<std::uint8_t>(tr.to)), tr.score);
    switch (tr.to) {
      case HealthState::Quarantined:
        ++stats_.quarantines;
        BLADE_OBS_COUNT("runtime.health.quarantines");
        // Containment is urgent and cheap: zero the blade's weight and
        // renormalize, no optimizer call.
        need_redistribute = true;
        break;
      case HealthState::Probation:
        ++stats_.probations;
        BLADE_OBS_COUNT("runtime.health.probations");
        // Probing needs real (small) flow: re-solve with the degraded
        // effective speed so the optimizer allocates probe traffic.
        need_resolve = true;
        if (cause == obs::Cause::None) cause = obs::Cause::Probation;
        break;
      case HealthState::Healthy:
        if (tr.from == HealthState::Probation) {
          ++stats_.health_recoveries;
          BLADE_OBS_COUNT("runtime.health.recoveries");
          need_resolve = true;
          cause = obs::Cause::HealthRecovered;
        }
        break;
      case HealthState::Suspect:
        break;  // dwell filter only; no routing change yet
    }
  }
  BLADE_OBS_GAUGE_SET("runtime.health.quarantined",
                      static_cast<double>(health_->quarantined_count()));
  if (need_resolve) {
    // The effective topology changed (a blade's solver speed moved, the
    // alive set may differ): same treatment as fail/recover.
    BLADE_OBS_EVENT(ResolveTrigger, cause, 0.0, cfg_.loss_threshold, t);
    resolve(t);
  } else if (need_redistribute) {
    publish_quarantine(t);
  }
}

void Controller::publish_quarantine(double t) {
  // Fleet otherwise dark: with no healthy alternative, degraded service
  // beats no service — keep the current table and let the state machine
  // probe its way out.
  if (!any_routable_alive()) return;
  std::vector<double> w = routing_fractions();
  if (w.size() == cluster_.size()) {
    bool changed = false;
    double total = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (avail_[i] == 0 || !health_->routable(i)) {
        if (w[i] > 0.0) {
          w[i] = 0.0;
          changed = true;
        }
      } else {
        total += w[i];
      }
    }
    if (!changed) return;  // the quarantined blade carried no weight
    BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Quarantine, 0.0, 0.0, t);
    if (total > 0.0 && publish(w, shed_probability())) {
      // Mode intentionally unchanged: this is containment on top of
      // whatever split was being served, not a degradation of it (and a
      // degraded mode would trigger DegradedRetry full re-solves,
      // defeating the cheap path).
      ++stats_.quarantine_publications;
      BLADE_OBS_COUNT("runtime.health.quarantine_publications");
      bump_publish_epoch();
      return;
    }
  }
  // No redistributable table (blackout, or every weighted blade is now
  // quarantined): the proportional fallback below also skips quarantined
  // blades.
  publish_fallback(shed_probability(), obs::Cause::Quarantine);
  bump_publish_epoch();
}

HealthState Controller::health_state(std::size_t i) const {
  if (i >= cluster_.size()) throw std::invalid_argument("Controller: server index out of range");
  return health_ ? health_->state(i) : HealthState::Healthy;
}

double Controller::health_score(std::size_t i) const {
  if (i >= cluster_.size()) throw std::invalid_argument("Controller: server index out of range");
  return health_ ? health_->score(i) : 1.0;
}

double Controller::health_speed_factor(std::size_t i) const {
  if (i >= cluster_.size()) throw std::invalid_argument("Controller: server index out of range");
  return health_factor(i);
}

void Controller::check_drift(double t) {
  if (ewma_[0].count() < cfg_.min_arrivals) return;  // estimator still warming up
  if (solved_lambda_ < 0.0) {
    BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Warmup, 0.0, cfg_.loss_threshold, t);
    resolve(t);
    return;
  }
  if (mode_ != Mode::Optimal) {
    // Degraded: keep retrying every check until a solve lands, bypassing
    // hysteresis -- serving a stale or proportional split is a condition
    // to exit, not a steady state to settle into.
    BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::DegradedRetry, 0.0, cfg_.loss_threshold, t);
    resolve(t);
    return;
  }
  const std::uint64_t started = obs::monotonic_ns();
  const double lam = estimated_lambda(t);
  const double lambda_max = build_model(t);
  // A pruning controller reads its ceiling from the re-solve's solver,
  // so it builds that solver first.
  std::optional<opt::ShardedOptimizer> solver;
  if (cfg_.prune_top_k > 0 && lambda_max > 0.0) solver.emplace(make_solver());
  const double ceiling =
      cfg_.utilization_ceiling * admissible_capacity(lambda_max, solver ? &*solver : nullptr);
  // Feasibility first: only a re-solve engages admission control at the
  // ceiling, and only a re-solve tracks lambda' while it sheds.
  if (!(lam < ceiling) || shed_prob_.load(std::memory_order_relaxed) > 0.0) {
    ++stats_.shedding_checks;
    BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Shedding, lam, ceiling, t);
    resolve_on_model(t, lambda_max, started, solver ? &*solver : nullptr);
    return;
  }

  // The held split at lambda-hat over the modelled servers (those with a
  // preload in model_special_). Without a reference T', a table, or with
  // weight on a server the re-solve leaves out, there is nothing to price:
  // the check fires.
  const auto table = weights();
  bool held = reference_tprime_ > 0.0 && table && table->fractions().size() == cluster_.size();
  std::vector<double> rates;
  rates.reserve(model_alive_.size());
  for (std::size_t i = 0; held && i < cluster_.size(); ++i) {
    const double fraction = table->fractions()[i];
    if (model_special_[i] >= 0.0) {
      rates.push_back(fraction * lam);
    } else {
      held = !(fraction > 0.0);
    }
  }
  // Otherwise the re-solve's own solver takes its warm solve's first round
  // there, one evaluation per kept class, and the round's model prices it.
  double loss = -1.0;
  if (held) {
    if (!solver) solver.emplace(make_solver());
    if (const auto decrease = solver->first_round(lam, rates, round_)) {
      loss = std::max(0.0, decrease.value()) / reference_tprime_;
    }
  }
  if (loss >= 0.0) BLADE_OBS_OBSERVE("runtime.predicted_loss", loss);
  if (loss >= 0.0 && loss <= cfg_.loss_threshold) {
    ++stats_.skipped_by_hysteresis;
    stats_.check_evaluations += solver->server_classes();
    BLADE_OBS_COUNT("runtime.skipped_by_hysteresis");
    return;
  }
  // Fired, unevaluated (loss -1) or on predicted loss, which has a round.
  ++(loss < 0.0 ? stats_.unevaluated_checks : stats_.loss_checks);
  BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Drift, loss, cfg_.loss_threshold, t);
  resolve_on_model(t, lambda_max, started, solver ? &*solver : nullptr,
                   loss < 0.0 ? nullptr : &round_);
}

void Controller::set_mode(Mode m, obs::Cause cause) {
  const Mode from = mode_;
  mode_ = m;
  BLADE_OBS_GAUGE_SET("runtime.degraded_mode", static_cast<double>(m));
  if (from == m) return;
  // Urgent publication: per-thread dispatch shards must not serve the
  // displaced table for up to refresh_interval more draws.
  bump_publish_epoch();
  ++stats_.mode_transitions;
  BLADE_OBS_COUNT("runtime.mode_transitions");
  BLADE_OBS_EVENT(ModeTransition, cause, static_cast<double>(from), static_cast<double>(m),
                  last_event_time_);
  // Every degraded-mode transition snapshots the flight recorder: the
  // dump's tail is the causal prefix explaining why the mode changed.
  BLADE_OBS_DUMP(std::string("mode:") + to_string(m));
}

double Controller::lkg_max_age() const noexcept {
  return cfg_.lkg_max_age > 0.0 ? cfg_.lkg_max_age : 8.0 * cfg_.half_life;
}

bool Controller::lkg_servable(double t) const noexcept {
  if (!lkg_.valid) return false;
  if (!(t - lkg_.time <= lkg_max_age())) return false;
  for (std::size_t i = 0; i < lkg_.weights.size(); ++i) {
    // A server the LKG routes to must keep every blade it was solved
    // with: fewer blades means the stale split could overload it. A
    // quarantined server disqualifies it the same way — serving the LKG
    // would route real weight at a blade health just fenced off.
    if (lkg_.weights[i] > 0.0 && avail_[i] < lkg_.avail[i]) return false;
    if (lkg_.weights[i] > 0.0 && health_ && !health_->routable(i)) return false;
  }
  return true;
}

double Controller::lkg_age(double t) const noexcept {
  return lkg_.valid ? std::max(0.0, t - lkg_.time) : std::max(0.0, t);
}

void Controller::remember_lkg(double t, double lambda, const std::vector<double>& weights) {
  lkg_.valid = true;
  lkg_.time = t;
  lkg_.lambda = lambda;
  lkg_.weights = weights;
  lkg_.avail = avail_;
}

bool Controller::publish(const std::vector<double>& weights, double shed_prob) {
  auto table = util::AliasTable::try_make(weights);
  if (!table) return false;  // never publish NaN/negative/empty weights
  shed_prob_.store(shed_prob, std::memory_order_relaxed);
  table_.store(std::make_shared<const util::AliasTable>(std::move(table).value()));
  ++stats_.publications;
  BLADE_OBS_COUNT("runtime.publications");
  BLADE_OBS_GAUGE_SET("runtime.shed_probability", shed_prob);
  BLADE_OBS_EVENT(AliasPublish, stats_.publications, shed_prob, 0.0, last_event_time_);
  return true;
}

void Controller::publish_blackout(obs::Cause cause) {
  if (mode_ == Mode::Blackout) return;  // already serving nothing
  shed_prob_.store(1.0, std::memory_order_relaxed);
  table_.store(nullptr);
  ++stats_.publications;
  BLADE_OBS_COUNT("runtime.publications");
  BLADE_OBS_GAUGE_SET("runtime.shed_probability", 1.0);
  BLADE_OBS_EVENT(AliasPublish, stats_.publications, 1.0, 0.0, last_event_time_);
  set_mode(Mode::Blackout, cause);
}

void Controller::publish_fallback(double shed_prob, obs::Cause cause) {
  // Generic-capacity-proportional split over the surviving servers: any
  // feasible admitted total split this way keeps every server below its
  // own bound, so the fallback is safe whatever the (unknown) load is.
  std::vector<double> w(cluster_.size(), 0.0);
  double total = 0.0;
  const bool dark = health_ && !any_routable_alive();
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    if (avail_[i] == 0) continue;
    // Quarantined blades get no fallback weight either — unless the
    // fleet is otherwise dark, where degraded service beats blackout.
    if (health_ && !dark && !health_->routable(i)) continue;
    const double gc =
        capacity(i) - std::min(cluster_.server(i).special_rate(),
                               cfg_.utilization_ceiling * capacity(i));
    w[i] = std::max(gc, 0.0);
    total += w[i];
  }
  if (total > 0.0 && publish(w, shed_prob)) {
    set_mode(Mode::Fallback, cause);
  } else {
    publish_blackout(cause);
  }
}

void Controller::contain(double t, double shed_prob, Error err) {
  BLADE_OBS_TIMER("runtime.fallback_publish_seconds");
  ++stats_.solver_failures;
  BLADE_OBS_COUNT("runtime.solver_failures");
  BLADE_OBS_COUNT("runtime.fallback_publications");
  last_error_ = std::move(err);
  if (lkg_servable(t) && publish(lkg_.weights, shed_prob)) {
    ++stats_.lkg_publications;
    BLADE_OBS_COUNT("runtime.fallback_lkg");
    set_mode(Mode::LastKnownGood, obs::Cause::SolverError);
    return;
  }
  ++stats_.fallback_publications;
  BLADE_OBS_COUNT("runtime.fallback_proportional");
  publish_fallback(shed_prob, obs::Cause::SolverError);
}

double Controller::build_model(double t) {
  // Quarantined blades are excluded (their solved preload stays the -1
  // sentinel) unless the fleet is otherwise dark — then degraded service
  // beats blackout.
  const bool dark = health_ && !any_routable_alive();
  model_alive_.clear();
  model_special_.assign(cluster_.size(), -1.0);
  double lambda_max = 0.0;
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    if (avail_[i] == 0) continue;
    if (health_ && !dark && !health_->routable(i)) continue;
    model_alive_.push_back(i);
    model_special_[i] = special_rate_for_solve(i, t);
    lambda_max += capacity(i) - model_special_[i];
  }
  return lambda_max;
}

opt::ShardedOptimizer Controller::make_solver() const {
  // Surviving blades and the preloads in model_special_. The solver sees
  // the health-degraded effective speed: a Probation blade gets its frozen
  // quarantine-era estimate (floored), so the optimizer allocates
  // probe-sized flow instead of the nominal share.
  std::vector<model::BladeServer> servers;
  servers.reserve(model_alive_.size());
  for (std::size_t i : model_alive_) {
    servers.emplace_back(avail_[i], cluster_.server(i).speed() * health_factor(i),
                         model_special_[i]);
  }
  // shard_cells = 0 solves as one cell on this thread. The controller
  // only needs rates, so the per-server metric expansion is skipped.
  opt::ShardOptions shard;
  shard.cells = cfg_.shard_cells;
  shard.prune.top_k = cfg_.prune_top_k;
  shard.finalize_metrics = false;
  return {model::Cluster(std::move(servers), cluster_.rbar()), cfg_.discipline, cfg_.solver, shard};
}

void Controller::resolve(double t) {
  // Timed from here, so the model's build counts as part of the re-solve.
  const std::uint64_t started = obs::monotonic_ns();
  resolve_on_model(t, build_model(t), started);
}

void Controller::resolve_on_model(double t, double lambda_max, std::uint64_t started_ns,
                                  const opt::ShardedOptimizer* check_solver,
                                  const opt::FirstRound* round) {
  ++stats_.resolves;
  BLADE_OBS_COUNT("runtime.resolves");
  BLADE_OBS_TIMER("runtime.resolve_seconds");
  // Unconditional wall timing (two clock reads per re-solve): the SLO
  // resolve-latency monitor needs it even in BLADE_OBS=OFF builds.
  struct ResolveTimer {
    ControllerStats& stats;
    std::uint64_t t0;
    ~ResolveTimer() {
      const double elapsed = static_cast<double>(obs::monotonic_ns() - t0) * 1e-9;
      stats.last_resolve_seconds = elapsed;
      stats.resolve_seconds_total += elapsed;
    }
  } resolve_timer{stats_, started_ns};
  reference_tprime_ = -1.0;  // until this solve succeeds

  const double lam_hat =
      ewma_[0].count() >= cfg_.min_arrivals ? estimated_lambda(t) : cfg_.initial_lambda;
  BLADE_OBS_GAUGE_SET("runtime.estimated_lambda", lam_hat);

  // Surviving topology and the special preloads the solve assumes.
  const std::vector<std::size_t>& alive = model_alive_;
  if (alive.empty() || !(lambda_max > 0.0)) {
    solved_lambda_ = lam_hat;
    solved_special_ = model_special_;
    ++stats_.infeasible_resolves;
    BLADE_OBS_COUNT("runtime.infeasible_resolves");
    publish_blackout(obs::Cause::Infeasible);
    return;
  }

  // The solver a check handed over, or a pruning controller's own, which
  // the ceiling needs; any other re-solve builds it only to solve.
  std::optional<opt::ShardedOptimizer> built;
  const opt::ShardedOptimizer* solver = check_solver;
  if (solver == nullptr && cfg_.prune_top_k > 0) solver = &built.emplace(make_solver());
  const double ceiling = cfg_.utilization_ceiling * admissible_capacity(lambda_max, solver);
  const double target = std::min(lam_hat, ceiling);
  const double shed_prob = lam_hat > 0.0 ? std::max(0.0, 1.0 - target / lam_hat) : 0.0;
  solved_lambda_ = lam_hat;
  solved_special_ = model_special_;
  if (shed_prob > 0.0) {
    ++stats_.infeasible_resolves;
    BLADE_OBS_COUNT("runtime.infeasible_resolves");
    BLADE_OBS_EVENT(ShedDecision, 0, lam_hat, ceiling, shed_prob);
  }

  if (!(target > 0.0)) {
    // Nothing measurable to place yet: publish the safe proportional
    // split and wait for load.
    publish_fallback(shed_prob, obs::Cause::NoLoad);
    return;
  }

  const auto sol = [&]() -> Expected<opt::LoadDistribution> {
    if (armed_faults_ > 0) {
      --armed_faults_;
      ++stats_.injected_faults;
      BLADE_OBS_COUNT("runtime.injected_solver_faults");
      BLADE_OBS_EVENT(ChaosInject, obs::Cause::InjectedFault, t, 0.0, 0.0);
      return Error{ErrorCode::NonConvergence, "injected solver fault"};
    }
    // On predicted loss a check also hands over its round: the held split
    // at lambda-hat, already evaluated, which the solve starts from.
    if (solver == nullptr) solver = &built.emplace(make_solver());
    if (round == nullptr && lkg_.valid) {
      // Start from the last successful split over the servers this solve
      // sees: after a failover or a quarantine the workspace's own rates
      // are indexed by the previous alive set. A no-op on a workspace
      // with no previous solve (boot, checkpoint restore), which stays
      // cold.
      std::vector<double> start(alive.size());
      for (std::size_t k = 0; k < alive.size(); ++k) start[k] = lkg_.weights[alive[k]];
      ws_.warm_start(start);
    }
    auto res = solver->try_optimize(target, ws_, round);
    if (!res) return res.error();
    return std::move(res).value().dist;
  }();
  if (!sol) {
    contain(t, shed_prob, sol.error());
    return;
  }
  stats_.solver_evaluations += static_cast<std::uint64_t>(sol.value().inner_evaluations);

  std::vector<double> w(cluster_.size(), 0.0);
  for (std::size_t k = 0; k < alive.size(); ++k) w[alive[k]] = sol.value().rates[k];
  if (publish(w, shed_prob)) {
    set_mode(Mode::Optimal, obs::Cause::None);
    last_error_ = Error{ErrorCode::Ok, {}};
    remember_lkg(t, target, w);
    reference_tprime_ = sol.value().response_time;
  } else {
    BLADE_OBS_EVENT(ResolveTrigger, obs::Cause::Unpublishable, 0.0, 0.0, t);
    contain(t, shed_prob,
            Error{ErrorCode::NonFinite, "resolve: solver returned an unpublishable weight vector"});
  }
}

}  // namespace blade::runtime
