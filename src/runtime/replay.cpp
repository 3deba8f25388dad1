#include "runtime/replay.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/chaos.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/service.hpp"
#include "util/fileio.hpp"

namespace blade::runtime {

void ReplayTrace::validate(std::size_t n) const {
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("ReplayTrace: horizon must be > 0");
  }
  for (const auto& e : events) {
    if (!std::isfinite(e.time) || e.time < 0.0) {
      throw std::invalid_argument("ReplayTrace: event times must be finite and >= 0");
    }
    if (e.kind == ReplayEvent::Kind::Rate) {
      if (!std::isfinite(e.rate) || e.rate < 0.0) {
        throw std::invalid_argument("ReplayTrace: rates must be finite and >= 0");
      }
    } else if (e.server >= n) {
      throw std::invalid_argument("ReplayTrace: server index out of range");
    }
    if (e.kind == ReplayEvent::Kind::Slow &&
        (!std::isfinite(e.factor) || e.factor <= 0.0 || e.factor > 1.0)) {
      throw std::invalid_argument("ReplayTrace: slowdown factor must be in (0, 1]");
    }
  }
}

namespace {

Error parse_fail(std::size_t line_no, const std::string& what) {
  std::ostringstream msg;
  msg << "parse_replay_trace: line " << line_no << ": " << what;
  return make_error(ErrorCode::ParseError, msg.str());
}

/// Reads the next field into an unsigned `out`, written in digits:
/// extraction would wrap a minus sign around.
template <class T>
bool read_digits(std::istream& fields, T& out) {
  return std::isdigit((fields >> std::ws).peek()) && (fields >> out);
}

}  // namespace

Expected<ReplayTrace> try_parse_replay_trace(const std::string& text) {
  ReplayTrace trace;
  bool have_horizon = false;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  double last_time = 0.0;
  // Which servers the trace has fully failed so far, to reject the
  // contradictory "fail again what is already gone".
  std::set<std::size_t> fully_failed;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank / comment-only line
    if (keyword == "horizon") {
      if (!(fields >> trace.horizon)) return parse_fail(line_no, "horizon needs a number");
      have_horizon = true;
    } else if (keyword == "seed") {
      if (!read_digits(fields, trace.seed)) return parse_fail(line_no, "seed needs digits only");
    } else if (keyword == "rate") {
      ReplayEvent e;
      e.kind = ReplayEvent::Kind::Rate;
      if (!(fields >> e.time >> e.rate)) return parse_fail(line_no, "rate needs <t> <lambda>");
      if (!std::isfinite(e.rate) || e.rate < 0.0) {
        return parse_fail(line_no, "rate must be finite and >= 0");
      }
      trace.events.push_back(e);
    } else if (keyword == "fail" || keyword == "recover") {
      ReplayEvent e;
      e.kind = keyword == "fail" ? ReplayEvent::Kind::Fail : ReplayEvent::Kind::Recover;
      if (!(fields >> e.time) || !read_digits(fields, e.server)) {
        return parse_fail(line_no, keyword + " needs <t> <server index>");
      }
      // Blades are optional; they stay 0 (= all) when absent.
      if (!(fields >> std::ws).eof() && !read_digits(fields, e.blades)) {
        return parse_fail(line_no, keyword + ": blades must be a non-negative integer");
      }
      if (e.kind == ReplayEvent::Kind::Fail && e.blades == 0) {
        if (!fully_failed.insert(e.server).second) {
          return parse_fail(line_no, "server " + std::to_string(e.server) +
                                         " is already fully failed");
        }
      } else if (e.kind == ReplayEvent::Kind::Recover) {
        fully_failed.erase(e.server);
      }
      trace.events.push_back(e);
    } else if (keyword == "slow") {
      ReplayEvent e;
      e.kind = ReplayEvent::Kind::Slow;
      if (!(fields >> e.time) || !read_digits(fields, e.server) || !(fields >> e.factor)) {
        return parse_fail(line_no, "slow needs <t> <server index> <factor>");
      }
      if (!std::isfinite(e.factor) || e.factor <= 0.0 || e.factor > 1.0) {
        return parse_fail(line_no, "slowdown factor must be in (0, 1]");
      }
      trace.events.push_back(e);
    } else if (keyword == "stall" || keyword == "unstall") {
      ReplayEvent e;
      e.kind = keyword == "stall" ? ReplayEvent::Kind::Stall : ReplayEvent::Kind::Unstall;
      if (!(fields >> e.time) || !read_digits(fields, e.server)) {
        return parse_fail(line_no, keyword + " needs <t> <server index>");
      }
      trace.events.push_back(e);
    } else {
      return parse_fail(line_no, "unknown keyword '" + keyword + "'");
    }
    if (!trace.events.empty() && keyword != "horizon" && keyword != "seed") {
      const double t = trace.events.back().time;
      if (!std::isfinite(t) || t < 0.0) {
        return parse_fail(line_no, "event time must be finite and >= 0");
      }
      if (t < last_time) return parse_fail(line_no, "event times must be non-decreasing");
      last_time = t;
    }
    std::string extra;
    if (fields.clear(), fields >> extra) return parse_fail(line_no, "trailing tokens");
  }
  if (!have_horizon) {
    return make_error(ErrorCode::ParseError, "parse_replay_trace: missing 'horizon' line");
  }
  return trace;
}

ReplayTrace parse_replay_trace(const std::string& text) {
  auto trace = try_parse_replay_trace(text);
  if (!trace) throw std::invalid_argument(trace.error().context);
  return std::move(trace).value();
}

std::string to_text(const ReplayTrace& trace) {
  std::ostringstream out;
  out.precision(17);
  out << "horizon " << trace.horizon << "\n";
  out << "seed " << trace.seed << "\n";
  for (const auto& e : trace.events) {
    switch (e.kind) {
      case ReplayEvent::Kind::Rate:
        out << "rate " << e.time << " " << e.rate << "\n";
        break;
      case ReplayEvent::Kind::Fail:
        out << "fail " << e.time << " " << e.server << " " << e.blades << "\n";
        break;
      case ReplayEvent::Kind::Recover:
        out << "recover " << e.time << " " << e.server << " " << e.blades << "\n";
        break;
      case ReplayEvent::Kind::Slow:
        out << "slow " << e.time << " " << e.server << " " << e.factor << "\n";
        break;
      case ReplayEvent::Kind::Stall:
        out << "stall " << e.time << " " << e.server << "\n";
        break;
      case ReplayEvent::Kind::Unstall:
        out << "unstall " << e.time << " " << e.server << "\n";
        break;
    }
  }
  return out.str();
}

ReplayTrace reference_failure_trace(const model::Cluster& cluster, double horizon) {
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("reference_failure_trace: horizon must be > 0");
  }
  ReplayTrace trace;
  trace.horizon = horizon;
  const double lambda_max = cluster.max_generic_rate();
  // Diurnal shape: trough at the edges, a sustained peak over the middle
  // third — the peak overlaps the outage, so the surviving capacity is
  // exceeded exactly there and nowhere else.
  const double shape[] = {0.35, 0.55, 0.80, 0.80, 0.55, 0.35};
  for (std::size_t k = 0; k < 6; ++k) {
    ReplayEvent e;
    e.kind = ReplayEvent::Kind::Rate;
    e.time = horizon * static_cast<double>(k) / 6.0;
    e.rate = shape[k] * lambda_max;
    trace.events.push_back(e);
  }
  std::size_t biggest = 0;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    if (cluster.server(i).capacity(cluster.rbar()) >
        cluster.server(biggest).capacity(cluster.rbar())) {
      biggest = i;
    }
  }
  trace.events.push_back(
      {.time = horizon / 3.0, .kind = ReplayEvent::Kind::Fail, .server = biggest});
  trace.events.push_back(
      {.time = 2.0 * horizon / 3.0, .kind = ReplayEvent::Kind::Recover, .server = biggest});
  // The text format requires time order; keep to_text() round-trippable.
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) { return a.time < b.time; });
  return trace;
}

namespace {

/// Maps one trace event onto the simulator's failure schedule (Rate
/// events are driver concerns and are skipped). Fail/recover keep their
/// semantics; gray events carry the slowdown factor / stall toggles.
void append_sim_event(sim::FailureSchedule& sched, const ReplayEvent& e) {
  switch (e.kind) {
    case ReplayEvent::Kind::Rate:
      return;
    case ReplayEvent::Kind::Fail:
      sched.events.push_back({e.time, sim::FailureKind::Failure, e.server, e.blades});
      return;
    case ReplayEvent::Kind::Recover:
      sched.events.push_back({e.time, sim::FailureKind::Recovery, e.server, e.blades});
      return;
    case ReplayEvent::Kind::Slow:
      sched.events.push_back({e.time, sim::FailureKind::Slowdown, e.server, 0, e.factor});
      return;
    case ReplayEvent::Kind::Stall:
      sched.events.push_back({e.time, sim::FailureKind::StallStart, e.server, 0});
      return;
    case ReplayEvent::Kind::Unstall:
      sched.events.push_back({e.time, sim::FailureKind::StallEnd, e.server, 0});
      return;
  }
}

/// The checks both entry points share; `who` prefixes the message.
void validate_options(const model::Cluster& cluster, const ReplayTrace& trace,
                      const ReplayOptions& options, const std::string& who) {
  trace.validate(cluster.size());
  if (!(options.warmup >= 0.0) || options.warmup >= trace.horizon) {
    throw std::invalid_argument(who + ": warmup must be in [0, horizon)");
  }
  if (!(options.checkpoint_every >= 0.0) || !std::isfinite(options.checkpoint_every)) {
    throw std::invalid_argument(who + ": checkpoint_every must be >= 0");
  }
  if (options.checkpoint_every > 0.0 && options.checkpoint_out.empty()) {
    throw std::invalid_argument(who + ": checkpoint_every needs a checkpoint_out path");
  }
}

/// Returned by a router's route() for an arrival that is not routed
/// (shed by admission control, or no usable table published).
constexpr std::size_t kNotRouted = static_cast<std::size_t>(-1);

/// The one replay loop. It owns the engine, the response collector, the
/// simulated servers, the special streams, the variable-rate generic
/// source and the failure schedule (trace events plus chaos flap and
/// gray events), and assembles the SimResult. What happens to each
/// generic arrival is the Router's business, called directly (no
/// virtual or std::function hop on the per-arrival path):
///
///   std::size_t route(double t, servers)  destination, or kNotRouted
///   void dispatched(double t, dest)       after the task entered dest
///   void special_arrival(double t, i)     before a special task enters i
///   void blade_event(double t, event)     after the blades changed
///   bool observes_completions()           wire completion callbacks?
///   void completion(double t, i)          a generic task finished at i
///
/// Rate changes cancel and re-draw the pending interarrival, which is
/// valid because the exponential is memoryless. Callers may schedule
/// their own events on engine() between construction and run(); they
/// then fire after the trace's events at equal times.
template <class Router>
class ReplayLoop {
 public:
  ReplayLoop(const model::Cluster& cluster, const ReplayTrace& trace,
             const ReplayOptions& options, sim::SchedulingMode mode, Router& router)
      : router_(router),
        horizon_(trace.horizon),
        collector_(options.warmup, false),
        work_(sim::ServiceDistribution::from_scv(cluster.rbar(), options.service_scv)),
        arrivals_(trace.seed, 1000003),
        routed_(cluster.size(), 0),
        dispatch_sample_(options.dispatch_sample) {
    for (const auto& srv : cluster.servers()) {
      servers_.push_back(
          std::make_unique<sim::ServerSim>(engine_, srv.size(), srv.speed(), mode, collector_));
      raw_.push_back(servers_.back().get());
    }
    // Special streams: RNG stream ids match the static simulator's
    // convention, so every router sees the same background load.
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const auto& srv = cluster.server(i);
      if (srv.special_rate() > 0.0) {
        // Two words of capture fit std::function's inline buffer: no heap
        // hop per special arrival.
        sources_.push_back(std::make_unique<sim::PoissonSource>(
            engine_, srv.special_rate(), work_, sim::TaskClass::Special,
            sim::RngStream(trace.seed, 2 * i + 1), [this, i](sim::Task t) {
              router_.special_arrival(engine_.now(), i);
              raw_[i]->arrive(t);
            }));
      }
    }

    sim::FailureSchedule failures;
    for (const auto& e : trace.events) {
      if (e.kind == ReplayEvent::Kind::Rate) {
        engine_.schedule_at(e.time, [this, rate = e.rate] { set_rate(rate); });
      } else {
        append_sim_event(failures, e);
      }
    }
    if (options.chaos != nullptr) {
      for (const ReplayEvent& e : options.chaos->flap_events(trace.horizon, cluster.size())) {
        append_sim_event(failures, e);
      }
      for (const ReplayEvent& e : options.chaos->gray_events(trace.horizon, cluster.size())) {
        append_sim_event(failures, e);
      }
    }
    // Blade events mutate the simulated servers first, then reach the
    // router at the same instant.
    sim::schedule_failures(engine_, failures, raw_, [this](const sim::FailureEvent& ev) {
      router_.blade_event(engine_.now(), ev);
    });
    if (router_.observes_completions()) {
      for (std::size_t i = 0; i < raw_.size(); ++i) {
        raw_[i]->set_completion_observer([this, i](const sim::Task& task, double) {
          if (task.cls == sim::TaskClass::Generic) router_.completion(engine_.now(), i);
        });
      }
    }
  }

  ReplayLoop(const ReplayLoop&) = delete;
  ReplayLoop& operator=(const ReplayLoop&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const sim::ResponseTimeCollector& collector() const noexcept {
    return collector_;
  }
  /// Generic tasks routed to each server so far.
  [[nodiscard]] const std::vector<std::uint64_t>& routed() const noexcept { return routed_; }

  /// Starts the special streams, runs to the horizon and reports.
  [[nodiscard]] sim::SimResult run() {
    for (auto& src : sources_) src->start();
    engine_.run_until(horizon_);
    sim::SimResult r;
    r.generic_mean_response = collector_.generic().mean();
    r.generic_samples = collector_.generic().count();
    r.special_mean_response = collector_.special().mean();
    r.special_samples = collector_.special().count();
    r.events = engine_.events_processed();
    for (const auto& s : servers_) {
      sim::ServerObservation obs;
      obs.utilization = s->mean_utilization(0.0, horizon_);
      obs.time_avg_tasks = s->time_avg_tasks(0.0, horizon_);
      obs.completions = s->completions();
      obs.preemptions = s->preemptions();
      r.servers.push_back(obs);
    }
    return r;
  }

 private:
  void set_rate(double r) {
    if (has_pending_) {
      engine_.cancel(pending_);
      has_pending_ = false;
    }
    rate_ = r;
    BLADE_OBS_EVENT(EpochMark, rate_epoch_++, engine_.now(), r, 0.0);
    schedule_next();
  }

  void schedule_next() {
    if (!(rate_ > 0.0)) return;
    pending_ = engine_.schedule(arrivals_.exponential(1.0 / rate_), [this] { fire(); });
    has_pending_ = true;
  }

  void fire() {
    has_pending_ = false;
    const double t = engine_.now();
    const std::size_t dest = router_.route(t, raw_);
    if (dest != kNotRouted) {
      sim::Task task;
      task.cls = sim::TaskClass::Generic;
      task.work = work_.sample(arrivals_);
      ++routed_[dest];
      ++dispatches_;
      if (dispatch_sample_ > 0 && dispatches_ % dispatch_sample_ == 0) {
        BLADE_OBS_EVENT(Dispatch, dest, t, dispatches_, 0.0);
      }
      raw_[dest]->arrive(task);
      router_.dispatched(t, dest);
    }
    schedule_next();
  }

  Router& router_;
  double horizon_;
  sim::Engine engine_;
  sim::ResponseTimeCollector collector_;
  std::vector<std::unique_ptr<sim::ServerSim>> servers_;
  std::vector<sim::ServerSim*> raw_;
  std::vector<std::unique_ptr<sim::PoissonSource>> sources_;
  sim::ServiceDistribution work_;
  sim::RngStream arrivals_;  ///< generic interarrivals and task sizes
  std::vector<std::uint64_t> routed_;
  std::uint64_t dispatch_sample_;
  std::uint64_t dispatches_ = 0;
  std::uint64_t rate_epoch_ = 0;
  double rate_ = 0.0;
  sim::EventId pending_ = 0;
  bool has_pending_ = false;
};

/// replay()'s router: the controller's telemetry (corrupted by chaos when
/// set), admission control, the published alias table, failure
/// notification and health bookkeeping.
class ControllerRouter {
 public:
  ControllerRouter(Controller& controller, FaultInjector* chaos, std::uint64_t seed)
      : controller_(controller),
        chaos_(chaos),
        routing_(seed, 1000033),
        admission_(seed, 1000019) {}

  std::size_t route(double t, const std::vector<sim::ServerSim*>& servers) {
    bool heard = true;  // did the controller's telemetry see this arrival?
    double report_t = t;
    if (chaos_ != nullptr) {
      const ObservationFault f = chaos_->corrupt_observation(t);
      heard = !f.drop;
      report_t = f.time;
      // Phantom spikes: telemetry reports arrivals that never happened.
      // A draw of 2.0 can never be shed, so phantoms perturb only the
      // estimators and counters, not the routed workload.
      for (unsigned k = 0; heard && k < f.phantoms; ++k) {
        (void)controller_.on_generic_arrival(report_t, 2.0);
      }
      if (chaos_->should_fault_solver()) controller_.arm_solver_fault();
    }
    // A dropped observation still carries a real task: it routes through
    // the published table, bypassing admission the controller never saw.
    if (heard && !controller_.on_generic_arrival(report_t, admission_.uniform())) {
      return kNotRouted;
    }
    const auto table = controller_.weights();
    if (!table || table->size() != servers.size()) return kNotRouted;
    // The coin is drawn before the bucket, the order every seeded replay
    // has used.
    const double coin = routing_.uniform();
    const double bucket = routing_.uniform();
    return table->sample(bucket, coin);
  }

  void dispatched(double t, std::size_t dest) {
    if (!controller_.health_enabled()) return;
    // Contract violation tally, judged on the state the routing decision
    // was made under (on_dispatch below may quarantine dest itself): a
    // quarantined destination only counts while a healthy alternative
    // was available — serving a degraded blade beats blackout when the
    // fleet is dark.
    if (controller_.health_state(dest) == HealthState::Quarantined) {
      for (std::size_t i = 0; i < controller_.size(); ++i) {
        if (i != dest && controller_.available_blades(i) > 0 &&
            controller_.health_state(i) != HealthState::Quarantined) {
          ++routes_to_quarantined_;
          break;
        }
      }
    }
    controller_.on_dispatch(t, dest);
  }

  void special_arrival(double t, std::size_t i) { controller_.on_special_arrival(t, i); }

  /// Failures and recoveries re-solve and republish at the same instant.
  /// Gray events (slowdowns, stalls) are not announced: detecting them is
  /// the health tracker's job, fed by dispatches and completions.
  void blade_event(double t, const sim::FailureEvent& ev) {
    if (ev.kind == sim::FailureKind::Failure) {
      controller_.on_failure(t, ev.server, ev.blades);
    } else if (ev.kind == sim::FailureKind::Recovery) {
      controller_.on_recovery(t, ev.server, ev.blades);
    }
  }

  [[nodiscard]] bool observes_completions() const { return controller_.health_enabled(); }
  void completion(double t, std::size_t i) { controller_.on_completion(t, i); }

  [[nodiscard]] std::uint64_t routes_to_quarantined() const noexcept {
    return routes_to_quarantined_;
  }

 private:
  Controller& controller_;
  FaultInjector* chaos_;
  sim::RngStream routing_;
  sim::RngStream admission_;
  std::uint64_t routes_to_quarantined_ = 0;
};

policy::ServerState read_live_state(const void* ctx, std::size_t i) {
  const sim::ServerSim& s = *(*static_cast<const std::vector<sim::ServerSim*>*>(ctx))[i];
  return policy::ServerState{
      .speed = s.speed(),
      .blades = s.blades(),
      .available = s.available_blades(),
      .in_system = s.tasks_in_system(),
  };
}

/// replay_policy()'s router: every arrival is routed, by the policy over
/// the live server state; nothing else listens.
class PolicyRouter {
 public:
  PolicyRouter(const policy::PolicyConfig& cfg, std::size_t n) : policy_(cfg, n) {}

  std::size_t route(double, const std::vector<sim::ServerSim*>& servers) {
    return policy_.route(live_state_view(servers));
  }
  void dispatched(double, std::size_t) {}
  void special_arrival(double, std::size_t) {}
  void blade_event(double, const sim::FailureEvent&) {}
  [[nodiscard]] bool observes_completions() const { return false; }
  void completion(double, std::size_t) {}

  [[nodiscard]] const policy::PolicyCounters& counters() const noexcept {
    return policy_.counters();
  }

 private:
  policy::DispatchPolicy policy_;
};

}  // namespace

policy::StateView live_state_view(const std::vector<sim::ServerSim*>& servers) {
  return policy::StateView{&servers, &read_live_state, servers.size()};
}

ReplayResult replay(const model::Cluster& cluster, const ControllerConfig& cfg,
                    const ReplayTrace& trace, const ReplayOptions& options) {
  validate_options(cluster, trace, options, "replay");
  const bool slo_enabled = options.slo.any_enabled();
  if (slo_enabled && options.slo_epochs < 1) {
    throw std::invalid_argument("replay: slo_epochs must be >= 1");
  }

  Controller controller(cluster, cfg);
  if (!options.checkpoint_in.empty()) {
    const blade::Status restored = controller.restore_checkpoint(options.checkpoint_in);
    if (!restored.ok()) {
      throw std::invalid_argument("replay: checkpoint restore failed: " +
                                  restored.error().context);
    }
  }
  ControllerRouter router(controller, options.chaos, trace.seed);
  ReplayLoop loop(cluster, trace, options, sim::to_mode(cfg.discipline), router);
  sim::Engine& engine = loop.engine();

  // Crash-safe checkpoint persistence: periodic atomic writes plus one
  // final write after the horizon, so a restarted process can resume
  // from the newest complete snapshot.
  std::uint64_t checkpoints_written = 0;
  const auto write_checkpoint = [&] {
    const blade::Status s =
        util::write_file_atomic(options.checkpoint_out, controller.checkpoint_json());
    if (!s.ok()) {
      throw std::runtime_error("replay: checkpoint write failed: " + s.error().context);
    }
    ++checkpoints_written;
    BLADE_OBS_COUNT("runtime.checkpoint_writes");
  };
  if (options.checkpoint_every > 0.0) {
    for (double t = options.checkpoint_every; t < trace.horizon; t += options.checkpoint_every) {
      engine.schedule_at(t, write_checkpoint);
    }
  }

  ReplayResult result;

  // SLO epoch evaluation: split the horizon into slo_epochs windows and
  // feed each to the burn-rate monitors. Cumulative collector/controller
  // counters are differenced at the boundaries, so per-epoch means cost
  // O(1) regardless of sample volume.
  std::optional<obs::SloSet> slo_set;
  struct SloCursor {
    double response_sum = 0.0;
    std::uint64_t response_count = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t resolves = 0;
    double resolve_seconds = 0.0;
  };
  SloCursor cursor;
  if (slo_enabled) {
    obs::SloTargets targets = options.slo;
    const double epoch_len = trace.horizon / static_cast<double>(options.slo_epochs);
    if (!(targets.window > 0.0)) targets.window = 4.0 * epoch_len;
    targets.validate();
    slo_set.emplace(targets);
    for (int k = 1; k <= options.slo_epochs; ++k) {
      const double t1 = (k == options.slo_epochs) ? trace.horizon
                                                  : epoch_len * static_cast<double>(k);
      engine.schedule_at(t1, [&, k, t1, epoch_len] {
        const auto& gen = loop.collector().generic();
        const ControllerStats now = controller.stats();
        obs::SloEpoch epoch;
        epoch.index = k;
        epoch.total = options.slo_epochs;
        epoch.t0 = t1 - epoch_len;
        epoch.t1 = t1;
        epoch.response_samples = gen.count() - cursor.response_count;
        epoch.mean_response =
            epoch.response_samples > 0
                ? (gen.sum() - cursor.response_sum) / static_cast<double>(epoch.response_samples)
                : 0.0;
        const std::uint64_t offered =
            (now.admitted - cursor.admitted) + (now.shed - cursor.shed);
        epoch.shed_fraction =
            offered > 0 ? static_cast<double>(now.shed - cursor.shed) /
                              static_cast<double>(offered)
                        : 0.0;
        epoch.resolves = now.resolves - cursor.resolves;
        epoch.resolve_seconds_mean =
            epoch.resolves > 0 ? (now.resolve_seconds_total - cursor.resolve_seconds) /
                                     static_cast<double>(epoch.resolves)
                               : 0.0;
        epoch.staleness = controller.lkg_age(t1);
        cursor.response_sum = gen.sum();
        cursor.response_count = gen.count();
        cursor.admitted = now.admitted;
        cursor.shed = now.shed;
        cursor.resolves = now.resolves;
        cursor.resolve_seconds = now.resolve_seconds_total;
        result.slo.push_back(slo_set->observe(epoch));
      });
    }
  }

  result.sim = loop.run();
  if (!options.checkpoint_out.empty()) write_checkpoint();

  result.stats = controller.stats();
  result.routes_to_quarantined = router.routes_to_quarantined();
  result.checkpoints_written = checkpoints_written;
  result.shed_fraction = result.stats.shed_fraction();
  result.final_shed_probability = controller.shed_probability();
  result.final_fractions = controller.routing_fractions();
  result.final_mode = controller.mode();
  if (slo_set) result.slo_breaches = slo_set->total_breaches();
  return result;
}

PolicyReplayResult replay_policy(const model::Cluster& cluster,
                                 const policy::PolicyConfig& policy_cfg,
                                 const ReplayTrace& trace, const ReplayOptions& options,
                                 queue::Discipline discipline) {
  validate_options(cluster, trace, options, "replay_policy");
  // SLO epochs and checkpoints are controller state; a policy has none.
  if (options.slo.any_enabled()) {
    throw std::invalid_argument("replay_policy: slo needs the controller (use replay)");
  }
  if (!options.checkpoint_in.empty() || !options.checkpoint_out.empty()) {
    throw std::invalid_argument("replay_policy: checkpoints need the controller (use replay)");
  }
  PolicyRouter router(policy_cfg, cluster.size());
  ReplayLoop loop(cluster, trace, options, sim::to_mode(discipline), router);

  PolicyReplayResult result;
  result.sim = loop.run();
  result.counters = router.counters();
  result.routed_by_server = loop.routed();
  std::uint64_t total = 0;
  for (const std::uint64_t c : result.routed_by_server) total += c;
  result.measured_fractions.assign(cluster.size(), 0.0);
  if (total > 0) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      result.measured_fractions[i] =
          static_cast<double>(result.routed_by_server[i]) / static_cast<double>(total);
    }
  }
  return result;
}

}  // namespace blade::runtime
