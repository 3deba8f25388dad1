#include "replay.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "core/optimizer.hpp"
#include "core/sharded.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/chaos.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/server_sim.hpp"
#include "sim/service.hpp"

namespace servebench {

namespace br = blade::runtime;
namespace bs = blade::sim;

double clock_cost_ns() {
  static const double cost = [] {
    std::vector<std::uint64_t> d(4096);
    for (auto& x : d) {
      const std::uint64_t t0 = now_ns();
      x = now_ns() - t0;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return static_cast<double>(d[d.size() / 2]);
  }();
  return cost;
}

Prepared prepare(Workload workload) {
  Prepared p{.workload = std::move(workload)};
  const Workload& w = p.workload;
  const auto disc = w.controller.discipline;
  if (w.controller.shard_cells > 0) {
    blade::opt::ShardOptions shard;
    shard.cells = w.controller.shard_cells;
    const blade::opt::ShardedOptimizer solver(w.cluster, disc, w.controller.solver, shard);
    p.analytic_t_prime = solver.optimize(w.lambda).dist.response_time;
  } else {
    const blade::opt::LoadDistributionOptimizer solver(w.cluster, disc, w.controller.solver);
    const auto sol = solver.optimize(w.lambda);
    p.analytic_t_prime = sol.response_time;
    if (w.kind == Kind::Static) {
      // `bladecli serve-replay --policy opt-split`: the paper's weights,
      // the trace seed, routing stream 77.
      p.policy.kind = blade::policy::PolicyKind::OptSplit;
      p.policy.seed = w.trace.seed;
      p.policy.stream = 77;
      p.policy.weights = sol.rates;
    }
  }
  return p;
}

std::string Stats::first_difference(const Stats& other) const {
  if (fields_.size() != other.fields_.size()) return "field count";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].first != other.fields_[i].first ||
        std::bit_cast<std::uint64_t>(fields_[i].second) !=
            std::bit_cast<std::uint64_t>(other.fields_[i].second)) {
      return fields_[i].first;
    }
  }
  return {};
}

namespace {

double as_double(std::uint64_t v) { return static_cast<double>(v); }

void add_sim(Stats& s, const bs::SimResult& sim) {
  s.add("sim.events", as_double(sim.events));
  s.add("sim.generic_samples", as_double(sim.generic_samples));
  s.add("sim.generic_mean", sim.generic_mean_response);
  s.add("sim.special_samples", as_double(sim.special_samples));
  s.add("sim.special_mean", sim.special_mean_response);
  for (const auto& o : sim.servers) {
    s.add("server.utilization", o.utilization);
    s.add("server.time_avg_tasks", o.time_avg_tasks);
    s.add("server.completions", as_double(o.completions));
    s.add("server.preemptions", as_double(o.preemptions));
  }
}

// Everything replay() reports except the two wall-clock fields.
Outcome controller_outcome(const br::ReplayResult& r, std::uint64_t routed) {
  const br::ControllerStats& c = r.stats;
  Outcome o;
  Stats& s = o.stats;
  add_sim(s, r.sim);
  s.add("routed", as_double(routed));
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"generic_arrivals", c.generic_arrivals},
      {"special_arrivals", c.special_arrivals},
      {"admitted", c.admitted},
      {"shed", c.shed},
      {"resolves", c.resolves},
      {"skipped_by_hysteresis", c.skipped_by_hysteresis},
      {"infeasible_resolves", c.infeasible_resolves},
      {"failures", c.failures},
      {"recoveries", c.recoveries},
      {"publications", c.publications},
      {"solver_failures", c.solver_failures},
      {"lkg_publications", c.lkg_publications},
      {"fallback_publications", c.fallback_publications},
      {"rejected_observations", c.rejected_observations},
      {"injected_faults", c.injected_faults},
      {"restores", c.restores},
      {"mode_transitions", c.mode_transitions},
      {"health_transitions", c.health_transitions},
      {"quarantines", c.quarantines},
      {"probations", c.probations},
      {"health_recoveries", c.health_recoveries},
      {"quarantine_publications", c.quarantine_publications},
      {"mcache_hits", c.mcache_hits},
      {"mcache_fallthroughs", c.mcache_fallthroughs},
      {"mcache_out_of_domain", c.mcache_out_of_domain},
      {"routes_to_quarantined", r.routes_to_quarantined},
      {"slo_breaches", r.slo_breaches},
      {"checkpoints_written", r.checkpoints_written},
  };
  for (const auto& [name, v] : counters) s.add(name, as_double(v));
  s.add("shed_fraction", r.shed_fraction);
  s.add("final_shed_probability", r.final_shed_probability);
  s.add("final_mode", static_cast<double>(r.final_mode));
  for (const double f : r.final_fractions) s.add("final_fraction", f);

  o.events = r.sim.events;
  o.routed = routed;
  o.generic_arrivals = c.generic_arrivals;
  o.resolves = c.resolves;
  o.skipped = c.skipped_by_hysteresis;
  o.resolve_seconds = c.resolve_seconds_total;
  o.fallback_publications = c.fallback_publications;
  o.health_transitions = c.health_transitions;
  o.routes_to_quarantined = r.routes_to_quarantined;
  o.uninjected_solver_failures = c.solver_failures - std::min(c.solver_failures, c.injected_faults);
  o.t_prime = r.sim.generic_mean_response;
  o.shed_fraction = r.shed_fraction;
  return o;
}

Outcome policy_outcome(const br::PolicyReplayResult& r) {
  Outcome o;
  Stats& s = o.stats;
  add_sim(s, r.sim);
  const auto& c = r.counters;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"routed", c.routed},
      {"probes", c.probes},
      {"redraws", c.redraws},
      {"ties", c.ties},
      {"herd_events", c.herd_events},
      {"fallback_scans", c.fallback_scans},
      {"quarantine_skips", c.quarantine_skips},
  };
  for (const auto& [name, v] : counters) s.add(name, as_double(v));
  for (const std::uint64_t k : r.routed_by_server) s.add("routed_by_server", as_double(k));
  o.events = r.sim.events;
  o.routed = c.routed;
  o.generic_arrivals = c.routed;
  o.t_prime = r.sim.generic_mean_response;
  return o;
}

std::unique_ptr<br::FaultInjector> make_chaos(const Workload& w) {
  if (!w.chaos) return nullptr;
  return std::make_unique<br::FaultInjector>(w.chaos_seed, *w.chaos);
}

// Mirrors replay()'s mapping of trace events onto the failure schedule.
void append_sim_event(bs::FailureSchedule& sched, const br::ReplayEvent& e) {
  using K = br::ReplayEvent::Kind;
  switch (e.kind) {
    case K::Rate: return;
    case K::Fail: sched.events.push_back({e.time, bs::FailureKind::Failure, e.server, e.blades}); return;
    case K::Recover:
      sched.events.push_back({e.time, bs::FailureKind::Recovery, e.server, e.blades});
      return;
    case K::Slow:
      sched.events.push_back({e.time, bs::FailureKind::Slowdown, e.server, 0, e.factor});
      return;
    case K::Stall: sched.events.push_back({e.time, bs::FailureKind::StallStart, e.server, 0}); return;
    case K::Unstall: sched.events.push_back({e.time, bs::FailureKind::StallEnd, e.server, 0}); return;
  }
}

bs::FailureSchedule failure_schedule(const br::ReplayTrace& trace, br::FaultInjector* chaos,
                                     std::size_t n) {
  bs::FailureSchedule failures;
  for (const auto& e : trace.events) append_sim_event(failures, e);
  if (chaos != nullptr) {
    for (const auto& e : chaos->flap_events(trace.horizon, n)) append_sim_event(failures, e);
    for (const auto& e : chaos->gray_events(trace.horizon, n)) append_sim_event(failures, e);
  }
  return failures;
}

bs::SimResult sim_result(const bs::Engine& engine, const bs::ResponseTimeCollector& collector,
                         const std::vector<std::unique_ptr<bs::ServerSim>>& servers,
                         double horizon) {
  bs::SimResult sim;
  sim.generic_mean_response = collector.generic().mean();
  sim.generic_samples = collector.generic().count();
  sim.special_mean_response = collector.special().mean();
  sim.special_samples = collector.special().count();
  sim.events = engine.events_processed();
  for (const auto& s : servers) {
    bs::ServerObservation obs;
    obs.utilization = s->mean_utilization(0.0, horizon);
    obs.time_avg_tasks = s->time_avg_tasks(0.0, horizon);
    obs.completions = s->completions();
    obs.preemptions = s->preemptions();
    sim.servers.push_back(obs);
  }
  return sim;
}

std::vector<std::unique_ptr<bs::ServerSim>> make_servers(const blade::model::Cluster& cluster,
                                                         bs::Engine& engine,
                                                         bs::SchedulingMode mode,
                                                         bs::ResponseTimeCollector& collector,
                                                         std::vector<bs::ServerSim*>& raw) {
  std::vector<std::unique_ptr<bs::ServerSim>> servers;
  for (const auto& srv : cluster.servers()) {
    servers.push_back(
        std::make_unique<bs::ServerSim>(engine, srv.size(), srv.speed(), mode, collector));
    raw.push_back(servers.back().get());
  }
  return servers;
}

// ---------------------------------------------------------------------
// The traced replays compose replay()'s and replay_policy()'s pieces
// call for call and in the same scheduling order, so event ids,
// tie-breaks and RNG draws are identical and the simulated statistics
// must match the untraced replay bit for bit.

/// Times a controller call that may re-solve (always, never sampled: a
/// re-solve is a heavy tail a sample would miss) and files it by
/// outcome: into `resolved` when ControllerStats::resolves moved during
/// the call, into `plain` otherwise.
template <class F>
bool classified(const br::Controller& c, SpanStat& plain, std::vector<double>& resolved,
                F&& call) {
  const std::uint64_t before = c.stats().resolves;
  const std::uint64_t t0 = now_ns();
  const bool result = call();
  const double ns = static_cast<double>(now_ns() - t0) - clock_cost_ns();
  if (c.stats().resolves != before) {
    resolved.push_back(ns);
  } else {
    ++plain.calls;
    plain.add(ns);
  }
  return result;
}

struct TracedGenericSource {
  bs::Engine& engine;
  br::Controller& controller;
  const std::vector<bs::ServerSim*>& servers;
  bs::ServiceDistribution work;
  bs::RngStream arrivals;
  bs::RngStream routing;
  bs::RngStream admission;
  br::FaultInjector* chaos;
  Trace& tr;
  std::uint64_t period;
  double rate = 0.0;
  bs::EventId pending = 0;
  bool has_pending = false;
  std::uint64_t routed = 0;
  std::uint64_t routes_to_quarantined = 0;

  void set_rate(double r) {
    if (has_pending) {
      engine.cancel(pending);
      has_pending = false;
    }
    rate = r;
    schedule_next();
  }

  void schedule_next() {
    if (!(rate > 0.0)) return;
    pending = engine.schedule(arrivals.exponential(1.0 / rate), [this] { fire(); });
    has_pending = true;
  }

  bool offer(double t, double u) {
    return classified(controller, tr.arrival, tr.drift_resolve_ns,
                      [&] { return controller.on_generic_arrival(t, u); });
  }

  void fire() {
    const Span cb(tr.generic_fire, period, period / 2);
    has_pending = false;
    const double t = engine.now();
    bool heard = true;
    double report_t = t;
    if (chaos != nullptr) {
      br::ObservationFault f;
      {
        const Span s(tr.chaos, period);
        f = chaos->corrupt_observation(t);
      }
      heard = !f.drop;
      report_t = f.time;
      for (unsigned k = 0; heard && k < f.phantoms; ++k) (void)offer(report_t, 2.0);
      bool fault = false;
      {
        const Span s(tr.chaos, period);
        fault = chaos->should_fault_solver();
      }
      if (fault) controller.arm_solver_fault();
    }
    const bool admit = heard ? offer(report_t, admission.uniform()) : true;
    if (admit) {
      std::shared_ptr<const blade::util::AliasTable> table;
      {
        const Span s(tr.weights, period);
        table = controller.weights();
      }
      if (table && table->size() == servers.size()) {
        bs::Task task;
        task.cls = bs::TaskClass::Generic;
        double u1 = 0.0;
        double u2 = 0.0;
        {
          const Span s(tr.draw, period);
          task.work = work.sample(arrivals);
          // replay() draws both routing uniforms as arguments of one
          // call; GCC evaluates those right to left, so the coin is first.
          u2 = routing.uniform();
          u1 = routing.uniform();
        }
        std::size_t dest = 0;
        {
          const Span s(tr.alias_sample, period, period / 4);
          dest = table->sample(u1, u2);
        }
        ++routed;
        {
          const Span s(tr.arrive, period);
          servers[dest]->arrive(task);
        }
        if (controller.health_enabled()) {
          if (controller.health_state(dest) == br::HealthState::Quarantined) {
            for (std::size_t i = 0; i < servers.size(); ++i) {
              if (i != dest && controller.available_blades(i) > 0 &&
                  controller.health_state(i) != br::HealthState::Quarantined) {
                ++routes_to_quarantined;
                break;
              }
            }
          }
          classified(controller, tr.health, tr.health_resolve_ns, [&] {
            controller.on_dispatch(t, dest);
            return true;
          });
        }
      }
    }
    const Span s(tr.schedule, period, 3 * period / 4);
    schedule_next();
  }
};

Outcome traced_controller(const Workload& w, br::FaultInjector* chaos, Trace& tr,
                          std::uint64_t period, std::uint64_t wall0) {
  const br::ReplayTrace& trace = w.trace;
  const auto work = bs::ServiceDistribution::from_scv(w.cluster.rbar(), 1.0);
  bs::Engine engine;
  bs::ResponseTimeCollector collector(0.0, false);
  br::Controller controller(w.cluster, w.controller);
  tr.initial_resolves += controller.stats().resolves;

  std::vector<bs::ServerSim*> raw;
  const auto servers =
      make_servers(w.cluster, engine, bs::to_mode(w.controller.discipline), collector, raw);

  std::vector<std::unique_ptr<bs::PoissonSource>> sources;
  for (std::size_t i = 0; i < w.cluster.size(); ++i) {
    const auto& srv = w.cluster.server(i);
    if (!(srv.special_rate() > 0.0)) continue;
    bs::ServerSim* dest = raw[i];
    sources.push_back(std::make_unique<bs::PoissonSource>(
        engine, srv.special_rate(), work, bs::TaskClass::Special,
        bs::RngStream(trace.seed, 2 * i + 1),
        [dest, i, &engine, &controller, &tr, period](bs::Task t) {
          const Span cb(tr.special_sink, period, period / 2);
          {
            const Span s(tr.special, period);
            controller.on_special_arrival(engine.now(), i);
          }
          const Span s(tr.arrive, period);
          dest->arrive(t);
        }));
  }

  TracedGenericSource generic{engine,
                             controller,
                             raw,
                             work,
                             bs::RngStream(trace.seed, 1000003),
                             bs::RngStream(trace.seed, 1000033),
                             bs::RngStream(trace.seed, 1000019),
                             chaos,
                             tr,
                             period};

  for (const auto& e : trace.events) {
    if (e.kind != br::ReplayEvent::Kind::Rate) continue;
    engine.schedule_at(e.time, [&generic, &tr, rate = e.rate] {
      const Span cb(tr.rate_change, 1);
      generic.set_rate(rate);
    });
  }
  bs::schedule_failures(
      engine, failure_schedule(trace, chaos, w.cluster.size()), raw,
      [&](const bs::FailureEvent& ev) {
        const Span cb(tr.failure, 1);
        const std::uint64_t t0 = now_ns();
        if (ev.kind == bs::FailureKind::Failure) {
          controller.on_failure(engine.now(), ev.server, ev.blades);
        } else if (ev.kind == bs::FailureKind::Recovery) {
          controller.on_recovery(engine.now(), ev.server, ev.blades);
        } else {
          return;
        }
        tr.failover_ns.push_back(static_cast<double>(now_ns() - t0) - clock_cost_ns());
      });

  if (controller.health_enabled()) {
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i]->set_completion_observer(
          [&controller, &engine, &tr, period, i](const bs::Task& task, double) {
            const Span cb(tr.completion, period, period / 2);
            if (task.cls != bs::TaskClass::Generic) return;
            classified(controller, tr.health, tr.health_resolve_ns, [&] {
              controller.on_completion(engine.now(), i);
              return true;
            });
          });
    }
  }

  for (auto& src : sources) src->start();
  const std::uint64_t run0 = now_ns();
  tr.setup_ns += static_cast<double>(run0 - wall0);
  engine.run_until(trace.horizon);
  tr.run_until_ns += static_cast<double>(now_ns() - run0);

  br::ReplayResult r;
  r.stats = controller.stats();
  r.routes_to_quarantined = generic.routes_to_quarantined;
  r.shed_fraction = r.stats.shed_fraction();
  r.final_shed_probability = controller.shed_probability();
  r.final_fractions = controller.routing_fractions();
  r.final_mode = controller.mode();
  r.sim = sim_result(engine, collector, servers, trace.horizon);
  return controller_outcome(r, generic.routed);
}

struct TracedPolicySource {
  bs::Engine& engine;
  blade::policy::DispatchPolicy& policy;
  const std::vector<bs::ServerSim*>& servers;
  std::vector<std::uint64_t>& routed;
  bs::ServiceDistribution work;
  bs::RngStream arrivals;
  Trace& tr;
  std::uint64_t period;
  double rate = 0.0;
  bs::EventId pending = 0;
  bool has_pending = false;

  void set_rate(double r) {
    if (has_pending) {
      engine.cancel(pending);
      has_pending = false;
    }
    rate = r;
    schedule_next();
  }

  void schedule_next() {
    if (!(rate > 0.0)) return;
    pending = engine.schedule(arrivals.exponential(1.0 / rate), [this] { fire(); });
    has_pending = true;
  }

  static blade::policy::ServerState read_state(const void* ctx, std::size_t i) {
    const auto& raw = *static_cast<const std::vector<bs::ServerSim*>*>(ctx);
    const bs::ServerSim& s = *raw[i];
    return blade::policy::ServerState{
        .speed = s.speed(),
        .blades = s.blades(),
        .available = s.available_blades(),
        .in_system = s.tasks_in_system(),
    };
  }

  void fire() {
    const Span cb(tr.generic_fire, period, period / 2);
    has_pending = false;
    bs::Task task;
    task.cls = bs::TaskClass::Generic;
    {
      const Span s(tr.draw, period);
      task.work = work.sample(arrivals);
    }
    const blade::policy::StateView view{&servers, &read_state, servers.size()};
    std::size_t dest = 0;
    {
      const Span s(tr.route, period, period / 4);
      dest = policy.route(view);
    }
    ++routed[dest];
    {
      const Span s(tr.arrive, period);
      servers[dest]->arrive(task);
    }
    const Span s(tr.schedule, period, 3 * period / 4);
    schedule_next();
  }
};

Outcome traced_policy(const Prepared& p, Trace& tr, std::uint64_t period, std::uint64_t wall0) {
  const Workload& w = p.workload;
  const br::ReplayTrace& trace = w.trace;
  const auto work = bs::ServiceDistribution::from_scv(w.cluster.rbar(), 1.0);
  blade::policy::DispatchPolicy policy(p.policy, w.cluster.size());
  bs::Engine engine;
  bs::ResponseTimeCollector collector(0.0, false);
  std::vector<bs::ServerSim*> raw;
  const auto servers = make_servers(w.cluster, engine, bs::SchedulingMode::Fcfs, collector, raw);

  std::vector<std::unique_ptr<bs::PoissonSource>> sources;
  for (std::size_t i = 0; i < w.cluster.size(); ++i) {
    const auto& srv = w.cluster.server(i);
    if (!(srv.special_rate() > 0.0)) continue;
    bs::ServerSim* dest = raw[i];
    sources.push_back(std::make_unique<bs::PoissonSource>(
        engine, srv.special_rate(), work, bs::TaskClass::Special,
        bs::RngStream(trace.seed, 2 * i + 1), [dest, &tr, period](bs::Task t) {
          const Span cb(tr.special_sink, period, period / 2);
          const Span s(tr.arrive, period);
          dest->arrive(t);
        }));
  }

  br::PolicyReplayResult r;
  r.routed_by_server.assign(w.cluster.size(), 0);
  TracedPolicySource generic{engine, policy, raw, r.routed_by_server, work,
                            bs::RngStream(trace.seed, 1000003), tr, period};
  for (const auto& e : trace.events) {
    if (e.kind != br::ReplayEvent::Kind::Rate) continue;
    engine.schedule_at(e.time, [&generic, &tr, rate = e.rate] {
      const Span cb(tr.rate_change, 1);
      generic.set_rate(rate);
    });
  }
  bs::schedule_failures(engine, failure_schedule(trace, nullptr, w.cluster.size()), raw,
                        [](const bs::FailureEvent&) {});

  for (auto& src : sources) src->start();
  const std::uint64_t run0 = now_ns();
  tr.setup_ns += static_cast<double>(run0 - wall0);
  engine.run_until(trace.horizon);
  tr.run_until_ns += static_cast<double>(now_ns() - run0);

  r.counters = policy.counters();
  r.sim = sim_result(engine, collector, servers, trace.horizon);
  return policy_outcome(r);
}

}  // namespace

Outcome replay_untraced(const Prepared& p) {
  const Workload& w = p.workload;
  if (!w.controller_driven()) {
    const std::uint64_t t0 = now_ns();
    const br::PolicyReplayResult r = br::replay_policy(w.cluster, p.policy, w.trace);
    const std::uint64_t t1 = now_ns();
    Outcome o = policy_outcome(r);
    o.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    return o;
  }
  const auto chaos = make_chaos(w);
  br::ReplayOptions options;
  options.chaos = chaos.get();
  const std::uint64_t t0 = now_ns();
  const br::ReplayResult r = br::replay(w.cluster, w.controller, w.trace, options);
  const std::uint64_t t1 = now_ns();
  // replay() does not report its dispatch count: every admitted arrival
  // routes except the phantoms chaos reports, and every dropped
  // observation routes without admission (no workload here ever serves
  // a blackout, the one state in which an admitted task is not routed).
  const std::uint64_t routed =
      r.stats.admitted - (chaos ? chaos->phantoms() : 0) + (chaos ? chaos->dropped() : 0);
  Outcome o = controller_outcome(r, routed);
  o.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  return o;
}

Outcome replay_traced(const Prepared& p, Trace& trace, std::uint64_t period) {
  const Workload& w = p.workload;
  const auto chaos = make_chaos(w);
  const std::uint64_t t0 = now_ns();
  Outcome o = w.controller_driven() ? traced_controller(w, chaos.get(), trace, period, t0)
                                    : traced_policy(p, trace, period, t0);
  const std::uint64_t t1 = now_ns();
  o.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  trace.wall_ns += static_cast<double>(t1 - t0);
  trace.events += o.events;
  ++trace.replays;
  return o;
}

}  // namespace servebench
