#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <string>

#include "core/optimizer.hpp"
#include "core/sharded.hpp"
#include "numerics/erlang.hpp"
#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace servebench {

namespace {

// Set-up takes about a millisecond; it is timed this many times before
// each measured replay.
constexpr int kSetupsPerReplay = 3;
// A measured stretch holds at least this many replays, however short
// --seconds is, so that every run checks replay-to-replay determinism.
constexpr int kMinReplays = 3;
// static-split has no controller; its resolve_mean_us is the cold solve
// that produces its split, averaged over this many solves per replay.
constexpr int kStaticSolves = 16;
// Sampling period of the traced static-split replay, whose per-event
// work (~100 ns) is close to the cost of a clock read. The controller
// workloads time every call (period 1): their calls can re-solve.
constexpr std::uint64_t kStaticTracePeriod = 64;
// Share of a traced run spent on the direct solver and kernel calls.
constexpr double kProbeShare = 0.15;
// static-split's simulated T' must sit within this relative distance of
// the analytic optimum it routes by.
constexpr double kTPrimeTolerance = 0.02;

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// The process's resident high-water mark (VmHWM). Not getrusage's
// ru_maxrss, which keeps the pre-exec peak of whatever forked us.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean wall time (µs) of one cold paper solve of the workload's split,
/// optimizer construction included, as the controller pays it.
double cold_solve_us(const Workload& w, int solves) {
  const std::uint64_t t0 = now_ns();
  for (int k = 0; k < solves; ++k) {
    const blade::opt::LoadDistributionOptimizer solver(w.cluster, w.controller.discipline,
                                                       w.controller.solver);
    if (!solver.try_optimize(w.lambda)) throw std::runtime_error("cold solve failed");
  }
  return seconds_since(t0) * 1e6 / solves;
}

struct Checks {
  bool ok = true;
  std::ostream& log;

  void require(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    log << "CHECK FAILED: " << what << '\n';
  }
};

/// Output checks every replay of a run must pass.
void check_outcome(const Prepared& p, const Outcome& o, const Outcome& first, Checks& checks) {
  const Workload& w = p.workload;
  const std::string diff = o.stats.first_difference(first.stats);
  checks.require(diff.empty(), "replay of seed " + std::to_string(w.seed) +
                                   " differs from its first replay in " + diff);
  checks.require(std::isfinite(o.t_prime) && o.t_prime > 0.0 && o.routed > 0,
                 "replay routed no generic task to completion");
  if (w.controller_driven()) {
    checks.require(o.resolves > 0, "controller never re-solved");
  } else {
    const double gap = std::abs(o.t_prime - p.analytic_t_prime) / p.analytic_t_prime;
    checks.require(gap <= kTPrimeTolerance,
                   "simulated T' " + std::to_string(o.t_prime) + " is " + std::to_string(gap) +
                       " from the analytic " + std::to_string(p.analytic_t_prime));
  }
  if (w.kind == Kind::Churn) {
    checks.require(o.routes_to_quarantined == 0, "routes to quarantined blades: " +
                                                     std::to_string(o.routes_to_quarantined));
  }
}

struct SolverProbe {
  double cold_us = 0.0;
  double warm_us = 0.0;
  double evals = 0.0;
  double build_us = 0.0;
  double sharded_us = 0.0;
  double classes = 0.0;
  double erlang_ns = 0.0;
};

/// Times `body` repeatedly (at least 3, at most 256 times, until
/// `budget_s` is spent) and returns the median in µs.
template <class F>
double median_us(double budget_s, F&& body) {
  std::vector<double> us;
  const std::uint64_t start = now_ns();
  while (us.size() < 3 || (us.size() < 256 && seconds_since(start) < budget_s)) {
    const std::uint64_t t0 = now_ns();
    body();
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

/// Direct calls into core and numerics on the workload's cluster at its
/// own rate: the solver work a re-solve does, isolated from the loop.
SolverProbe probe_solvers(const Workload& w, double budget_s) {
  namespace bo = blade::opt;
  const double slice = budget_s / 5.0;
  const auto disc = w.controller.discipline;
  const auto& opts = w.controller.solver;
  SolverProbe p;

  p.cold_us = median_us(slice, [&] {
    const bo::LoadDistributionOptimizer solver(w.cluster, disc, opts);
    const auto r = solver.try_optimize(w.lambda);
    if (!r) throw std::runtime_error("flat cold solve failed: " + r.error().context);
    p.evals = static_cast<double>(r.value().inner_evaluations);
  });

  const bo::LoadDistributionOptimizer flat(w.cluster, disc, opts);
  bo::SolverWorkspace ws;
  const auto base = flat.try_optimize(w.lambda, ws);
  if (!base) throw std::runtime_error("flat solve failed: " + base.error().context);
  int step = 0;
  p.warm_us = median_us(slice, [&] {
    // ±1% load steps: the controller's steady-state drift re-solve.
    const double lambda = w.lambda * ((step++ % 2 == 0) ? 1.01 : 0.99);
    if (!flat.try_optimize(lambda, ws)) throw std::runtime_error("flat warm solve failed");
  });

  bo::ShardOptions shard;
  shard.cells = w.controller.shard_cells;  // 0: the solver's own cell count
  shard.finalize_metrics = false;
  p.build_us = median_us(slice, [&] {
    const bo::ShardedOptimizer solver(w.cluster, disc, opts, shard);
    p.classes = static_cast<double>(solver.server_classes());
  });
  const bo::ShardedOptimizer sharded(w.cluster, disc, opts, shard);
  p.sharded_us = median_us(slice, [&] {
    bo::ShardedWorkspace sws;
    if (!sharded.try_optimize(w.lambda, blade::par::global_pool(), sws)) {
      throw std::runtime_error("sharded solve failed");
    }
  });

  // The kernel at the optimum's per-server utilizations.
  const auto& rho = base.value().utilizations;
  std::vector<unsigned> m;
  for (const auto& s : w.cluster.servers()) m.push_back(s.size());
  double sink = 0.0;
  std::size_t calls = 0;
  const double sweep_us = median_us(slice, [&] {
    for (std::size_t i = 0; i < m.size(); ++i) sink += blade::num::erlang_c_derivs(m[i], rho[i]).dc;
    calls = m.size();
  });
  p.erlang_ns = sweep_us * 1e3 / static_cast<double>(calls);
  if (!std::isfinite(sink)) throw std::runtime_error("Erlang-C kernel returned a non-finite value");
  return p;
}

void print_header(const Prepared& p, const RunOptions& opts, std::ostream& log) {
  const Workload& w = p.workload;
  log << "servebench " << to_string(w.kind) << " seed " << w.seed << ": " << w.cluster.size()
      << " servers, horizon " << w.trace.horizon << ", lambda' " << w.lambda << " of max "
      << w.cluster.max_generic_rate() << ", analytic T' " << p.analytic_t_prime << ", "
      << (opts.trace ? "traced" : "untraced") << " run of " << opts.seconds << " s\n";
}

int run_untraced(const RunOptions& opts, std::ostream& out, std::ostream& log) {
  const Prepared p = prepare(make_workload(opts.kind, opts.seed));
  print_header(p, opts, log);

  Checks checks{.log = log};
  const Outcome first = replay_untraced(p);  // warm-up and determinism reference
  check_outcome(p, first, first, checks);

  std::vector<double> setups, routed, events, resolve_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t start = now_ns();
  while (routed.size() < kMinReplays || seconds_since(start) < opts.seconds) {
    // Set-ups are timed between replays, so they sample the same spells
    // of host speed the replays do.
    for (int k = 0; k < kSetupsPerReplay; ++k) {
      const std::uint64_t t0 = now_ns();
      const Prepared again = prepare(make_workload(opts.kind, opts.seed));
      setups.push_back(seconds_since(t0));
      checks.require(again.analytic_t_prime == p.analytic_t_prime, "set-up is not deterministic");
    }
    const Outcome o = replay_untraced(p);
    check_outcome(p, o, first, checks);
    routed.push_back(static_cast<double>(o.routed) / o.wall_s);
    events.push_back(static_cast<double>(o.events) / o.wall_s);
    resolve_us.push_back(p.workload.controller_driven()
                             ? o.resolve_seconds * 1e6 / static_cast<double>(o.resolves)
                             : cold_solve_us(p.workload, kStaticSolves));
    attempted += o.attempted();
    failed += o.failed();
  }
  log << routed.size() << " measured replays, " << first.events << " events and "
      << first.routed << " routed tasks each, " << first.resolves << " re-solves; routed/s:";
  for (const double r : routed) log << ' ' << static_cast<long long>(r);
  log << "\nmedians: setup_s " << median(setups) << ", routed_per_s " << median(routed)
      << ", events_per_s " << median(events) << ", resolve_mean_us " << median(resolve_us)
      << '\n';

  // The timings reported are the run's best: interference from other
  // tenants of a shared host only ever slows a replay down, and its speed
  // swings by up to 1.7x for seconds to minutes at a time, so the fastest
  // replay (and set-up) is the steadiest estimate of the program's own
  // cost. The medians above are kept in the log.
  Report report(end_to_end_metrics());
  report.set("setup_s", *std::min_element(setups.begin(), setups.end()));
  report.set("routed_per_s", *std::max_element(routed.begin(), routed.end()));
  report.set("events_per_s", *std::max_element(events.begin(), events.end()));
  report.set("resolve_mean_us", *std::min_element(resolve_us.begin(), resolve_us.end()));
  report.set("t_prime", first.t_prime);
  report.set("peak_rss_mb", peak_rss_mib());
  log << report.text();
  out << report.json(checks.ok, attempted, failed) << '\n';
  return 0;
}

int run_traced(const RunOptions& opts, std::ostream& out, std::ostream& log) {
  const std::uint64_t t_run = now_ns();
  const Prepared p = prepare(make_workload(opts.kind, opts.seed));
  const Workload& w = p.workload;
  print_header(p, opts, log);
  const std::uint64_t period = w.controller_driven() ? 1 : kStaticTracePeriod;

  const SolverProbe probe = probe_solvers(w, kProbeShare * opts.seconds);

  Checks checks{.log = log};
  const Outcome first = replay_untraced(p);
  check_outcome(p, first, first, checks);

  Trace trace;
  std::vector<double> untraced_wall, traced_wall;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool faithful = true;
  while (traced_wall.size() < 2 || seconds_since(t_run) < opts.seconds) {
    const Outcome u = replay_untraced(p);
    check_outcome(p, u, first, checks);
    untraced_wall.push_back(u.wall_s);

    const std::uint64_t classified_before = trace.classified_resolves();
    const Outcome t = replay_traced(p, trace, period);
    traced_wall.push_back(t.wall_s);
    const std::string diff = t.stats.first_difference(first.stats);
    const std::uint64_t classified = trace.classified_resolves() - classified_before;
    if (!diff.empty() || classified != t.resolves) {
      faithful = false;
      log << "FIDELITY CHECK FAILED: traced replay differs from runtime::"
          << (w.controller_driven() ? "replay" : "replay_policy") << " in "
          << (diff.empty() ? "re-solve classification (" + std::to_string(classified) +
                                 " classified, " + std::to_string(t.resolves) + " counted)"
                           : diff)
          << '\n';
      break;
    }
    attempted += t.attempted();
    failed += t.failed();
  }

  Report report(per_layer_metrics());
  if (!faithful) {
    out << report.json(false, std::max<std::uint64_t>(attempted, 1), failed, false) << '\n';
    return 3;
  }

  const double arrivals =
      static_cast<double>(trace.generic_fire.calls + trace.special_sink.calls);
  const double events = static_cast<double>(trace.events);
  report.set("sim.events_per_arrival", ratio(events, arrivals));
  report.set("sim.engine.self_ns_per_event", ratio(trace.engine_self_ns(), events));
  report.set("sim.server.arrive_ns", trace.arrive.mean_ns());
  report.set("policy.route_ns", trace.route.mean_ns());
  report.set("util.alias.sample_ns", trace.alias_sample.mean_ns());
  report.set("runtime.controller.weights_ns", trace.weights.mean_ns());
  report.set("runtime.controller.arrival_ns", trace.arrival.mean_ns());
  report.set("runtime.controller.special_ns", trace.special.mean_ns());
  const double offered = static_cast<double>(first.generic_arrivals);
  report.set("runtime.controller.resolves_per_1k_arrivals",
             1000.0 * ratio(static_cast<double>(first.resolves), offered));
  report.set("runtime.controller.skipped_per_1k_arrivals",
             1000.0 * ratio(static_cast<double>(first.skipped), offered));
  report.set("runtime.controller.drift_resolve_p50_us",
             percentile(trace.drift_resolve_ns, 0.50) * 1e-3);
  report.set("runtime.controller.drift_resolve_p99_us",
             percentile(trace.drift_resolve_ns, 0.99) * 1e-3);
  report.set("runtime.controller.failover_p50_us", percentile(trace.failover_ns, 0.50) * 1e-3);
  report.set("runtime.controller.failover_p99_us", percentile(trace.failover_ns, 0.99) * 1e-3);
  report.set("runtime.controller.fallback_publications",
             static_cast<double>(first.fallback_publications));
  report.set("runtime.health.event_ns", trace.health.mean_ns());
  report.set("runtime.health.transitions", static_cast<double>(first.health_transitions));
  report.set("core.flat.solve_cold_us", probe.cold_us);
  report.set("core.flat.solve_warm_us", probe.warm_us);
  report.set("core.flat.inner_evals_per_solve", probe.evals);
  report.set("core.sharded.build_us", probe.build_us);
  report.set("core.sharded.solve_us", probe.sharded_us);
  report.set("core.sharded.classes", probe.classes);
  report.set("numerics.erlang_c_derivs_ns", probe.erlang_ns);
  report.set("shed_fraction", first.shed_fraction);
  report.set("failed_fraction",
             ratio(static_cast<double>(first.failed()), static_cast<double>(first.attempted())));

  // Shares of the traced wall time: a partition into the engine's self
  // time (plus the generic source's next-arrival scheduling), the leaf calls into
  // each layer, and the replay's composition. What no span covers (glue code
  // between spans, the quarantine-route tally, teardown) is the
  // unattributed remainder.
  double resolve_ns = 0.0;
  for (const auto* v : {&trace.drift_resolve_ns, &trace.failover_ns, &trace.health_resolve_ns}) {
    for (const double ns : *v) resolve_ns += ns;
  }
  const std::pair<const char*, double> shares[] = {
      {"trace.share.setup", trace.setup_ns},
      {"trace.share.sim.engine", trace.engine_self_ns() + trace.schedule.total_ns()},
      {"trace.share.sim.rng", trace.draw.total_ns()},
      {"trace.share.sim.server", trace.arrive.total_ns()},
      {"trace.share.policy", trace.route.total_ns()},
      {"trace.share.util.alias", trace.alias_sample.total_ns()},
      {"trace.share.runtime.weights", trace.weights.total_ns()},
      {"trace.share.runtime.arrival", trace.arrival.total_ns()},
      {"trace.share.runtime.special", trace.special.total_ns()},
      {"trace.share.runtime.resolve", resolve_ns},
      {"trace.share.runtime.health", trace.health.total_ns()},
      {"trace.share.runtime.chaos", trace.chaos.total_ns()},
  };
  double attributed = 0.0;
  for (const auto& [name, ns] : shares) {
    report.set(name, ratio(ns, trace.wall_ns));
    attributed += ratio(ns, trace.wall_ns);
  }
  report.set("trace.attributed_frac", attributed);
  report.set("trace.unattributed_frac", 1.0 - attributed);
  report.set("trace.overhead_frac", median(traced_wall) / median(untraced_wall) - 1.0);

  log << traced_wall.size() << " traced and " << untraced_wall.size()
      << " untraced replays; fidelity check passed (" << first.stats.fields().size()
      << " simulated statistics bitwise equal, " << trace.classified_resolves()
      << " re-solves classified: " << trace.drift_resolve_ns.size() << " drift, "
      << trace.failover_ns.size() << " failover, " << trace.health_resolve_ns.size()
      << " health, " << trace.initial_resolves << " initial)\n";
  log << report.text();
  out << report.json(checks.ok, std::max<std::uint64_t>(attempted, 1), failed) << '\n';
  return 0;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

int run_benchmark(const RunOptions& opts, std::ostream& out, std::ostream& log) {
  return opts.trace ? run_traced(opts, out, log) : run_untraced(opts, out, log);
}

}  // namespace servebench
