#include "cli/app.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "cli/spec.hpp"
#include "cloud/consolidation.hpp"
#include "obs/build_info.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "cloud/experiments.hpp"
#include "cloud/series.hpp"
#include "cloud/trace.hpp"
#include "core/allocation.hpp"
#include "core/batch.hpp"
#include "core/optimizer.hpp"
#include "core/sensitivity.hpp"
#include "core/sharded.hpp"
#include "parallel/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "policy/policy.hpp"
#include "queueing/waiting_distribution.hpp"
#include "runtime/chaos.hpp"
#include "runtime/replay.hpp"
#include "sim/simulation.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace blade::cli {

namespace {

opt::OptimizerOptions solver_options(const CommonOptions& opts) {
  opt::OptimizerOptions oo;
  oo.service_scv = opts.service_scv;
  oo.verbosity = opts.verbosity;
  return oo;
}

opt::LoadDistributionOptimizer make_solver(const model::Cluster& cluster,
                                           const CommonOptions& opts) {
  return opt::LoadDistributionOptimizer(cluster, opts.discipline, solver_options(opts));
}

void check_lambda(const model::Cluster& cluster, double lambda) {
  if (!(lambda > 0.0) || lambda >= cluster.max_generic_rate()) {
    throw std::invalid_argument("lambda must be in (0, " +
                                std::to_string(cluster.max_generic_rate()) + ")");
  }
}

/// Builds the policy config the `sim` / `serve-replay --policy` paths
/// share: weights for the weighted kinds come from the paper solver at
/// `lambda`, speeds for sb-d from the cluster.
policy::PolicyConfig make_policy_config(const model::Cluster& cluster, double lambda,
                                        const std::string& name, std::uint64_t seed,
                                        const CommonOptions& opts) {
  auto kind = policy::parse_policy_kind(name);
  if (!kind) throw std::invalid_argument(kind.error().context);
  policy::PolicyConfig cfg;
  cfg.kind = kind.value();
  cfg.probe_d = opts.probe_d;
  cfg.seed = seed;
  // Dedicated routing stream id, decorrelated from the arrival streams
  // (which use the sim layer's 1000003/2i+1 convention over the seed).
  cfg.stream = 77;
  if (policy::needs_weights(cfg.kind)) {
    cfg.weights = make_solver(cluster, opts).optimize(lambda).rates;
  }
  if (cfg.kind == policy::PolicyKind::SpeedBiasedD) {
    for (const auto& s : cluster.servers()) cfg.speeds.push_back(s.speed());
  }
  return cfg;
}

/// "jsq-d (d = 2)": the policy name, with the probe depth where it applies.
std::string describe_policy(const policy::PolicyConfig& cfg) {
  std::string out = policy::to_string(cfg.kind);
  if (policy::probes_queue_state(cfg.kind) && cfg.kind != policy::PolicyKind::Jsq) {
    out += " (d = " + std::to_string(cfg.probe_d) + ")";
  }
  return out;
}

std::string measured_line(const sim::SimResult& res) {
  std::ostringstream os;
  os << "measured T'       " << util::fixed(res.generic_mean_response, 4) << " generic ("
     << res.generic_samples << " tasks), " << util::fixed(res.special_mean_response, 4)
     << " special (" << res.special_samples << " tasks)\n";
  return os.str();
}

/// The measured-split and probe-cost lines both policy reports end with.
std::string policy_tail(const runtime::PolicyReplayResult& res) {
  const auto& c = res.counters;
  std::ostringstream os;
  os << "measured split    " << util::to_string(res.measured_fractions, 4) << '\n'
     << "probe cost        " << c.probes << " probes / " << c.routed << " routed = "
     << util::fixed(c.routed > 0 ? static_cast<double>(c.probes) /
                                       static_cast<double>(c.routed)
                                 : 0.0,
                    3)
     << " per task (" << c.redraws << " redraws, " << c.ties << " ties, " << c.herd_events
     << " herd events, " << c.fallback_scans << " fallback scans)\n";
  return os.str();
}

}  // namespace

std::string run_optimize(const model::Cluster& cluster, double lambda,
                         const CommonOptions& opts) {
  check_lambda(cluster, lambda);
  opt::ShardOptions shard;
  shard.cells = opts.shards;
  shard.prune.top_k = opts.prune_k;
  const opt::ShardedOptimizer solver(cluster, opts.discipline, solver_options(opts), shard);
  opt::SolverWorkspace ws;
  const opt::ShardedLoadDistribution sharded = [&] {
    if (opts.threads == 0) return solver.optimize(lambda, ws);
    par::ThreadPool pool(static_cast<std::size_t>(opts.threads));
    return solver.optimize(lambda, pool, ws);
  }();
  const opt::LoadDistribution& sol = sharded.dist;
  std::string shard_line;
  if (opts.shards > 0) {
    std::ostringstream sl;
    sl << "sharded solve: " << sharded.cells << " cells, " << sharded.server_classes
       << " server classes (" << sharded.coalesced_servers << " coalesced";
    if (opts.prune_k > 0) {
      sl << ", " << sharded.pruned_servers
         << " pruned, optimality loss <= " << util::fixed(sharded.prune_loss_bound, 9);
    }
    sl << ")\n";
    shard_line = sl.str();
  }
  util::Table t({"i", "m_i", "s_i", "lambda'_i", "lambda''_i", "rho_i", "T'_i"});
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto& s = cluster.server(i);
    t.add_row({std::to_string(i + 1), std::to_string(s.size()), util::fixed(s.speed(), 3),
               util::fixed(sol.rates[i]), util::fixed(s.special_rate()),
               util::fixed(sol.utilizations[i]), util::fixed(sol.response_times[i])});
  }
  std::ostringstream os;
  os << cluster.describe() << '\n'
     << "discipline = " << queue::to_string(opts.discipline) << ", scv = " << opts.service_scv
     << ", lambda' = " << lambda << "\n\n"
     << t.render() << shard_line << "minimized T' = " << util::fixed(sol.response_time)
     << "  (phi = " << util::fixed(sol.phi) << ")\n";
  return os.str();
}

std::string run_sweep(const model::Cluster& cluster, double lo, double hi, std::size_t points,
                      const CommonOptions& opts) {
  if (points < 2) throw std::invalid_argument("sweep needs at least 2 points");
  check_lambda(cluster, lo);
  check_lambda(cluster, hi);
  if (!(hi > lo)) throw std::invalid_argument("sweep needs hi > lo");
  const auto solver = make_solver(cluster, opts);
  const auto grid = par::linspace(lo, hi, points);
  // Batched solve: fixed-size warm-start chains sharded across the pool.
  // The chunking is thread-count independent, so the CSV is identical
  // for every --threads value.
  std::vector<opt::LoadDistribution> sols;
  if (opts.threads > 0) {
    par::ThreadPool pool(static_cast<std::size_t>(opts.threads));
    sols = opt::optimize_many(solver, grid, pool);
  } else {
    sols = opt::optimize_many(solver, grid);
  }
  std::ostringstream os;
  os << "lambda,T\n";
  os.setf(std::ios::fixed);
  os.precision(7);
  for (std::size_t i = 0; i < grid.size(); ++i) os << grid[i] << ',' << sols[i].response_time << '\n';
  return os.str();
}

std::string run_validate(const model::Cluster& cluster, double lambda, int replications,
                         std::uint64_t seed, const CommonOptions& opts) {
  check_lambda(cluster, lambda);
  if (opts.service_scv != 1.0) {
    throw std::invalid_argument(
        "validate requires scv = 1 (the simulator draws exponential task sizes)");
  }
  const auto sol = make_solver(cluster, opts).optimize(lambda);
  sim::SimConfig cfg;
  cfg.horizon = 40000.0;
  cfg.warmup = 4000.0;
  cfg.seed = seed;
  const auto mode = sim::to_mode(opts.discipline);
  const auto rep = sim::replicate(
      [&](const sim::SimConfig& c) { return sim::simulate_split(cluster, sol.rates, mode, c); },
      cfg, replications);
  std::ostringstream os;
  os << "analytic  T' = " << util::fixed(sol.response_time) << '\n'
     << "simulated T' = " << util::fixed(rep.generic_response.mean) << " +/- "
     << util::fixed(rep.generic_response.half_width) << " (95% CI, " << replications
     << " replications)\n"
     << "analytic value " << (rep.generic_response.contains(sol.response_time) ? "IS" : "is NOT")
     << " inside the confidence interval\n";
  return os.str();
}

std::string run_sensitivity(const model::Cluster& cluster, double lambda,
                            const CommonOptions& opts) {
  check_lambda(cluster, lambda);
  if (opts.service_scv != 1.0) {
    throw std::invalid_argument("sensitivity currently reports the exact (scv = 1) model");
  }
  const auto rep = opt::analyze_sensitivity(cluster, opts.discipline, lambda);
  util::Table t({"server", "dT/ds_i", "dT/dlambda''_i", "one extra blade"});
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    t.add_row({std::to_string(i + 1), util::fixed(rep.dT_dspeed[i], 6),
               util::fixed(rep.dT_dspecial[i], 6), util::fixed(rep.blade_value[i], 6)});
  }
  std::ostringstream os;
  os << "dT'/dlambda' = " << util::fixed(rep.dT_dlambda, 6)
     << "   dT'/drbar = " << util::fixed(rep.dT_drbar, 6) << "\n\n"
     << t.render()
     << "negative entries reduce T' (speed, blades); positive ones increase it.\n";
  return os.str();
}

std::string run_percentiles(const model::Cluster& cluster, double lambda,
                            const CommonOptions& opts) {
  check_lambda(cluster, lambda);
  if (opts.discipline != queue::Discipline::Fcfs || opts.service_scv != 1.0) {
    throw std::invalid_argument(
        "percentiles uses the exact FCFS M/M/m distribution (no --priority / --scv)");
  }
  const auto sol = make_solver(cluster, opts).optimize(lambda);
  util::Table t({"i", "lambda'_i", "P(wait)", "p50 T", "p90 T", "p99 T"});
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto& s = cluster.server(i);
    if (sol.rates[i] <= 1e-12) {
      t.add_row({std::to_string(i + 1), "0", "--", "--", "--", "--"});
      continue;
    }
    const queue::WaitingTimeDistribution d(s.size(), s.mean_service_time(cluster.rbar()),
                                           sol.rates[i] + s.special_rate());
    t.add_row({std::to_string(i + 1), util::fixed(sol.rates[i], 4),
               util::fixed(d.prob_queueing(), 4), util::fixed(d.response_quantile(0.5), 4),
               util::fixed(d.response_quantile(0.9), 4),
               util::fixed(d.response_quantile(0.99), 4)});
  }
  std::ostringstream os;
  os << "per-server generic response-time percentiles at the optimal split\n"
     << "(lambda' = " << lambda << ", mean T' = " << util::fixed(sol.response_time, 4) << ")\n"
     << t.render();
  return os.str();
}

std::string run_allocate(const model::Cluster& cluster, double lambda,
                         const CommonOptions& opts) {
  check_lambda(cluster, lambda);
  if (opts.service_scv != 1.0) {
    throw std::invalid_argument("allocate designs with the exact (scv = 1) model");
  }
  opt::AllocationProblem p;
  for (const auto& s : cluster.servers()) p.speeds.push_back(s.speed());
  p.blade_budget = cluster.total_blades();
  p.rbar = cluster.rbar();
  // Use the cluster's average preload fraction as the design preload.
  double util_sum = 0.0;
  for (const auto& s : cluster.servers()) util_sum += s.special_utilization(cluster.rbar());
  p.preload_fraction = util_sum / static_cast<double>(cluster.size());
  p.discipline = opts.discipline;
  p.lambda_total = lambda;
  const auto res = opt::allocate_blades(p);

  const auto current = make_solver(cluster, opts).optimize(lambda);
  std::vector<double> sizes_d(res.sizes.begin(), res.sizes.end());
  std::ostringstream os;
  os << "current layout T' = " << util::fixed(current.response_time) << '\n'
     << "redesigned blades per chassis: " << util::to_string(sizes_d, 0)
     << "  -> T' = " << util::fixed(res.response_time) << " (" << res.evaluations
     << " inner solves)\n";
  return os.str();
}

std::string run_sim(const model::Cluster& cluster, double lambda, std::uint64_t seed,
                    const CommonOptions& opts) {
  check_lambda(cluster, lambda);
  const std::string name = opts.policy.empty() ? "opt-split" : opts.policy;
  const auto cfg = make_policy_config(cluster, lambda, name, seed, opts);

  runtime::ReplayTrace trace;
  trace.horizon = 40000.0;
  trace.seed = seed;
  trace.events.push_back({.time = 0.0, .kind = runtime::ReplayEvent::Kind::Rate, .rate = lambda});
  runtime::ReplayOptions ropts;
  ropts.warmup = 4000.0;
  ropts.service_scv = opts.service_scv;
  const auto res = runtime::replay_policy(cluster, cfg, trace, ropts, opts.discipline);
  const auto optimum = make_solver(cluster, opts).optimize(lambda);

  std::ostringstream os;
  os << cluster.describe() << '\n'
     << "policy " << describe_policy(cfg) << ", lambda' = " << lambda << ", seed " << seed
     << "\n\n"
     << measured_line(res.sim) << "optimal-split T'  " << util::fixed(optimum.response_time, 4)
     << " (analytic)\n"
     << policy_tail(res);
  return os.str();
}

/// serve-replay with --policy: the trace's timeline through one fixed
/// dispatch policy (no controller) — the CLI face of replay_policy.
std::string run_serve_replay_policy(const model::Cluster& cluster, const std::string& trace_text,
                                    const ServeOptions& serve, const CommonOptions& opts) {
  auto trace = runtime::parse_replay_trace(trace_text);
  if (serve.seed) trace.seed = *serve.seed;
  // Weighted kinds solve at the trace's first announced rate: the static
  // split a planner would have provisioned before the timeline starts.
  double design_rate = 0.0;
  for (const auto& e : trace.events) {
    if (e.kind == runtime::ReplayEvent::Kind::Rate && e.rate > 0.0) {
      design_rate = e.rate;
      break;
    }
  }
  if (design_rate == 0.0) design_rate = 0.5 * cluster.max_generic_rate();
  const auto cfg = make_policy_config(cluster, design_rate, opts.policy, trace.seed, opts);

  runtime::ReplayOptions ropts;
  ropts.service_scv = opts.service_scv;
  runtime::PolicyReplayResult res;
  std::string chaos_line;
  auto profile = runtime::chaos_profile(serve.chaos_profile);
  if (!profile) throw std::invalid_argument(profile.error().context);
  if (serve.chaos_seed) {
    runtime::FaultInjector chaos(*serve.chaos_seed, profile.value());
    ropts.chaos = &chaos;
    res = runtime::replay_policy(cluster, cfg, trace, ropts, opts.discipline);
    std::ostringstream cs;
    cs << "chaos             profile " << serve.chaos_profile << " (seed " << *serve.chaos_seed
       << "): blade flaps merged into the failure schedule\n";
    chaos_line = cs.str();
  } else {
    res = runtime::replay_policy(cluster, cfg, trace, ropts, opts.discipline);
  }

  std::ostringstream os;
  os << cluster.describe() << '\n'
     << "replayed horizon " << trace.horizon << " (seed " << trace.seed << ") through policy "
     << describe_policy(cfg) << "\n\n"
     << "generic arrivals  " << res.counters.routed << " routed (no admission control)\n"
     << chaos_line << measured_line(res.sim) << policy_tail(res);
  return os.str();
}

std::string run_trace(const model::Cluster& cluster, double trough, double peak,
                      const CommonOptions& opts) {
  if (opts.service_scv != 1.0) {
    throw std::invalid_argument("trace uses the exact (scv = 1) model");
  }
  const auto profile = cloud::diurnal_profile(trough, peak, 24);
  const auto adaptive = cloud::run_adaptive(cluster, opts.discipline, profile);
  const double mean_rate = 0.5 * (trough + peak);
  const auto fixed = cloud::run_static(cluster, opts.discipline, profile, mean_rate);
  std::ostringstream os;
  os << "diurnal profile: 24 epochs, lambda' in [" << trough << ", " << peak << "]\n"
     << "adaptive (re-solve per epoch): mean T' = " << util::fixed(adaptive.mean_response_time, 4)
     << '\n'
     << "static split designed at " << mean_rate
     << ": mean T' = " << util::fixed(fixed.mean_response_time, 4) << " ("
     << fixed.overloaded_epochs << " overloaded epochs)\n";
  return os.str();
}

std::string run_serve_replay(const model::Cluster& cluster, const std::string& trace_text,
                             const ServeOptions& serve, const CommonOptions& opts) {
  if (opts.service_scv != 1.0) {
    throw std::invalid_argument("serve-replay draws exponential task sizes (no --scv)");
  }
  auto trace = runtime::parse_replay_trace(trace_text);
  if (serve.seed) trace.seed = *serve.seed;

  runtime::ControllerConfig cfg;
  cfg.discipline = opts.discipline;
  cfg.half_life = serve.half_life > 0.0 ? serve.half_life : trace.horizon / 100.0;
  cfg.utilization_ceiling = serve.utilization_ceiling;
  cfg.loss_threshold = serve.loss_threshold;
  cfg.shard_cells = opts.shards;
  cfg.prune_top_k = opts.prune_k;
  if (serve.health) {
    cfg.health.enabled = true;
    cfg.health.half_life = serve.health_half_life;
    cfg.health.suspect_threshold = serve.health_suspect;
    cfg.health.quarantine_threshold = serve.health_quarantine;
    cfg.health.recover_threshold = serve.health_recover;
    cfg.health.suspect_dwell = serve.health_suspect_dwell;
    cfg.health.quarantine_dwell = serve.health_quarantine_dwell;
    cfg.health.probation_dwell = serve.health_probation_dwell;
  }

  runtime::ReplayOptions ropts;
  ropts.checkpoint_out = serve.checkpoint_out;
  ropts.checkpoint_every = serve.checkpoint_every;
  if (!serve.checkpoint_in.empty()) {
    auto doc = util::read_file(serve.checkpoint_in);
    if (!doc) {
      throw std::invalid_argument("cannot read checkpoint '" + serve.checkpoint_in +
                                  "': " + doc.error().context);
    }
    ropts.checkpoint_in = std::move(doc.value());
  }
  if (serve.slo_target > 0.0) {
    ropts.slo.response_time = serve.slo_target;
    ropts.slo.max_shed_fraction = serve.slo_max_shed;
    ropts.slo_epochs = serve.slo_epochs;
  }
  if (!serve.recorder_out.empty()) {
    if (serve.recorder_capacity > 0) obs::recorder().set_capacity(serve.recorder_capacity);
    obs::recorder().reset();
  }

  runtime::ReplayResult res;
  std::string chaos_line;
  auto profile = runtime::chaos_profile(serve.chaos_profile);
  if (!profile) throw std::invalid_argument(profile.error().context);
  if (serve.chaos_seed) {
    runtime::FaultInjector chaos(*serve.chaos_seed, profile.value());
    ropts.chaos = &chaos;
    res = runtime::replay(cluster, cfg, trace, ropts);
    std::ostringstream cs;
    cs << "chaos             profile " << serve.chaos_profile << " (seed " << *serve.chaos_seed
       << "): " << chaos.dropped() << " dropped, " << chaos.phantoms() << " phantom, "
       << chaos.timewarps() << " timewarped observations, " << chaos.solver_faults()
       << " solver faults\n";
    chaos_line = cs.str();
  } else {
    res = runtime::replay(cluster, cfg, trace, ropts);
  }

  std::string health_line;
  if (serve.health) {
    std::ostringstream hs;
    hs << "health            " << res.stats.health_transitions << " transitions ("
       << res.stats.quarantines << " quarantines, " << res.stats.probations << " probations, "
       << res.stats.health_recoveries << " recoveries), " << res.stats.quarantine_publications
       << " quarantine redistributions, " << res.routes_to_quarantined
       << " routes to quarantined\n";
    health_line = hs.str();
  }

  std::string checkpoint_line;
  if (!serve.checkpoint_out.empty() || !serve.checkpoint_in.empty()) {
    std::ostringstream ks;
    ks << "checkpoints       ";
    if (!serve.checkpoint_in.empty()) ks << "restored from " << serve.checkpoint_in << "; ";
    ks << res.checkpoints_written << " written";
    if (!serve.checkpoint_out.empty()) ks << " -> " << serve.checkpoint_out;
    ks << '\n';
    checkpoint_line = ks.str();
  }

  std::string recorder_line;
  if (!serve.recorder_out.empty()) {
    const obs::Dump dump = obs::recorder().dump("serve-replay");
    obs::write_dump_file(dump, serve.recorder_out);
    std::ostringstream rs;
    rs << "flight recorder   " << dump.total_events() << " events ("
       << dump.total_dropped() << " dropped) -> " << serve.recorder_out << '\n';
    recorder_line = rs.str();
  }

  const double evals_per_resolve =
      res.stats.resolves > 0 ? static_cast<double>(res.stats.solver_evaluations) /
                                   static_cast<double>(res.stats.resolves)
                             : 0.0;
  // A skipped check evaluates each class the re-solve's solver keeps once.
  const double evals_per_skip = static_cast<double>(res.stats.check_evaluations) /
                                static_cast<double>(std::max<std::uint64_t>(
                                    1, res.stats.skipped_by_hysteresis));
  std::ostringstream os;
  os << cluster.describe() << '\n'
     << "replayed horizon " << trace.horizon << " (seed " << trace.seed << ", half-life "
     << util::fixed(cfg.half_life, 3) << ", ceiling " << cfg.utilization_ceiling << ")\n\n"
     << "generic arrivals  " << res.stats.generic_arrivals << " offered, " << res.stats.admitted
     << " admitted, " << res.stats.shed << " shed ("
     << util::fixed(100.0 * res.shed_fraction, 3) << "%)\n"
     << "special arrivals  " << res.stats.special_arrivals << '\n'
     << "controller        " << res.stats.resolves << " resolves ("
     << util::fixed(evals_per_resolve, 1) << " solver evaluations each), "
     << res.stats.infeasible_resolves << " infeasible, " << res.stats.publications
     << " weight publications\n"
     << "drift checks      "
     << res.stats.shedding_checks + res.stats.unevaluated_checks + res.stats.loss_checks
     << " fired (" << res.stats.shedding_checks << " shedding, " << res.stats.unevaluated_checks
     << " unevaluated, " << res.stats.loss_checks << " predicted loss), "
     << res.stats.skipped_by_hysteresis << " skipped at " << util::fixed(evals_per_skip, 1)
     << " evaluations each (threshold " << cfg.loss_threshold << ")\n"
     << "events            " << res.stats.failures << " failures, " << res.stats.recoveries
     << " recoveries\n"
     << chaos_line
     << "resilience        " << res.stats.solver_failures << " contained solver failures ("
     << res.stats.lkg_publications << " served from LKG, " << res.stats.fallback_publications
     << " proportional), " << res.stats.rejected_observations
     << " rejected observations, final mode " << runtime::to_string(res.final_mode) << '\n'
     << measured_line(res.sim)
     << "final split       " << util::to_string(res.final_fractions, 4) << " (shed prob "
     << util::fixed(res.final_shed_probability, 4) << ")\n"
     << health_line << checkpoint_line << recorder_line;
  if (!res.slo.empty()) {
    os << '\n';
    for (const auto& s : res.slo) os << s.line << '\n';
    os << "slo               " << res.slo_breaches << " objective breach"
       << (res.slo_breaches == 1 ? "" : "es") << " across " << res.slo.size() << " epochs\n";
  }
  return os.str();
}

std::string run_figure(int number, const std::string& format, std::size_t points) {
  const auto fig = cloud::figure(number, points);
  if (format == "csv") return cloud::to_csv(fig);
  if (format == "json") return cloud::to_json(fig) + "\n";
  if (format == "ascii") return cloud::ascii_plot(fig);
  throw std::invalid_argument("figures: format must be csv, json, or ascii");
}

std::string run_consolidate(const model::Cluster& cluster, double trough, double peak,
                            double slo, const CommonOptions& opts) {
  if (opts.service_scv != 1.0) {
    throw std::invalid_argument("consolidate uses the exact (scv = 1) model");
  }
  const auto profile = cloud::diurnal_profile(trough, peak, 24);
  const auto plan = cloud::plan_consolidation(cluster, opts.discipline, profile, slo);
  unsigned lo = cluster.total_blades();
  unsigned hi = 0;
  for (const auto& e : plan.epochs) {
    lo = std::min(lo, e.total_active);
    hi = std::max(hi, e.total_active);
  }
  std::ostringstream os;
  os << "diurnal day, lambda' in [" << trough << ", " << peak << "], SLO T' <= " << slo << '\n'
     << "active blades: " << lo << " (off-peak) .. " << hi << " (peak) of "
     << cluster.total_blades() << '\n'
     << "blade-time switched off: " << util::fixed(100.0 * plan.energy_savings(), 1) << "%\n";
  return os.str();
}

std::string usage() {
  return "usage: bladecli <command> <spec-file> [args] [flags]\n"
         "\n"
         "commands:\n"
         "  optimize <spec> <lambda>                solve one instance\n"
         "  sweep <spec> <lo> <hi> <points>         T' over a lambda grid (CSV)\n"
         "  validate <spec> <lambda>                simulate at the optimum\n"
         "  sensitivity <spec> <lambda>             parameter sensitivities\n"
         "  percentiles <spec> <lambda>             per-server response percentiles\n"
         "  allocate <spec> <lambda>                repack blades across chassis\n"
         "  trace <spec> <trough> <peak>            diurnal-profile study\n"
         "  sim <spec> <lambda>                     simulate one dispatch policy\n"
         "                                          (see --policy / --probe-d)\n"
         "  serve-replay <spec> <trace|reference>   replay an event trace through the\n"
         "                                          online controller + simulator\n"
         "                                          (or one policy, with --policy)\n"
         "  figures <number> <csv|json|ascii>       regenerate a paper figure (4..15)\n"
         "  consolidate <spec> <trough> <peak> <slo> blade power-down plan\n"
         "\n"
         "flags (a flag the command does not read is rejected):\n"
         "  --priority        special tasks get non-preemptive priority (not figures)\n"
         "  --scv <x>         task-size SCV (default 1 = exponential; not figures)\n"
         "  --reps <n>        validate: replications (default 6)\n"
         "  --policy <name>   sim / serve-replay: dispatch policy (random,\n"
         "                    round-robin, jsq, jsq-d, sb-d, ha-jsq-d, wjsq-d,\n"
         "                    opt-split); sim defaults to opt-split. With\n"
         "                    serve-replay it replaces the controller, so the\n"
         "                    controller's flags are rejected\n"
         "  --probe-d <k>     with --policy: probes per arrival for d-choices\n"
         "                    policies (default 2)\n"
         "  --seed <n>        validate / sim / serve-replay: base seed (default 1;\n"
         "                    serve-replay: the trace file's)\n"
         "  --half-life <t>   serve-replay: estimator half-life (default horizon/100)\n"
         "  --ceiling <u>     serve-replay: admission utilization ceiling (default 0.95)\n"
         "  --loss-threshold <x>        serve-replay: re-solve when a drift check\n"
         "                    predicts a relative T' loss above x (default 0.003)\n"
         "  --chaos-seed <n>  serve-replay: enable deterministic fault injection\n"
         "  --chaos-profile <p>         with --chaos-seed: none, light, moderate\n"
         "                    (default), heavy, or gray-light/-moderate/-heavy\n"
         "  --slo-target <t>  serve-replay: per-epoch mean-T' objective; prints\n"
         "                    burn-rate SLO lines per epoch\n"
         "  --slo-max-shed <f>          with --slo-target: shed-fraction objective\n"
         "                    (default 0.05)\n"
         "  --slo-epochs <n>  with --slo-target: SLO windows across the horizon\n"
         "                    (default 12)\n"
         "  --recorder-out <path>       serve-replay: dump the flight recorder\n"
         "                    (.json = Chrome trace for Perfetto, else JSONL)\n"
         "  --recorder-capacity <n>     with --recorder-out: per-thread ring slots\n"
         "  --health          serve-replay: gray-failure detection (per-blade\n"
         "                    health scoring + the quarantine state machine);\n"
         "                    the health knobs below need it\n"
         "  --health-suspect / --health-quarantine / --health-recover <score>\n"
         "                    state-machine thresholds (default 0.7 / 0.45 / 0.9)\n"
         "  --health-suspect-dwell / --health-quarantine-dwell /\n"
         "  --health-probation-dwell <t> dwell times (default 8 / 30 / 20)\n"
         "  --health-half-life <t>      score EWMA memory (default 20)\n"
         "  --checkpoint-out <path>     serve-replay: crash-safe controller\n"
         "                    checkpoints (atomic temp-file + rename)\n"
         "  --checkpoint-every <t>      with --checkpoint-out: periodic checkpoint\n"
         "                    interval in sim time (default 0 = final only)\n"
         "  --checkpoint-in <path>      restore controller state before the replay\n"
         "  --verbose         optimize, sweep, validate, percentiles, allocate, sim,\n"
         "                    serve-replay --policy: solver convergence summaries\n"
         "                    on stderr\n"
         "  --threads <n>     sweep, and optimize with --shards >= 2: worker\n"
         "                    threads (default 0 = shared pool)\n"
         "  --shards <n>      optimize / serve-replay: solve in n cells on the\n"
         "                    thread pool (default 0 = one cell, this thread)\n"
         "  --prune-k <k>     with --shards: keep top-k servers per cell\n"
         "  --metrics-out <path>        export run metrics after the command\n"
         "                    ('-' appends the rendering to the report itself)\n"
         "  --metrics-format <f>        with --metrics-out: json (default), prom, or csv\n"
         "  --version         build attribution (git hash, compiler, BLADE_OBS);\n"
         "                    prints it instead of running any command\n";
}

namespace {

/// The value of `name` (a flag, or a positional argument as usage() names
/// it) in `token`. The whole token must parse, and an unsigned type takes
/// no sign; otherwise throws std::invalid_argument naming `name`.
template <class T>
T parse_number(std::string_view name, const std::string& token) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec == std::errc{} && end == last) return value;
  throw std::invalid_argument(std::string(name) + " needs a " +
                              (std::is_unsigned_v<T> ? "non-negative integer" : "number") +
                              ", got '" + token + "'");
}

/// What run_cli parses out of its arguments.
struct Parsed {
  std::vector<std::string> pos;
  std::vector<std::string> flags;  ///< every flag given, as spelled
  CommonOptions opts;
  ServeOptions serve;
  int reps = 6;
  std::string metrics_out;
  obs::ExportFormat metrics_format = obs::ExportFormat::Json;
};

/// A flag that another flag needs alongside it: its name in the error,
/// and whether the parsed arguments switch it on.
struct Need {
  std::string_view flag;
  bool (*on)(const Parsed&);
};

/// One row of the flag table: `flags` are read by `commands`, there only
/// alongside `needs` when set. A flag whose need differs by command has
/// one row per need.
struct FlagUse {
  std::vector<std::string_view> flags;
  std::vector<std::string_view> commands;
  std::optional<Need> needs;
};

/// `serve-replay --policy` replays a fixed policy instead of the
/// controller, so it reads other flags and counts as a command of its own.
constexpr std::string_view kPolicyReplay = "serve-replay --policy";

const std::vector<std::string_view> kCommands = {
    "optimize", "sweep", "validate",     "sensitivity", "percentiles", "allocate",
    "trace",    "sim",   "serve-replay", kPolicyReplay, "figures",     "consolidate"};

const std::vector<FlagUse>& flag_uses() {
  static const std::vector<FlagUse> table = [] {
    // Every command but figures models a spec's discipline and task
    // sizes (the exact-model ones read --scv to reject all but 1).
    std::vector<std::string_view> modelled = kCommands;
    std::erase(modelled, "figures");
    const std::vector<std::string_view> replay = {"serve-replay"};
    const std::vector<std::string_view> replays = {"serve-replay", kPolicyReplay};
    const Need shards{"--shards", [](const Parsed& p) { return p.opts.shards > 0; }};
    // One cell solves on the calling thread, without the pool.
    const Need two_shards{"--shards >= 2", [](const Parsed& p) { return p.opts.shards >= 2; }};
    const Need chaos{"--chaos-seed",
                     [](const Parsed& p) { return p.serve.chaos_seed.has_value(); }};
    const Need slo{"--slo-target", [](const Parsed& p) { return p.serve.slo_target > 0.0; }};
    const Need recorder{"--recorder-out",
                        [](const Parsed& p) { return !p.serve.recorder_out.empty(); }};
    const Need health{"--health", [](const Parsed& p) { return p.serve.health; }};
    const Need checkpoint{"--checkpoint-out",
                          [](const Parsed& p) { return !p.serve.checkpoint_out.empty(); }};
    const Need metrics{"--metrics-out", [](const Parsed& p) { return !p.metrics_out.empty(); }};
    return std::vector<FlagUse>{
        {{"--priority", "--scv"}, modelled, {}},
        {{"--reps"}, {"validate"}, {}},
        {{"--seed"}, {"validate", "sim", "serve-replay", kPolicyReplay}, {}},
        {{"--policy", "--probe-d"}, {"sim", kPolicyReplay}, {}},
        {{"--verbose"},
         {"optimize", "sweep", "validate", "percentiles", "allocate", "sim", kPolicyReplay},
         {}},
        {{"--threads"}, {"sweep"}, {}},
        {{"--threads"}, {"optimize"}, two_shards},
        {{"--shards"}, {"optimize", "serve-replay"}, {}},
        {{"--prune-k"}, {"optimize", "serve-replay"}, shards},
        {{"--half-life", "--ceiling", "--loss-threshold", "--slo-target", "--recorder-out",
          "--health", "--checkpoint-out", "--checkpoint-in"},
         replay,
         {}},
        {{"--chaos-seed"}, replays, {}},
        {{"--chaos-profile"}, replays, chaos},
        {{"--slo-max-shed", "--slo-epochs"}, replay, slo},
        {{"--recorder-capacity"}, replay, recorder},
        {{"--health-suspect", "--health-quarantine", "--health-recover", "--health-suspect-dwell",
          "--health-quarantine-dwell", "--health-probation-dwell", "--health-half-life"},
         replay,
         health},
        {{"--checkpoint-every"}, replay, checkpoint},
        {{"--metrics-out"}, kCommands, {}},
        {{"--metrics-format"}, kCommands, metrics},
    };
  }();
  return table;
}

/// Every flag is honoured or rejected, never ignored: a flag `command`
/// does not read, or one given without the flag it needs there, throws
/// naming the flag and the command. An unknown command is left to
/// dispatch.
void check_flags(std::string_view command, const Parsed& p) {
  if (std::ranges::find(kCommands, command) == kCommands.end()) return;
  const std::vector<FlagUse>& table = flag_uses();
  const std::string cmd(command);
  for (const std::string& flag : p.flags) {
    const auto use = std::ranges::find_if(table, [&](const FlagUse& row) {
      return std::ranges::find(row.flags, flag) != row.flags.end() &&
             std::ranges::find(row.commands, command) != row.commands.end();
    });
    if (use == table.end()) throw std::invalid_argument(flag + " is not used by " + cmd);
    if (use->needs && !use->needs->on(p)) {
      throw std::invalid_argument(flag + " needs " + std::string(use->needs->flag) + " with " +
                                  cmd);
    }
  }
}

std::string dispatch(const std::vector<std::string>& pos, const CommonOptions& opts, int reps,
                     std::uint64_t seed, const ServeOptions& serve) {
  const std::string& cmd = pos[0];
  auto need = [&](std::size_t n, const char* shape) {
    if (pos.size() != n) {
      throw std::invalid_argument(std::string("usage: bladecli ") + shape);
    }
  };
  auto real = [&](std::size_t i, const char* name) { return parse_number<double>(name, pos[i]); };
  if (cmd == "optimize") {
    need(3, "optimize <spec> <lambda>");
    return run_optimize(load_cluster_spec(pos[1]), real(2, "<lambda>"), opts);
  }
  if (cmd == "sweep") {
    need(5, "sweep <spec> <lo> <hi> <points>");
    return run_sweep(load_cluster_spec(pos[1]), real(2, "<lo>"), real(3, "<hi>"),
                     parse_number<std::size_t>("<points>", pos[4]), opts);
  }
  if (cmd == "validate") {
    need(3, "validate <spec> <lambda>");
    return run_validate(load_cluster_spec(pos[1]), real(2, "<lambda>"), reps, seed, opts);
  }
  if (cmd == "sensitivity") {
    need(3, "sensitivity <spec> <lambda>");
    return run_sensitivity(load_cluster_spec(pos[1]), real(2, "<lambda>"), opts);
  }
  if (cmd == "percentiles") {
    need(3, "percentiles <spec> <lambda>");
    return run_percentiles(load_cluster_spec(pos[1]), real(2, "<lambda>"), opts);
  }
  if (cmd == "allocate") {
    need(3, "allocate <spec> <lambda>");
    return run_allocate(load_cluster_spec(pos[1]), real(2, "<lambda>"), opts);
  }
  if (cmd == "trace") {
    need(4, "trace <spec> <trough> <peak>");
    return run_trace(load_cluster_spec(pos[1]), real(2, "<trough>"), real(3, "<peak>"), opts);
  }
  if (cmd == "sim") {
    need(3, "sim <spec> <lambda> [--policy <name>] [--probe-d <k>]");
    return run_sim(load_cluster_spec(pos[1]), real(2, "<lambda>"), seed, opts);
  }
  if (cmd == "serve-replay") {
    need(3, "serve-replay <spec> <trace-file|reference>");
    const auto cluster = load_cluster_spec(pos[1]);
    std::string text;
    if (pos[2] == "reference") {
      text = runtime::to_text(runtime::reference_failure_trace(cluster, 6000.0));
    } else {
      std::ifstream in(pos[2]);
      if (!in) throw std::invalid_argument("cannot open trace file '" + pos[2] + "'");
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    if (!opts.policy.empty()) return run_serve_replay_policy(cluster, text, serve, opts);
    return run_serve_replay(cluster, text, serve, opts);
  }
  if (cmd == "figures") {
    need(3, "figures <number> <csv|json|ascii>");
    return run_figure(parse_number<int>("<number>", pos[1]), pos[2]);
  }
  if (cmd == "consolidate") {
    need(5, "consolidate <spec> <trough> <peak> <slo>");
    return run_consolidate(load_cluster_spec(pos[1]), real(2, "<trough>"), real(3, "<peak>"),
                           real(4, "<slo>"), opts);
  }
  throw std::invalid_argument("unknown command '" + cmd + "'\n" + usage());
}

}  // namespace

std::string run_cli(const std::vector<std::string>& args) {
  Parsed p;
  CommonOptions& opts = p.opts;
  ServeOptions& serve = p.serve;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) == 0) p.flags.push_back(a);
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) throw std::invalid_argument(std::string(flag) + " needs a value");
      return args[++i];
    };
    auto real = [&](const char* flag) { return parse_number<double>(flag, next(flag)); };
    auto integer = [&](const char* flag) { return parse_number<int>(flag, next(flag)); };
    auto count = [&](const char* flag) { return parse_number<std::uint64_t>(flag, next(flag)); };
    if (a == "--priority") {
      opts.discipline = queue::Discipline::SpecialPriority;
    } else if (a == "--scv") {
      opts.service_scv = real("--scv");
    } else if (a == "--reps") {
      p.reps = integer("--reps");
    } else if (a == "--seed") {
      serve.seed = count("--seed");
    } else if (a == "--half-life") {
      serve.half_life = real("--half-life");
    } else if (a == "--ceiling") {
      serve.utilization_ceiling = real("--ceiling");
    } else if (a == "--loss-threshold") {
      serve.loss_threshold = real("--loss-threshold");
    } else if (a == "--drift") {
      // Not read as the new threshold: the two measure different things.
      throw std::invalid_argument(
          "--drift is gone: the re-solve trigger is a predicted T' loss, set with "
          "--loss-threshold <x>");
    } else if (a == "--chaos-seed") {
      serve.chaos_seed = count("--chaos-seed");
    } else if (a == "--chaos-profile") {
      serve.chaos_profile = next("--chaos-profile");
    } else if (a == "--slo-target") {
      serve.slo_target = real("--slo-target");
      if (!(serve.slo_target > 0.0)) throw std::invalid_argument("--slo-target must be > 0");
    } else if (a == "--slo-max-shed") {
      serve.slo_max_shed = real("--slo-max-shed");
    } else if (a == "--slo-epochs") {
      serve.slo_epochs = integer("--slo-epochs");
      if (serve.slo_epochs < 1) throw std::invalid_argument("--slo-epochs must be >= 1");
    } else if (a == "--recorder-out") {
      serve.recorder_out = next("--recorder-out");
    } else if (a == "--recorder-capacity") {
      serve.recorder_capacity = count("--recorder-capacity");
    } else if (a == "--health") {
      serve.health = true;
    } else if (a == "--health-suspect") {
      serve.health_suspect = real("--health-suspect");
    } else if (a == "--health-quarantine") {
      serve.health_quarantine = real("--health-quarantine");
    } else if (a == "--health-recover") {
      serve.health_recover = real("--health-recover");
    } else if (a == "--health-suspect-dwell") {
      serve.health_suspect_dwell = real("--health-suspect-dwell");
    } else if (a == "--health-quarantine-dwell") {
      serve.health_quarantine_dwell = real("--health-quarantine-dwell");
    } else if (a == "--health-probation-dwell") {
      serve.health_probation_dwell = real("--health-probation-dwell");
    } else if (a == "--health-half-life") {
      serve.health_half_life = real("--health-half-life");
    } else if (a == "--checkpoint-out") {
      serve.checkpoint_out = next("--checkpoint-out");
    } else if (a == "--checkpoint-every") {
      serve.checkpoint_every = real("--checkpoint-every");
      if (serve.checkpoint_every < 0.0) {
        throw std::invalid_argument("--checkpoint-every must be >= 0");
      }
    } else if (a == "--checkpoint-in") {
      serve.checkpoint_in = next("--checkpoint-in");
    } else if (a == "--verbose") {
      opts.verbosity = 1;
    } else if (a == "--threads") {
      opts.threads = integer("--threads");
      if (opts.threads < 0) throw std::invalid_argument("--threads must be >= 0");
    } else if (a == "--shards") {
      opts.shards = count("--shards");
    } else if (a == "--policy") {
      opts.policy = next("--policy");
    } else if (a == "--probe-d") {
      const int d = integer("--probe-d");
      if (d < 1) throw std::invalid_argument("--probe-d must be >= 1");
      opts.probe_d = static_cast<unsigned>(d);
    } else if (a == "--prune-k") {
      opts.prune_k = count("--prune-k");
    } else if (a == "--metrics-out") {
      p.metrics_out = next("--metrics-out");
    } else if (a == "--metrics-format") {
      p.metrics_format = obs::parse_export_format(next("--metrics-format"));
    } else if (a == "--version") {
      return obs::build_info_text();
    } else if (!a.empty() && a[0] == '-') {
      throw std::invalid_argument("unknown flag '" + a + "'\n" + usage());
    } else {
      p.pos.push_back(a);
    }
  }
  if (p.pos.empty()) throw std::invalid_argument(usage());
  check_flags(p.pos[0] == "serve-replay" && !opts.policy.empty() ? kPolicyReplay : p.pos[0], p);
  std::string out = dispatch(p.pos, opts, p.reps, serve.seed.value_or(1), serve);
  // Export after the command so the file reflects the whole run. Workers
  // are idle here (every command drains its sweeps before returning), so
  // the snapshot is an exact cut.
  if (!p.metrics_out.empty()) {
    if (p.metrics_out == "-") {
      out += obs::render(obs::registry().snapshot(), p.metrics_format);
    } else {
      obs::write_metrics_file(p.metrics_out, p.metrics_format);
    }
  }
  return out;
}

}  // namespace blade::cli
