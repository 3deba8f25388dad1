// Command layer of the bladecli tool. Each command is a pure function
// from parsed options to report text, so the whole surface is unit
// testable without process spawning; examples/bladecli.cpp is a thin
// argv wrapper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "model/cluster.hpp"
#include "queueing/blade_queue.hpp"

namespace blade::cli {

struct CommonOptions {
  queue::Discipline discipline = queue::Discipline::Fcfs;
  double service_scv = 1.0;  ///< task-size variability (1 = exponential)
  int verbosity = 0;         ///< --verbose: solver convergence summaries on stderr
  /// --threads: worker count of sweep and of a multi-cell optimize (0 =
  /// shared default pool).
  int threads = 0;
  /// --shards: cells of the optimize / serve-replay solve (0 = one cell,
  /// on the calling thread).
  std::size_t shards = 0;
  /// --prune-k: per-cell top-k rate-matrix pruning (requires --shards).
  std::size_t prune_k = 0;
  /// --policy: dispatch policy name for `sim` / `serve-replay`
  /// (random, round-robin, jsq, jsq-d, sb-d, ha-jsq-d, wjsq-d,
  /// opt-split). Empty = opt-split for `sim`, the adaptive controller
  /// for `serve-replay`.
  std::string policy;
  /// --probe-d: probes per arrival for the d-choices policies.
  unsigned probe_d = 2;
};

/// `optimize`: solve one instance and print the paper-style table.
[[nodiscard]] std::string run_optimize(const model::Cluster& cluster, double lambda,
                                       const CommonOptions& opts);

/// `sweep`: minimized T' over a lambda' grid, printed as CSV.
[[nodiscard]] std::string run_sweep(const model::Cluster& cluster, double lo, double hi,
                                    std::size_t points, const CommonOptions& opts);

/// `validate`: optimize, simulate at the optimal rates, report CI.
[[nodiscard]] std::string run_validate(const model::Cluster& cluster, double lambda,
                                       int replications, std::uint64_t seed,
                                       const CommonOptions& opts);

/// `sensitivity`: which parameter moves T'* the most on this cluster.
[[nodiscard]] std::string run_sensitivity(const model::Cluster& cluster, double lambda,
                                          const CommonOptions& opts);

/// `percentiles`: per-server waiting/response percentiles of generic
/// tasks at the optimal split (FCFS closed forms; exact model only).
[[nodiscard]] std::string run_percentiles(const model::Cluster& cluster, double lambda,
                                          const CommonOptions& opts);

/// `allocate`: integer blade-allocation design over the cluster's chassis
/// speeds with the same total blade count.
[[nodiscard]] std::string run_allocate(const model::Cluster& cluster, double lambda,
                                       const CommonOptions& opts);

/// `sim`: simulate one dispatch policy routing the generic stream at
/// rate lambda and report measured T', per-server assignment fractions,
/// and the policy's probe-cost counters next to the analytic optimum.
[[nodiscard]] std::string run_sim(const model::Cluster& cluster, double lambda,
                                  std::uint64_t seed, const CommonOptions& opts);

/// `trace`: diurnal-profile study (adaptive vs static split).
[[nodiscard]] std::string run_trace(const model::Cluster& cluster, double trough, double peak,
                                    const CommonOptions& opts);

/// `figures`: regenerate a paper figure (4..15) as CSV or JSON. This one
/// does not take a spec file -- the figures define their own clusters.
[[nodiscard]] std::string run_figure(int number, const std::string& format,
                                     std::size_t points = 25);

/// `consolidate`: SLO-constrained blade power-down over a diurnal day.
[[nodiscard]] std::string run_consolidate(const model::Cluster& cluster, double trough,
                                          double peak, double slo, const CommonOptions& opts);

/// Knobs for `serve-replay` (half-life 0 is derived from the trace as
/// horizon/100; an unset seed is the trace file's).
struct ServeOptions {
  double half_life = 0.0;           ///< --half-life: estimator memory
  double utilization_ceiling = 0.95;  ///< --ceiling: admission-control cap
  double loss_threshold = 3e-3;     ///< --loss-threshold: predicted-loss re-solve threshold
  std::optional<std::uint64_t> seed;        ///< --seed: overrides the trace's seed
  std::optional<std::uint64_t> chaos_seed;  ///< --chaos-seed: fault-injection seed (unset = off)
  std::string chaos_profile = "moderate";  ///< --chaos-profile: none/light/moderate/heavy
  /// --slo-target: mean-T' objective per epoch (0 = SLO evaluation off).
  double slo_target = 0.0;
  /// --slo-max-shed: shed-fraction objective per epoch (with --slo-target).
  double slo_max_shed = 0.05;
  int slo_epochs = 12;              ///< --slo-epochs: windows across the horizon
  /// --recorder-out: dump the flight recorder after the replay. A `.json`
  /// suffix writes Chrome trace-event format (load in Perfetto), anything
  /// else (e.g. `.jsonl`) the line-oriented JSONL schema.
  std::string recorder_out;
  std::size_t recorder_capacity = 0;  ///< --recorder-capacity: per-thread ring slots
  /// --health: per-blade gray-failure scoring + the quarantine state
  /// machine (runtime/health.hpp). The sub-knobs below override the
  /// HealthConfig defaults only when --health is given.
  bool health = false;
  double health_suspect = 0.7;          ///< --health-suspect: Healthy -> Suspect score
  double health_quarantine = 0.45;      ///< --health-quarantine: fast-path / relapse score
  double health_recover = 0.9;          ///< --health-recover: recovery score (hysteresis)
  double health_suspect_dwell = 8.0;    ///< --health-suspect-dwell: Suspect dwell time
  double health_quarantine_dwell = 30.0;  ///< --health-quarantine-dwell: min quarantine time
  double health_probation_dwell = 20.0;   ///< --health-probation-dwell: probation clear time
  double health_half_life = 20.0;       ///< --health-half-life: score EWMA memory
  /// --checkpoint-out: atomically persist controller checkpoints here
  /// (temp file + rename; a crash never leaves a torn file).
  std::string checkpoint_out;
  /// --checkpoint-every: sim-time interval between periodic checkpoint
  /// writes (0 with --checkpoint-out = final checkpoint only).
  double checkpoint_every = 0.0;
  /// --checkpoint-in: restore controller state from this checkpoint file
  /// before the replay starts.
  std::string checkpoint_in;
};

/// `serve-replay`: replay an event trace (rate swings, blade failures,
/// recoveries) through the runtime controller and the simulator.
/// `trace_text` is the trace file's content; pass the result of
/// runtime::to_text(runtime::reference_failure_trace(...)) for the
/// built-in "reference" scenario.
[[nodiscard]] std::string run_serve_replay(const model::Cluster& cluster,
                                           const std::string& trace_text,
                                           const ServeOptions& serve, const CommonOptions& opts);

/// Usage text for the argv wrapper.
[[nodiscard]] std::string usage();

/// Full argv driver: parses arguments (argv[0] ignored), loads the spec,
/// dispatches, and returns the report. Throws SpecError /
/// std::invalid_argument with a user-facing message on bad input.
[[nodiscard]] std::string run_cli(const std::vector<std::string>& args);

}  // namespace blade::cli
