// Top-level cluster simulation: builds the blade-center model (servers,
// special streams, per-server generic streams), runs it, and reports
// measured response times. simulate_split feeds each server an
// independent generic Poisson stream at a given rate — exactly the
// paper's model after the probabilistic split (a split Poisson process
// is again Poisson), used to validate the analytics. One generic stream
// routed task by task (a dispatch policy or the online controller) is
// runtime::replay_policy / runtime::replay, which report the same
// SimResult.
//
// replicate() runs many seeds in parallel and returns a confidence
// interval on the generic mean response time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "model/cluster.hpp"
#include "parallel/thread_pool.hpp"
#include "queueing/blade_queue.hpp"
#include "sim/server_sim.hpp"
#include "util/stats.hpp"

namespace blade::sim {

/// Maps the analytic discipline onto a simulator scheduling mode.
[[nodiscard]] SchedulingMode to_mode(queue::Discipline d) noexcept;

struct SimConfig {
  double horizon = 200000.0;  ///< simulated time to run
  double warmup = 10000.0;    ///< completions before this time are discarded
  std::uint64_t seed = 1;     ///< replication seed
  bool record_generic_trace = false;  ///< keep per-completion generic
                                      ///< response times (batch means)
  /// Task-size variability for BOTH classes: 1 = exponential (the paper's
  /// model); other values select the matching ServiceDistribution shape
  /// (0 deterministic, <1 Erlang, >1 hyperexponential). The realized scv
  /// may be rounded for Erlang shapes -- see ServiceDistribution::from_scv.
  double service_scv = 1.0;
};

struct ServerObservation {
  double utilization = 0.0;      ///< time-averaged busy fraction
  double time_avg_tasks = 0.0;   ///< time-averaged number in system
  std::uint64_t completions = 0;
  std::uint64_t preemptions = 0;
};

struct SimResult {
  double generic_mean_response = 0.0;
  std::uint64_t generic_samples = 0;
  double special_mean_response = 0.0;
  std::uint64_t special_samples = 0;
  std::vector<ServerObservation> servers;
  std::uint64_t events = 0;
  /// Post-warmup generic response times in completion order; empty unless
  /// SimConfig::record_generic_trace was set.
  std::vector<double> generic_trace;
};

/// Simulates the cluster with a fixed static split of the generic stream.
/// `rates[i]` is the generic Poisson rate into server i (0 allowed).
[[nodiscard]] SimResult simulate_split(const model::Cluster& cluster,
                                       const std::vector<double>& rates, SchedulingMode mode,
                                       const SimConfig& config);

struct ReplicatedResult {
  util::ConfidenceInterval generic_response;  ///< CI over replication means
  util::ConfidenceInterval special_response;
  std::vector<SimResult> runs;
};

/// Runs `replications` independent seeds (base_config.seed + k) in
/// parallel on `pool` (global pool when null) and aggregates.
[[nodiscard]] ReplicatedResult replicate(
    const std::function<SimResult(const SimConfig&)>& one_run, const SimConfig& base_config,
    int replications, double confidence = 0.95, par::ThreadPool* pool = nullptr);

}  // namespace blade::sim
