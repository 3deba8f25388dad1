// Trace replay: drives a Controller and the discrete-event simulator from
// one event script — generic-rate changes, blade failures, recoveries —
// so the whole control loop (estimate, re-solve, publish, shed) can be
// exercised end to end on a reproducible timeline.
//
// The text format is line-oriented; '#' starts a comment. Server indices
// are 0-based.
//
//   horizon <T>              total simulated time (required, > 0)
//   seed <n>                 replication seed (default 1)
//   rate <t> <lambda>        generic arrival rate becomes lambda at time t
//   fail <t> <server> [k]    k blades of <server> fail at t (default: all)
//   recover <t> <server> [k] k blades come back at t (default: all missing)
//   slow <t> <server> <f>    gray slowdown: effective speed scaled by f
//                            in (0, 1]; f = 1 clears the slowdown
//   stall <t> <server>       gray stall: service pauses outright
//   unstall <t> <server>     the stall ends; paused work resumes
//
// Gray events mutate only the simulated servers — the controller is NOT
// notified (unlike fail/recover): detecting them is the health tracker's
// job (runtime/health.hpp).
//
// The parser rejects — naming the offending line — NaN/negative rates,
// non-finite or negative times, slowdown factors outside (0, 1], events
// out of time order, and a full failure of a server that is already
// fully failed.
//
// `reference_failure_trace` builds the paper-cluster acceptance scenario:
// a diurnal generic load riding on the example cluster, the biggest
// server lost at T/3 and recovered at 2T/3.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/cluster.hpp"
#include "obs/slo.hpp"
#include "policy/policy.hpp"
#include "queueing/blade_queue.hpp"
#include "runtime/controller.hpp"
#include "sim/server_sim.hpp"
#include "sim/simulation.hpp"
#include "util/status.hpp"

namespace blade::runtime {

class FaultInjector;

struct ReplayEvent {
  enum class Kind : std::uint8_t { Rate, Fail, Recover, Slow, Stall, Unstall };

  double time = 0.0;
  Kind kind = Kind::Rate;
  double rate = 0.0;       ///< Rate events: the new generic lambda'
  std::size_t server = 0;  ///< Fail/Recover/gray events: 0-based server index
  unsigned blades = 0;     ///< Fail/Recover events: blade count, 0 = all
  double factor = 1.0;     ///< Slow events: speed multiplier in (0, 1], 1 clears
};

struct ReplayTrace {
  double horizon = 0.0;
  std::uint64_t seed = 1;
  std::vector<ReplayEvent> events;  ///< need not be sorted; replay sorts

  /// Throws std::invalid_argument on a bad horizon, negative/non-finite
  /// event times or rates, or a server index >= n.
  void validate(std::size_t n) const;
};

/// Parses the text format above. Malformed input returns
/// ErrorCode::ParseError whose context names the offending line.
[[nodiscard]] Expected<ReplayTrace> try_parse_replay_trace(const std::string& text);

/// Throwing convenience over try_parse_replay_trace
/// (std::invalid_argument carrying the same line-numbered message).
[[nodiscard]] ReplayTrace parse_replay_trace(const std::string& text);

/// Serializes a trace back to the text format (round-trips with
/// parse_replay_trace).
[[nodiscard]] std::string to_text(const ReplayTrace& trace);

/// The reference acceptance scenario for `cluster`: six diurnal rate
/// epochs between 35% and 80% of lambda'_max, the highest-capacity server
/// fully lost at horizon/3 and recovered at 2*horizon/3.
[[nodiscard]] ReplayTrace reference_failure_trace(const model::Cluster& cluster, double horizon);

/// Optional knobs for replay() and replay_policy() beyond the trace
/// itself. Each entry point honours every field or rejects it with
/// std::invalid_argument; see the two functions for which is which.
struct ReplayOptions {
  double warmup = 0.0;
  double service_scv = 1.0;
  /// Fault injection in the loop; nullptr = none. Both entry points
  /// merge its flap and gray events into the failure schedule; replay()
  /// also passes every observation through corrupt_observation (drops,
  /// phantom spikes, timewarped stamps) and arms solver faults per
  /// should_fault_solver. Deterministic per (trace.seed, chaos).
  FaultInjector* chaos = nullptr;
  /// SLO objectives; when any target is enabled the horizon is split
  /// into `slo_epochs` windows, each evaluated through an obs::SloSet
  /// (targets.window left 0 derives 4 epoch lengths).
  obs::SloTargets slo;
  int slo_epochs = 12;
  /// Record every Nth generic dispatch as a flight-recorder Dispatch
  /// event (0 disables). Sampled so control-plane events are not buried
  /// by data-plane volume in a wrapped ring.
  std::uint64_t dispatch_sample = 256;
  /// Checkpoint JSON (the document itself, not a path) restored into the
  /// controller before the replay starts; empty = cold start. A restore
  /// failure throws std::invalid_argument with the typed error context.
  std::string checkpoint_in;
  /// When non-empty, Controller::checkpoint_json() is persisted to this
  /// path (temp-file + atomic rename, so a crash mid-write never leaves
  /// a torn checkpoint) every `checkpoint_every` time units and once
  /// more at the horizon.
  std::string checkpoint_out;
  /// Simulated-time interval between periodic checkpoint writes; 0 with
  /// a checkpoint_out path writes only the final checkpoint. A positive
  /// interval without a checkpoint_out path is rejected.
  double checkpoint_every = 0.0;
};

struct ReplayResult {
  ControllerStats stats;                ///< controller counters at the end
  double shed_fraction = 0.0;           ///< stats.shed_fraction() shortcut
  double final_shed_probability = 0.0;  ///< published shed prob at horizon
  std::vector<double> final_fractions;  ///< published routing fractions
  Mode final_mode = Mode::Fallback;     ///< degraded-mode state at horizon
  sim::SimResult sim;                   ///< measured response times etc.
  /// Per-epoch SLO evaluations (empty when no SLO target was enabled).
  std::vector<obs::SloEpochStatus> slo;
  std::uint64_t slo_breaches = 0;       ///< total objective breaches
  /// Generic tasks routed to a Quarantined server while at least one
  /// alive non-quarantined server existed (0 when health is off). The
  /// gray battery asserts this stays 0 — quarantine must actually fence.
  std::uint64_t routes_to_quarantined = 0;
  std::uint64_t checkpoints_written = 0;  ///< periodic + final checkpoint writes
};

/// Replays `trace` against a fresh Controller wired to simulated servers:
/// special streams feed both their server and the controller's lambda''
/// estimators; generic arrivals ask the controller for admission, then
/// route through the currently published alias table. Failures drain the
/// simulated blades and notify the controller at the same instant. Every
/// ReplayOptions field applies.
[[nodiscard]] ReplayResult replay(const model::Cluster& cluster, const ControllerConfig& cfg,
                                  const ReplayTrace& trace, const ReplayOptions& options = {});

/// What one dispatch policy did over a replayed timeline.
struct PolicyReplayResult {
  sim::SimResult sim;                          ///< measured response times etc.
  policy::PolicyCounters counters;             ///< probes/ties/herds/fallbacks
  std::vector<std::uint64_t> routed_by_server; ///< tasks sent to each server
  std::vector<double> measured_fractions;      ///< routed_by_server, normalized
};

/// Replays `trace`'s timeline through a policy::DispatchPolicy instead of
/// the controller: generic arrivals follow the trace's rate epochs, the
/// failure/recovery schedule drains and restores simulated blades, and
/// every generic task routes by `policy_cfg` over the LIVE server state,
/// queued under `discipline`. No admission control, no re-solving — this
/// is the head-to-head harness the policy bench matrix, the `sim` command
/// and the ablation tests drive, sharing arrival/service RNG streams with
/// replay() so per-policy differences are routing-only.
///
/// Of the options, warmup, service_scv, chaos (its flap and gray events;
/// there is no telemetry to corrupt) and dispatch_sample apply. The
/// controller-state options are rejected with std::invalid_argument: an
/// enabled SLO target, checkpoint_in, checkpoint_out, and so a positive
/// checkpoint_every.
[[nodiscard]] PolicyReplayResult replay_policy(
    const model::Cluster& cluster, const policy::PolicyConfig& policy_cfg,
    const ReplayTrace& trace, const ReplayOptions& options = {},
    queue::Discipline discipline = queue::Discipline::Fcfs);

/// The policy-side view of simulated servers that replay_policy routes
/// over: each probe reads the server's state at the call instant, never
/// a snapshot. `servers` must outlive the view.
[[nodiscard]] policy::StateView live_state_view(const std::vector<sim::ServerSim*>& servers);

}  // namespace blade::runtime
