// Gray-failure battery (labels: gray;sim): the sim layer's gray fault
// semantics (slowdown stretches service, stalls park and resume, the
// trace grammar round-trips), the HealthTracker's scoring and quarantine
// state machine edge by edge, the Controller's quarantine flow
// (cheap redistribution, probation re-solve, recovery), the policy
// layer's quarantine-aware routing tiers, and the 200-seed gray-chaos
// battery: after every injected fault clears, the control plane must
// reconverge to the healthy optimum and must never have routed to a
// quarantined server while a healthy alternative existed. On a battery
// violation the flight recorder is dumped to RECORDER_gray_battery.jsonl
// so CI uploads the decision trail with the failure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "model/cluster.hpp"
#include "obs/recorder.hpp"
#include "policy/policy.hpp"
#include "runtime/controller.hpp"
#include "runtime/health.hpp"
#include "runtime/replay.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/server_sim.hpp"
#include "util/fileio.hpp"

namespace {

using namespace blade;
using policy::PolicyConfig;
using policy::PolicyKind;
using policy::ServerState;
using policy::StateView;
using runtime::HealthConfig;
using runtime::HealthState;
using runtime::HealthTracker;
using runtime::HealthTransition;
using runtime::ReplayEvent;
using runtime::ReplayTrace;

// --- sim layer: gray fault semantics --------------------------------------

TEST(GraySim, SlowdownStretchesRemainingWork) {
  sim::Engine e;
  sim::ResponseTimeCollector col;
  sim::ServerSim s(e, 1, 1.0, sim::SchedulingMode::Fcfs, col);
  std::vector<double> done;
  s.set_completion_observer([&done](const sim::Task&, double t) { done.push_back(t); });

  // Nominal: work 1.0 at speed 1.0 finishes at t = 1.
  s.arrive({sim::TaskClass::Generic, 0.0, 1.0});
  // Mid-flight slowdown at t = 0.5: the remaining 0.5 work now runs at
  // rate 0.5, so completion moves from 1.0 to 0.5 + 0.5/0.5 = 1.5.
  e.schedule_at(0.5, [&s] { s.set_speed_factor(0.5); });
  e.run_until(10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 1.5, 1e-9);
  EXPECT_NEAR(s.effective_speed(), 0.5, 1e-12);

  // Clearing the slowdown restores nominal service for new tasks.
  s.set_speed_factor(1.0);
  done.clear();
  s.arrive({sim::TaskClass::Generic, e.now(), 2.0});
  const double start = e.now();
  e.run_until(start + 10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], start + 2.0, 1e-9);
}

TEST(GraySim, StallParksAndResumesWithWorkIntact) {
  sim::Engine e;
  sim::ResponseTimeCollector col;
  sim::ServerSim s(e, 1, 1.0, sim::SchedulingMode::Fcfs, col);
  std::vector<double> done;
  s.set_completion_observer([&done](const sim::Task&, double t) { done.push_back(t); });

  s.arrive({sim::TaskClass::Generic, 0.0, 1.0});
  e.schedule_at(0.4, [&s] { s.set_stalled(true); });
  e.schedule_at(1.4, [&s] { s.set_stalled(false); });
  e.run_until(10.0);
  // 0.4 work done before the stall, one unit frozen, 0.6 after: t = 2.0.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_FALSE(s.stalled());
  EXPECT_NEAR(s.effective_speed(), 1.0, 1e-12);
}

TEST(GraySim, StalledServerKeepsAcceptingAndReportsZeroSpeed) {
  sim::Engine e;
  sim::ResponseTimeCollector col;
  sim::ServerSim s(e, 2, 1.5, sim::SchedulingMode::Fcfs, col);
  s.set_stalled(true);
  EXPECT_EQ(s.effective_speed(), 0.0);
  s.arrive({sim::TaskClass::Generic, 0.0, 1.0});
  s.arrive({sim::TaskClass::Generic, 0.0, 1.0});
  s.arrive({sim::TaskClass::Generic, 0.0, 1.0});
  e.run_until(5.0);
  EXPECT_EQ(s.completions(), 0u);
  EXPECT_EQ(s.tasks_in_system(), 3u);  // availability stays nominal: gray, not dark
  EXPECT_EQ(s.available_blades(), 2u);
  s.set_stalled(false);
  e.run_until(20.0);
  EXPECT_EQ(s.completions(), 3u);
}

TEST(GrayTrace, GrammarRoundTripsAndRejectsBadFactors) {
  const std::string text =
      "horizon 10\nseed 3\nrate 0 2.5\nslow 1 0 0.5\nstall 2 1\nunstall 3 1\nslow 4 0 1\n";
  const auto trace = runtime::parse_replay_trace(text);
  ASSERT_EQ(trace.events.size(), 5u);
  EXPECT_EQ(trace.events[1].kind, ReplayEvent::Kind::Slow);
  EXPECT_NEAR(trace.events[1].factor, 0.5, 1e-12);
  EXPECT_EQ(trace.events[2].kind, ReplayEvent::Kind::Stall);
  EXPECT_EQ(trace.events[2].server, 1u);
  EXPECT_EQ(trace.events[3].kind, ReplayEvent::Kind::Unstall);
  EXPECT_EQ(trace.events[4].kind, ReplayEvent::Kind::Slow);
  EXPECT_NEAR(trace.events[4].factor, 1.0, 1e-12);

  // to_text round-trip preserves the gray events.
  const auto again = runtime::parse_replay_trace(runtime::to_text(trace));
  ASSERT_EQ(again.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(again.events[i].kind, trace.events[i].kind);
    EXPECT_NEAR(again.events[i].factor, trace.events[i].factor, 1e-9);
  }

  // Factor outside (0, 1] is a line-numbered parse error.
  auto bad = runtime::try_parse_replay_trace("horizon 10\nslow 1 0 0\n");
  ASSERT_FALSE(bad);
  EXPECT_NE(bad.error().context.find("line 2"), std::string::npos);
  bad = runtime::try_parse_replay_trace("horizon 10\nslow 1 0 1.5\n");
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().code, ErrorCode::ParseError);
}

// --- HealthTracker: scoring + state machine -------------------------------

HealthConfig fast_health() {
  HealthConfig cfg;
  cfg.enabled = true;
  cfg.suspect_dwell = 1.0;
  cfg.quarantine_dwell = 5.0;
  cfg.probation_dwell = 3.0;
  return cfg;
}

TEST(HealthTracker, ConfigValidation) {
  HealthConfig cfg = fast_health();
  cfg.suspect_threshold = 1.2;
  EXPECT_THROW(HealthTracker(2, cfg), std::invalid_argument);
  cfg = fast_health();
  cfg.quarantine_threshold = cfg.suspect_threshold + 0.1;  // must be <= suspect
  EXPECT_THROW(HealthTracker(2, cfg), std::invalid_argument);
  cfg = fast_health();
  cfg.recover_threshold = cfg.suspect_threshold;  // hysteresis requires >
  EXPECT_THROW(HealthTracker(2, cfg), std::invalid_argument);
  cfg = fast_health();
  cfg.probe_speed_floor = 0.0;
  EXPECT_THROW(HealthTracker(2, cfg), std::invalid_argument);
}

TEST(HealthTracker, DisabledTrackerScoresNothing) {
  HealthConfig cfg;  // enabled = false
  HealthTracker tracker(2, cfg);
  std::vector<HealthTransition> out;
  double t = 0.0;
  for (int k = 0; k < 100; ++k) tracker.on_dispatch(t += 0.1, 0);
  EXPECT_FALSE(tracker.evaluate(t, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tracker.state(0), HealthState::Healthy);
  EXPECT_TRUE(tracker.routable(0));
}

TEST(HealthTracker, EvidenceGatingHoldsFireWithoutFlow) {
  HealthTracker tracker(2, fast_health());
  std::vector<HealthTransition> out;
  // Below min_dispatches: zero completions is not yet evidence.
  double t = 0.0;
  for (int k = 0; k < 8; ++k) tracker.on_dispatch(t += 0.1, 0);
  EXPECT_FALSE(tracker.evaluate(t, out));
  EXPECT_EQ(tracker.state(0), HealthState::Healthy);
  EXPECT_NEAR(tracker.score(0), 1.0, 1e-12);
  // Server 1 saw no traffic at all: also no evidence, stays Healthy.
  EXPECT_EQ(tracker.state(1), HealthState::Healthy);
}

TEST(HealthTracker, DeadCompletionsWalkToQuarantineFastPath) {
  HealthTracker tracker(2, fast_health());
  std::vector<HealthTransition> out;
  double t = 0.0;
  for (int k = 0; k < 32; ++k) tracker.on_dispatch(t += 0.1, 0);
  ASSERT_TRUE(tracker.evaluate(t, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, HealthState::Healthy);
  EXPECT_EQ(out[0].to, HealthState::Suspect);
  EXPECT_LT(out[0].score, 0.7);
  EXPECT_TRUE(tracker.routable(0));  // Suspect does not fence routing

  // Score ~0 is below the quarantine threshold: the fast path fires on
  // the very next evaluation, no dwell wait.
  for (int k = 0; k < 4; ++k) tracker.on_dispatch(t += 0.1, 0);
  out.clear();
  ASSERT_TRUE(tracker.evaluate(t, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, HealthState::Quarantined);
  EXPECT_FALSE(tracker.routable(0));
  EXPECT_EQ(tracker.quarantined_count(), 1u);
  // The frozen probe factor is the floored score.
  EXPECT_GE(tracker.speed_factor(0), fast_health().probe_speed_floor);
  EXPECT_LE(tracker.speed_factor(0), 1.0);
  // The healthy neighbor is untouched.
  EXPECT_EQ(tracker.state(1), HealthState::Healthy);
}

TEST(HealthTracker, SuspectRecoversWhenCompletionsCatchUp) {
  HealthTracker tracker(1, fast_health());
  std::vector<HealthTransition> out;
  double t = 0.0;
  for (int k = 0; k < 24; ++k) tracker.on_dispatch(t += 0.1, 0);
  ASSERT_TRUE(tracker.evaluate(t, out));
  ASSERT_EQ(tracker.state(0), HealthState::Suspect);
  // Backlog drains: completions at the dispatch cadence push the score
  // back through the recover threshold (capped at 1.5).
  for (int k = 0; k < 64; ++k) {
    tracker.on_dispatch(t += 0.1, 0);
    tracker.on_completion(t, 0);
    tracker.on_completion(t, 0);
  }
  out.clear();
  ASSERT_TRUE(tracker.evaluate(t, out));
  EXPECT_EQ(tracker.state(0), HealthState::Healthy);
  EXPECT_LE(tracker.score(0), 1.5);  // drain burst capped, not super-powered
}

TEST(HealthTracker, FullQuarantineProbationRecoveryCycle) {
  const HealthConfig cfg = fast_health();
  HealthTracker tracker(1, cfg);
  std::vector<HealthTransition> out;
  double t = 0.0;
  for (int k = 0; k < 40; ++k) tracker.on_dispatch(t += 0.1, 0);
  (void)tracker.evaluate(t, out);           // -> Suspect
  (void)tracker.evaluate(t += 0.1, out);    // -> Quarantined (fast path)
  ASSERT_EQ(tracker.state(0), HealthState::Quarantined);

  // Quarantine exit is purely dwell-based (no traffic, no score).
  out.clear();
  EXPECT_FALSE(tracker.evaluate(t + cfg.quarantine_dwell / 2.0, out));
  t += cfg.quarantine_dwell + 0.1;
  ASSERT_TRUE(tracker.evaluate(t, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, HealthState::Probation);
  EXPECT_TRUE(tracker.routable(0));  // probation traffic must flow
  EXPECT_EQ(tracker.quarantined_count(), 0u);

  // Healthy probation flow through the dwell clears the blade.
  const double probation_start = t;
  while (t < probation_start + cfg.probation_dwell + 0.5) {
    tracker.on_dispatch(t += 0.1, 0);
    tracker.on_completion(t, 0);
  }
  out.clear();
  ASSERT_TRUE(tracker.evaluate(t, out));
  EXPECT_EQ(tracker.state(0), HealthState::Healthy);
  EXPECT_NEAR(tracker.speed_factor(0), 1.0, 1e-12);
}

TEST(HealthTracker, ProbationRelapseRequarantines) {
  const HealthConfig cfg = fast_health();
  HealthTracker tracker(1, cfg);
  std::vector<HealthTransition> out;
  double t = 0.0;
  for (int k = 0; k < 40; ++k) tracker.on_dispatch(t += 0.1, 0);
  (void)tracker.evaluate(t, out);
  (void)tracker.evaluate(t += 0.1, out);
  t += cfg.quarantine_dwell + 0.1;
  (void)tracker.evaluate(t, out);
  ASSERT_EQ(tracker.state(0), HealthState::Probation);

  // Probation scores only probation-era flow: the stale quarantine-decayed
  // estimators were reset, so the blade needs fresh evidence to relapse.
  for (int k = 0; k < 32; ++k) tracker.on_dispatch(t += 0.1, 0);
  out.clear();
  ASSERT_TRUE(tracker.evaluate(t, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, HealthState::Probation);
  EXPECT_EQ(out[0].to, HealthState::Quarantined);
  EXPECT_EQ(tracker.quarantined_count(), 1u);
}

TEST(HealthTracker, ResetServerSupersedesGrayHistory) {
  HealthTracker tracker(2, fast_health());
  std::vector<HealthTransition> out;
  double t = 0.0;
  for (int k = 0; k < 40; ++k) tracker.on_dispatch(t += 0.1, 0);
  (void)tracker.evaluate(t, out);
  (void)tracker.evaluate(t += 0.1, out);
  ASSERT_EQ(tracker.state(0), HealthState::Quarantined);
  // A hard failure/recovery resets the gray view: state machine back to
  // Healthy, estimators re-baselined, quarantine count consistent.
  tracker.reset_server(0, t);
  EXPECT_EQ(tracker.state(0), HealthState::Healthy);
  EXPECT_EQ(tracker.quarantined_count(), 0u);
  EXPECT_NEAR(tracker.score(0), 1.0, 1e-12);
  out.clear();
  EXPECT_FALSE(tracker.evaluate(t + 1.0, out));  // no leftover evidence
}

// --- Controller: quarantine flow ------------------------------------------

model::Cluster gray_cluster() { return model::make_cluster({4, 2, 1}, {1.0, 1.5, 2.0}, 1.0, 0.2); }

runtime::ControllerConfig gray_cfg(const model::Cluster& cluster) {
  runtime::ControllerConfig cfg;
  cfg.half_life = 2.0;
  cfg.initial_lambda = 0.5 * cluster.max_generic_rate();
  cfg.check_interval = 8;
  cfg.health = fast_health();
  return cfg;
}

/// Drives matched dispatch/completion flow on `healthy` servers and
/// dispatch-only flow on `dead` for `steps` ticks of 0.1.
void feed(runtime::Controller& ctrl, double& t, int steps, const std::vector<std::size_t>& healthy,
          const std::vector<std::size_t>& dead) {
  for (int k = 0; k < steps; ++k) {
    t += 0.1;
    for (std::size_t i : healthy) {
      ctrl.on_dispatch(t, i);
      ctrl.on_completion(t, i);
    }
    for (std::size_t i : dead) ctrl.on_dispatch(t, i);
  }
}

TEST(ControllerQuarantine, CheapRedistributionZeroesTheFraction) {
  const auto cluster = gray_cluster();
  runtime::Controller ctrl(cluster, gray_cfg(cluster));
  const auto healthy_fractions = ctrl.routing_fractions();
  ASSERT_GT(healthy_fractions[0], 0.0);
  const std::uint64_t resolves_before = ctrl.stats().resolves;

  double t = 0.0;
  feed(ctrl, t, 60, {1, 2}, {0});
  EXPECT_EQ(ctrl.health_state(0), HealthState::Quarantined);
  EXPECT_GE(ctrl.stats().quarantines, 1u);
  EXPECT_GE(ctrl.stats().quarantine_publications, 1u);
  // The quarantine publication is the cheap path: renormalized current
  // fractions, no re-solve.
  EXPECT_EQ(ctrl.stats().resolves, resolves_before);

  const auto fenced = ctrl.routing_fractions();
  EXPECT_EQ(fenced[0], 0.0);
  double sum = 0.0;
  for (double f : fenced) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Healthy servers keep their relative proportions (renormalization).
  EXPECT_NEAR(fenced[1] / fenced[2], healthy_fractions[1] / healthy_fractions[2], 1e-9);
}

TEST(ControllerQuarantine, ProbationTriggersRealResolve) {
  const auto cluster = gray_cluster();
  const auto cfg = gray_cfg(cluster);
  runtime::Controller ctrl(cluster, cfg);
  double t = 0.0;
  feed(ctrl, t, 60, {1, 2}, {0});
  ASSERT_EQ(ctrl.health_state(0), HealthState::Quarantined);
  const std::uint64_t resolves_before = ctrl.stats().resolves;

  // Dwell out the quarantine; keep flow on the healthy servers so
  // evaluations keep firing.
  t += cfg.health.quarantine_dwell;
  feed(ctrl, t, 20, {1, 2}, {});
  EXPECT_EQ(ctrl.health_state(0), HealthState::Probation);
  EXPECT_GE(ctrl.stats().probations, 1u);
  EXPECT_GT(ctrl.stats().resolves, resolves_before);  // degraded-speed re-solve

  // Healthy probation flow through the dwell restores the blade and its
  // nominal share.
  t += cfg.health.probation_dwell;
  feed(ctrl, t, 40, {0, 1, 2}, {});
  EXPECT_EQ(ctrl.health_state(0), HealthState::Healthy);
  EXPECT_GE(ctrl.stats().health_recoveries, 1u);
  const auto restored = ctrl.routing_fractions();
  EXPECT_GT(restored[0], 0.0);
}

TEST(ControllerQuarantine, HardFailureSupersedesGray) {
  const auto cluster = gray_cluster();
  runtime::Controller ctrl(cluster, gray_cfg(cluster));
  double t = 0.0;
  feed(ctrl, t, 60, {1, 2}, {0});
  ASSERT_EQ(ctrl.health_state(0), HealthState::Quarantined);
  // A hard failure of the quarantined server resets its gray history —
  // the topology event owns the blade now.
  ctrl.on_failure(t += 0.1, 0);
  EXPECT_EQ(ctrl.health_state(0), HealthState::Healthy);
  ctrl.on_recovery(t += 0.1, 0);
  EXPECT_EQ(ctrl.health_state(0), HealthState::Healthy);
  EXPECT_GT(ctrl.routing_fractions()[0], 0.0);  // rejoins the split clean
}

TEST(ControllerQuarantine, WholeFleetQuarantinedKeepsServing) {
  const auto cluster = gray_cluster();
  runtime::Controller ctrl(cluster, gray_cfg(cluster));
  double t = 0.0;
  feed(ctrl, t, 80, {}, {0, 1, 2});
  // Every server gray-failed: the availability contract prefers degraded
  // service over a dark fleet, so the published split must stay a
  // distribution (not all zeros).
  const auto fractions = ctrl.routing_fractions();
  double sum = 0.0;
  for (double f : fractions) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// --- policy layer: quarantine-aware routing tiers -------------------------

StateView make_view(const std::vector<ServerState>& fleet) {
  return StateView{&fleet,
                   [](const void* ctx, std::size_t i) {
                     return (*static_cast<const std::vector<ServerState>*>(ctx))[i];
                   },
                   fleet.size()};
}

TEST(PolicyQuarantine, ScanRoutesAroundQuarantinedMin) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::Jsq;
  policy::DispatchPolicy p(cfg, 3);
  // Server 0 has the shortest queue but is quarantined: JSQ must pick
  // the best routable server instead.
  std::vector<ServerState> fleet{{1.0, 4, 4, 0, true}, {1.0, 4, 4, 3, false}, {1.0, 4, 4, 5, false}};
  EXPECT_EQ(p.route(make_view(fleet)), 1u);
  EXPECT_GE(p.counters().quarantine_skips, 1u);
}

TEST(PolicyQuarantine, QuarantinedBeatsDarkWhenNothingRoutable) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::Jsq;
  policy::DispatchPolicy p(cfg, 3);
  // No routable server: one quarantined-but-up, two dark. Degraded
  // service beats parking on a dead queue.
  std::vector<ServerState> fleet{{1.0, 4, 0, 1, false}, {1.0, 4, 4, 9, true}, {1.0, 4, 0, 0, false}};
  EXPECT_EQ(p.route(make_view(fleet)), 1u);
}

TEST(PolicyQuarantine, SampledNeverPicksQuarantinedWeightHog) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::OptSplit;
  cfg.weights = {100.0, 1.0, 1.0};
  policy::DispatchPolicy p(cfg, 3);
  std::vector<ServerState> fleet{{1.0, 4, 4, 0, true}, {1.0, 4, 4, 0, false}, {1.0, 4, 4, 0, false}};
  const StateView view = make_view(fleet);
  for (int k = 0; k < 256; ++k) {
    const std::size_t dest = p.route(view);
    ASSERT_NE(dest, 0u) << "routed to a quarantined server with healthy alternatives";
  }
  EXPECT_GT(p.counters().quarantine_skips, 0u);
}

TEST(PolicyQuarantine, ProbedFallbackPrefersRoutableThenQuarantined) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::JsqD;
  cfg.probe_d = 2;
  policy::DispatchPolicy p(cfg, 2);
  // Both probes (d = n = 2) quarantined or dark.
  std::vector<ServerState> fleet{{1.0, 4, 4, 2, true}, {1.0, 4, 0, 0, false}};
  EXPECT_EQ(p.route(make_view(fleet)), 0u);  // quarantined-up beats dark
  fleet[1].available = 4;                    // server 1 recovers
  EXPECT_EQ(p.route(make_view(fleet)), 1u);  // routable tier wins again
}

TEST(PolicyQuarantine, RoundRobinSkipsQuarantinedInCycle) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::RoundRobin;
  policy::DispatchPolicy p(cfg, 3);
  std::vector<ServerState> fleet{{1.0, 4, 4, 0, false}, {1.0, 4, 4, 0, true}, {1.0, 4, 4, 0, false}};
  const StateView view = make_view(fleet);
  std::vector<std::size_t> picks;
  for (int k = 0; k < 4; ++k) picks.push_back(p.route(view));
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 2, 0, 2}));
  EXPECT_GE(p.counters().quarantine_skips, 2u);
}

TEST(PolicyQuarantine, LightTrafficOracleRejectsQuarantinedFleet) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::JsqD;
  cfg.probe_d = 2;
  std::vector<ServerState> fleet{{1.0, 4, 4, 0, false}, {1.0, 4, 4, 0, true}};
  EXPECT_THROW((void)policy::light_traffic_fractions(cfg, fleet), std::invalid_argument);
}

// --- 200-seed gray-chaos battery ------------------------------------------

/// Builds a per-seed gray fault script: 2-4 episodes (slowdown or stall)
/// on random servers, all injected and CLEARED inside [40, 260] so the
/// controller has the whole tail of the horizon to detect, quarantine,
/// probe, and reconverge.
std::vector<ReplayEvent> seeded_gray_events(std::uint64_t seed, std::size_t n) {
  sim::RngStream rng(seed, 991);
  std::vector<ReplayEvent> events;
  const int episodes = 2 + static_cast<int>(rng.uniform() * 3.0);
  double t = 40.0;
  for (int k = 0; k < episodes && t < 220.0; ++k) {
    const auto server = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    const double len = 15.0 + 25.0 * rng.uniform();
    if (rng.uniform() < 0.5) {
      const double factor = 0.1 + 0.2 * rng.uniform();
      events.push_back(
          {.time = t, .kind = ReplayEvent::Kind::Slow, .server = server, .factor = factor});
      events.push_back(
          {.time = t + len, .kind = ReplayEvent::Kind::Slow, .server = server, .factor = 1.0});
    } else {
      events.push_back({.time = t, .kind = ReplayEvent::Kind::Stall, .server = server});
      events.push_back({.time = t + len, .kind = ReplayEvent::Kind::Unstall, .server = server});
    }
    t += len + 5.0 + 20.0 * rng.uniform();
  }
  return events;
}

std::string checkpoint_path(const std::string& run) {
  return (std::filesystem::temp_directory_path() /
          ("gray_battery_" + run + "_" + std::to_string(::getpid()) + ".json"))
      .string();
}

/// The split a healthy re-solve would publish at time t from the
/// estimates in the checkpoint at `path`: nominal speeds, the controller's
/// clamped preloads, a cold optimize().
std::vector<double> healthy_optimum(const model::Cluster& cluster,
                                    const runtime::ControllerConfig& cfg, const std::string& path,
                                    double t) {
  runtime::Controller ctrl(cluster, cfg);
  const auto doc = util::read_file(path);
  EXPECT_TRUE(doc.has_value()) << path;
  if (!doc.has_value() || !ctrl.restore_checkpoint(doc.value()).ok()) return {};
  std::vector<model::BladeServer> servers;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto& s = cluster.server(i);
    const double capacity = s.size() * s.speed() / cluster.rbar();
    servers.emplace_back(s.size(), s.speed(),
                         std::min(ctrl.estimated_special_rate(i, t),
                                  cfg.utilization_ceiling * capacity));
  }
  const double lambda = ctrl.estimated_lambda(t);
  auto rates = opt::LoadDistributionOptimizer(model::Cluster(std::move(servers), cluster.rbar()),
                                              cfg.discipline)
                   .optimize(lambda)
                   .rates;
  for (double& r : rates) r /= lambda;
  return rates;
}

TEST(GrayBattery, ReconvergesToHealthyOptimumAfterFaultsClear) {
  const auto cluster = model::make_cluster({2, 2, 2}, {2.0, 1.0, 1.0}, 1.0, 0.15);
  constexpr double kHorizon = 600.0;
  constexpr int kSeeds = 200;

  runtime::ControllerConfig cfg;
  // Long estimator memory: the offered rate is constant, so a smooth
  // lambda estimate makes "reconverged to the healthy optimum" sharp —
  // the degraded and clean runs re-solve at different instants, and a
  // twitchy EWMA would differ by sampling noise alone.
  cfg.half_life = kHorizon / 15.0;
  cfg.health.enabled = true;

  int violations = 0;
  std::string first_violation;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    ReplayTrace trace;
    trace.horizon = kHorizon;
    trace.seed = static_cast<std::uint64_t>(seed);
    trace.events.push_back({.time = 0.0,
                            .kind = ReplayEvent::Kind::Rate,
                            .rate = 0.5 * cluster.max_generic_rate()});
    ReplayTrace gray = trace;
    for (const auto& e : seeded_gray_events(trace.seed, cluster.size())) gray.events.push_back(e);

    runtime::ReplayOptions degraded_opts;
    degraded_opts.checkpoint_out = checkpoint_path("degraded");
    runtime::ReplayOptions clean_opts;
    clean_opts.checkpoint_out = checkpoint_path("clean");
    const auto degraded = runtime::replay(cluster, cfg, gray, degraded_opts);
    const auto clean = runtime::replay(cluster, cfg, trace, clean_opts);

    // Fencing invariant: a quarantined server never receives a route
    // while a healthy alternative exists.
    if (degraded.routes_to_quarantined != 0) {
      ++violations;
      if (first_violation.empty()) {
        first_violation = "seed " + std::to_string(seed) + ": " +
                          std::to_string(degraded.routes_to_quarantined) +
                          " routes to quarantined servers";
      }
      continue;
    }
    // Reconvergence: every fault cleared by t = 260, so by the horizon
    // the published split must be back at the healthy optimum of the
    // run's own estimates; the clean run is held to the same. (The two
    // runs' estimates differ: their simulated arrivals do.)
    for (const auto* run : {&degraded, &clean}) {
      const std::string which = run == &degraded ? "degraded" : "clean";
      const auto healthy = healthy_optimum(cluster, cfg, checkpoint_path(which), kHorizon);
      ASSERT_EQ(run->final_fractions.size(), healthy.size());
      for (std::size_t i = 0; i < healthy.size(); ++i) {
        if (std::abs(run->final_fractions[i] - healthy[i]) > 0.05) {
          ++violations;
          if (first_violation.empty()) {
            first_violation = "seed " + std::to_string(seed) + " (" + which + "): server " +
                              std::to_string(i) + " fraction " +
                              std::to_string(run->final_fractions[i]) + " vs healthy " +
                              std::to_string(healthy[i]);
          }
          break;
        }
      }
    }
  }

  std::filesystem::remove(checkpoint_path("degraded"));
  std::filesystem::remove(checkpoint_path("clean"));
  if (violations > 0) {
    // Ship the decision trail with the failure: CI uploads
    // RECORDER_*.jsonl artifacts on failed runs.
    const obs::Dump dump = obs::recorder().dump("gray_battery");
    obs::write_dump_file(dump, "RECORDER_gray_battery.jsonl");
  }
  EXPECT_EQ(violations, 0) << first_violation
                           << " (recorder dump: RECORDER_gray_battery.jsonl)";
}

}  // namespace
