// Policy test battery for the dispatch-policy family: name/config
// round-trips, the light-traffic differential oracle (empirical routing
// fractions of the REAL policy code against the Izagirre–Makowski-style
// closed forms in light_traffic_fractions, plus an end-to-end simulator
// run at low load), bitwise metamorphic collapses (a heterogeneity-aware
// policy with degenerate parameters must equal its uniform counterpart
// decision for decision), d = n probing against true JSQ, pinned-seed
// determinism and replication thread-count invariance, the availability
// contract under failures and drains, counter accounting, and the two
// simulator regressions this PR fixes (PreemptiveResume reading a stale
// idle slot during a special arrival; JSQ normalizing by installed
// instead of available blades).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/optimizer.hpp"
#include "model/cluster.hpp"
#include "parallel/thread_pool.hpp"
#include "policy/policy.hpp"
#include "runtime/replay.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/server_sim.hpp"
#include "sim/simulation.hpp"
#include "util/stats.hpp"

namespace {

using namespace blade;
using policy::DispatchPolicy;
using policy::PolicyConfig;
using policy::PolicyKind;
using policy::ServerState;
using policy::StateView;

StateView make_view(const std::vector<ServerState>& fleet) {
  return StateView{&fleet,
                   [](const void* ctx, std::size_t i) {
                     return (*static_cast<const std::vector<ServerState>*>(ctx))[i];
                   },
                   fleet.size()};
}

runtime::ReplayTrace steady_trace(double horizon, double rate, std::uint64_t seed) {
  runtime::ReplayTrace trace;
  trace.horizon = horizon;
  trace.seed = seed;
  trace.events.push_back({.time = 0.0, .kind = runtime::ReplayEvent::Kind::Rate, .rate = rate});
  return trace;
}

std::vector<ServerState> uniform_fleet(std::size_t n) {
  return std::vector<ServerState>(n, ServerState{1.0, 4, 4, 0});
}

PolicyConfig config_of(PolicyKind kind, unsigned d = 2, std::uint64_t seed = 42) {
  PolicyConfig cfg;
  cfg.kind = kind;
  cfg.probe_d = d;
  cfg.seed = seed;
  return cfg;
}

/// Routes `draws` arrivals against a FROZEN fleet state (queues pinned
/// at whatever `fleet` holds — all zero = the exact light-traffic limit)
/// and returns the empirical per-server assignment fractions.
std::vector<double> empirical_fractions(DispatchPolicy& p, const std::vector<ServerState>& fleet,
                                        int draws) {
  const StateView view = make_view(fleet);
  std::vector<double> f(fleet.size(), 0.0);
  for (int k = 0; k < draws; ++k) f[p.route(view)] += 1.0;
  for (double& x : f) x /= static_cast<double>(draws);
  return f;
}

/// Drives two policies through the same deterministically evolving queue
/// process, asserting the routed destinations agree BITWISE at every
/// step. The mutation makes queues build up, drain, and tie repeatedly,
/// so the comparison covers loaded and empty selection paths.
void assert_bitwise_collapse(DispatchPolicy& a, DispatchPolicy& b,
                             std::vector<ServerState> fleet, int steps) {
  const StateView view = make_view(fleet);
  for (int k = 0; k < steps; ++k) {
    const std::size_t da = a.route(view);
    const std::size_t db = b.route(view);
    ASSERT_EQ(da, db) << "policies diverged at arrival " << k;
    fleet[da].in_system += 1;
    if (k % 3 == 2) {
      // Depart from the longest queue, so ties keep re-forming.
      std::size_t longest = 0;
      for (std::size_t i = 1; i < fleet.size(); ++i) {
        if (fleet[i].in_system > fleet[longest].in_system) longest = i;
      }
      if (fleet[longest].in_system > 0) fleet[longest].in_system -= 1;
    }
    if (k % 17 == 16) {
      for (auto& s : fleet) s.in_system = 0;  // periodic idle period
    }
  }
}

// --- names and validation --------------------------------------------------

TEST(PolicyConfig, NameRoundTripsForEveryKind) {
  for (const PolicyKind kind : policy::all_policy_kinds()) {
    const auto parsed = policy::parse_policy_kind(policy::to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value(), kind);
  }
  const auto bad = policy::parse_policy_kind("join-longest-queue");
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::InvalidArgument);
  // The error names the accepted spellings.
  EXPECT_NE(bad.error().context.find("opt-split"), std::string::npos);
}

TEST(PolicyConfig, ValidateRejectsBadConfigs) {
  EXPECT_FALSE(config_of(PolicyKind::JsqD).validate(0).ok());
  PolicyConfig zero_d = config_of(PolicyKind::JsqD, 0);
  EXPECT_FALSE(zero_d.validate(4).ok());

  PolicyConfig weighted = config_of(PolicyKind::WeightedJsqD);
  weighted.weights = {1.0, 2.0};  // fleet is 3 servers
  EXPECT_FALSE(weighted.validate(3).ok());
  weighted.weights = {1.0, 2.0, 1.0};
  EXPECT_TRUE(weighted.validate(3).ok());

  PolicyConfig sb = config_of(PolicyKind::SpeedBiasedD);
  EXPECT_FALSE(sb.validate(2).ok());  // speeds missing
  sb.speeds = {2.0, 1.0};
  EXPECT_TRUE(sb.validate(2).ok());

  EXPECT_THROW(DispatchPolicy(config_of(PolicyKind::OptSplit), 3), std::invalid_argument);
}

TEST(PolicyConfig, KindPredicates) {
  EXPECT_TRUE(policy::probes_queue_state(PolicyKind::Jsq));
  EXPECT_TRUE(policy::probes_queue_state(PolicyKind::HeteroJsqD));
  EXPECT_FALSE(policy::probes_queue_state(PolicyKind::OptSplit));
  EXPECT_TRUE(policy::needs_weights(PolicyKind::WeightedJsqD));
  EXPECT_FALSE(policy::needs_weights(PolicyKind::SpeedBiasedD));
}

// --- light-traffic oracle: closed forms ------------------------------------

TEST(LightTraffic, Jsq2ClosedFormIsTheOrderStatistic) {
  // Uniform probing, empty queues: pair (i, j) goes to min(i, j), so
  // f_i = 2 (n - 1 - i) / (n (n - 1)).
  const std::size_t n = 5;
  const auto f =
      policy::light_traffic_fractions(config_of(PolicyKind::JsqD), uniform_fleet(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double expect = 2.0 * static_cast<double>(n - 1 - i) /
                          (static_cast<double>(n) * static_cast<double>(n - 1));
    EXPECT_NEAR(f[i], expect, 1e-12) << "server " << i;
  }
}

TEST(LightTraffic, HeteroJsq2PrefersFasterServerByCapacityKey) {
  // Speeds 4 > 2 > 1, uniform probing: every pair goes to the faster
  // member (key 1/(a s)). Ordered pairs are equiprobable (1/6), four of
  // six contain server 0.
  std::vector<ServerState> fleet = {{4.0, 1, 1, 0}, {2.0, 1, 1, 0}, {1.0, 1, 1, 0}};
  const auto f = policy::light_traffic_fractions(config_of(PolicyKind::HeteroJsqD), fleet);
  EXPECT_NEAR(f[0], 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(f[1], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(f[2], 0.0, 1e-12);
}

TEST(LightTraffic, SpeedBiased2MatchesWithoutReplacementAlgebra) {
  // p = (1/2, 1/4, 1/4) from speeds (2, 1, 1); empty queues tie to the
  // lower index, so f_0 = P(pair contains 0) = 5/6, f_1 = 1/6, f_2 = 0.
  PolicyConfig cfg = config_of(PolicyKind::SpeedBiasedD);
  cfg.speeds = {2.0, 1.0, 1.0};
  std::vector<ServerState> fleet = {{2.0, 1, 1, 0}, {1.0, 1, 1, 0}, {1.0, 1, 1, 0}};
  const auto f = policy::light_traffic_fractions(cfg, fleet);
  EXPECT_NEAR(f[0], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(f[1], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(f[2], 0.0, 1e-12);
}

TEST(LightTraffic, FractionsSumToOneForEveryKind) {
  std::vector<ServerState> fleet = {{2.0, 4, 4, 0}, {1.5, 2, 2, 0}, {1.0, 4, 4, 0}};
  for (const PolicyKind kind : policy::all_policy_kinds()) {
    PolicyConfig cfg = config_of(kind);
    if (policy::needs_weights(kind)) cfg.weights = {3.0, 1.0, 2.0};
    if (kind == PolicyKind::SpeedBiasedD) cfg.speeds = {2.0, 1.5, 1.0};
    const auto f = policy::light_traffic_fractions(cfg, fleet);
    double sum = 0.0;
    for (const double x : f) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9) << policy::to_string(kind);
  }
}

TEST(LightTraffic, RejectsUnsupportedProbeDepthAndDarkFleets) {
  EXPECT_THROW(
      policy::light_traffic_fractions(config_of(PolicyKind::JsqD, 3), uniform_fleet(5)),
      std::invalid_argument);
  std::vector<ServerState> fleet = uniform_fleet(3);
  fleet[1].available = 0;
  EXPECT_THROW(policy::light_traffic_fractions(config_of(PolicyKind::JsqD), fleet),
               std::invalid_argument);
}

// --- light-traffic oracle: the real policy code, differentially ------------

/// Empirical fractions from the live DispatchPolicy on a frozen empty
/// fleet must match the closed form within 3 binomial standard errors
/// (plus epsilon); 120k draws put one s.e. at ~0.0014.
void check_against_oracle(PolicyConfig cfg, const std::vector<ServerState>& fleet) {
  const int draws = 120000;
  DispatchPolicy p(cfg, fleet.size());
  const auto measured = empirical_fractions(p, fleet, draws);
  const auto oracle = policy::light_traffic_fractions(cfg, fleet);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double se = std::sqrt(oracle[i] * (1.0 - oracle[i]) / draws);
    EXPECT_NEAR(measured[i], oracle[i], 3.0 * se + 1e-9)
        << policy::to_string(cfg.kind) << " server " << i;
  }
}

TEST(LightTraffic, EmpiricalJsq2MatchesOracle) {
  check_against_oracle(config_of(PolicyKind::JsqD), uniform_fleet(5));
}

TEST(LightTraffic, EmpiricalSpeedBiased2MatchesOracle) {
  PolicyConfig cfg = config_of(PolicyKind::SpeedBiasedD);
  cfg.speeds = {2.0, 1.0, 1.0};
  check_against_oracle(cfg, {{2.0, 1, 1, 0}, {1.0, 1, 1, 0}, {1.0, 1, 1, 0}});
}

TEST(LightTraffic, EmpiricalHeteroJsq2MatchesOracle) {
  check_against_oracle(config_of(PolicyKind::HeteroJsqD),
                       {{4.0, 1, 1, 0}, {2.0, 1, 1, 0}, {1.0, 1, 1, 0}});
}

TEST(LightTraffic, EmpiricalWeightedJsq2MatchesOracle) {
  PolicyConfig cfg = config_of(PolicyKind::WeightedJsqD);
  cfg.weights = {1.0, 2.0, 1.0};
  check_against_oracle(cfg, uniform_fleet(3));
}

TEST(LightTraffic, EmpiricalOptSplitMatchesWeights) {
  PolicyConfig cfg = config_of(PolicyKind::OptSplit);
  cfg.weights = {6.0, 3.0, 1.0};
  check_against_oracle(cfg, uniform_fleet(3));
}

/// End-to-end: the full simulator (Poisson arrivals, exponential service)
/// at ~0.3% utilization. The light-traffic closed form is the lambda -> 0
/// limit, so the measured fraction carries an O(rho) occupancy bias on
/// top of sampling noise (~0.08 at rho = 2.5%, ~0.01 here); the
/// tolerance is the replication CI half-width plus a documented 0.03
/// bias allowance.
TEST(LightTraffic, SimulatorJsq2FractionsNearOracle) {
  const model::Cluster cluster({{4, 1.0, 0.0}, {4, 1.0, 0.0}, {4, 1.0, 0.0}, {4, 1.0, 0.0}},
                               1.0);
  const auto oracle = policy::light_traffic_fractions(
      config_of(PolicyKind::JsqD), uniform_fleet(cluster.size()));
  const int reps = 6;
  std::vector<std::vector<double>> fractions(cluster.size());
  for (int k = 0; k < reps; ++k) {
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(k);
    const auto res = runtime::replay_policy(cluster, config_of(PolicyKind::JsqD, 2, seed),
                                            steady_trace(60000.0, 0.05, seed));
    std::uint64_t total = 0;
    for (const auto c : res.routed_by_server) total += c;
    ASSERT_GT(total, 1000u);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      fractions[i].push_back(res.measured_fractions[i]);
    }
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto ci = util::t_confidence_interval(fractions[i], 0.95);
    EXPECT_NEAR(ci.mean, oracle[i], ci.half_width + 0.03) << "server " << i;
  }
}

// --- bitwise metamorphic collapses -----------------------------------------

TEST(Metamorphic, SpeedBiasedCollapsesToJsqDWhenSpeedsEqual) {
  PolicyConfig sb = config_of(PolicyKind::SpeedBiasedD);
  sb.speeds = {1.5, 1.5, 1.5, 1.5};
  DispatchPolicy a(sb, 4);
  DispatchPolicy b(config_of(PolicyKind::JsqD), 4);
  assert_bitwise_collapse(a, b, std::vector<ServerState>(4, {1.5, 2, 2, 0}), 5000);
}

TEST(Metamorphic, WeightedCollapsesToHeteroWhenWeightsUniform) {
  PolicyConfig w = config_of(PolicyKind::WeightedJsqD);
  w.weights = {2.0, 2.0, 2.0, 2.0, 2.0};
  DispatchPolicy a(w, 5);
  DispatchPolicy b(config_of(PolicyKind::HeteroJsqD), 5);
  // Heterogeneous fleet: the collapse is about the PROBE distribution,
  // the comparison key stays the hetero one in both.
  std::vector<ServerState> fleet = {
      {4.0, 4, 4, 0}, {2.0, 2, 2, 0}, {1.0, 4, 4, 0}, {1.0, 2, 2, 0}, {0.5, 1, 1, 0}};
  assert_bitwise_collapse(a, b, fleet, 5000);
}

TEST(Metamorphic, HeteroCollapsesToJsqDOnHomogeneousFleet) {
  DispatchPolicy a(config_of(PolicyKind::HeteroJsqD), 4);
  DispatchPolicy b(config_of(PolicyKind::JsqD), 4);
  // Same speed AND same blade count everywhere: (q + 1) / (a s) orders
  // and ties exactly like raw q.
  assert_bitwise_collapse(a, b, std::vector<ServerState>(4, {2.0, 4, 4, 0}), 5000);
}

TEST(Metamorphic, OptSplitCollapsesToRandomWhenWeightsUniform) {
  PolicyConfig o = config_of(PolicyKind::OptSplit);
  o.weights = {3.0, 3.0, 3.0};
  DispatchPolicy a(o, 3);
  DispatchPolicy b(config_of(PolicyKind::Random), 3);
  assert_bitwise_collapse(a, b, uniform_fleet(3), 5000);
}

TEST(Metamorphic, ProbeAllEqualsTrueJsq) {
  // d = n probes every server (rejection + deterministic fill), and the
  // lexicographic (queue, index) minimum is probe-order free, so JSQ(n)
  // must pick exactly what the full scan picks at every arrival.
  const std::size_t n = 6;
  DispatchPolicy probed(config_of(PolicyKind::JsqD, static_cast<unsigned>(n)), n);
  DispatchPolicy scan(config_of(PolicyKind::Jsq), n);
  std::vector<ServerState> fleet(n, ServerState{1.0, 2, 2, 0});
  assert_bitwise_collapse(probed, scan, fleet, 4000);
  // And with d > n, the effective probe depth clamps to n.
  DispatchPolicy over(config_of(PolicyKind::JsqD, 99), n);
  DispatchPolicy scan2(config_of(PolicyKind::Jsq), n);
  assert_bitwise_collapse(over, scan2, fleet, 1000);
}

// --- determinism ------------------------------------------------------------

TEST(Determinism, PinnedSeedReproducesTheRoutedSequence) {
  std::vector<ServerState> fleet = uniform_fleet(4);
  const StateView view = make_view(fleet);
  PolicyConfig cfg = config_of(PolicyKind::JsqD);
  cfg.stream = 3;
  DispatchPolicy a(cfg, 4);
  DispatchPolicy b(cfg, 4);
  std::vector<std::size_t> seq_a, seq_b;
  for (int k = 0; k < 2000; ++k) {
    seq_a.push_back(a.route(view));
    seq_b.push_back(b.route(view));
  }
  EXPECT_EQ(seq_a, seq_b);

  // A different stream id over the same seed decorrelates the draws.
  PolicyConfig other = cfg;
  other.stream = 4;
  DispatchPolicy c(other, 4);
  int diff = 0;
  for (int k = 0; k < 2000; ++k) {
    if (c.route(view) != seq_a[static_cast<std::size_t>(k)]) ++diff;
  }
  EXPECT_GT(diff, 100);
}

TEST(Determinism, ReplicateIsThreadCountInvariant) {
  const model::Cluster cluster({{4, 2.0, 0.5}, {4, 1.0, 0.5}, {2, 1.0, 0.2}}, 1.0);
  auto one_run = [&](const sim::SimConfig& c) {
    runtime::ReplayOptions options;
    options.warmup = c.warmup;
    return runtime::replay_policy(cluster, config_of(PolicyKind::HeteroJsqD, 2, c.seed),
                                  steady_trace(c.horizon, 3.0, c.seed), options)
        .sim;
  };
  sim::SimConfig base;
  base.horizon = 4000.0;
  base.warmup = 400.0;
  base.seed = 11;
  par::ThreadPool one(1);
  par::ThreadPool three(3);
  const auto r1 = sim::replicate(one_run, base, 4, 0.95, &one);
  const auto r3 = sim::replicate(one_run, base, 4, 0.95, &three);
  ASSERT_EQ(r1.runs.size(), r3.runs.size());
  for (std::size_t k = 0; k < r1.runs.size(); ++k) {
    // Bitwise: each replication is a pure function of its seed, never of
    // the worker that happened to run it.
    EXPECT_EQ(r1.runs[k].generic_mean_response, r3.runs[k].generic_mean_response);
    EXPECT_EQ(r1.runs[k].generic_samples, r3.runs[k].generic_samples);
  }
}

// --- availability contract --------------------------------------------------

TEST(Availability, NeverRoutesToDarkServerWhileAlternativesExist) {
  std::vector<ServerState> fleet = uniform_fleet(5);
  fleet[0].available = 0;
  fleet[3].available = 0;
  const StateView view = make_view(fleet);
  for (const PolicyKind kind : policy::all_policy_kinds()) {
    PolicyConfig cfg = config_of(kind);
    if (policy::needs_weights(kind)) cfg.weights = {1.0, 1.0, 1.0, 1.0, 1.0};
    if (kind == PolicyKind::SpeedBiasedD) cfg.speeds = {1.0, 1.0, 1.0, 1.0, 1.0};
    DispatchPolicy p(cfg, 5);
    for (int k = 0; k < 3000; ++k) {
      const std::size_t dest = p.route(view);
      ASSERT_NE(dest, 0u) << policy::to_string(kind);
      ASSERT_NE(dest, 3u) << policy::to_string(kind);
    }
  }
}

TEST(Availability, FullOutageParksOnLeastLoadedProbed) {
  std::vector<ServerState> fleet = {{1.0, 2, 0, 3}, {1.0, 2, 0, 1}, {1.0, 2, 0, 2}};
  const StateView view = make_view(fleet);
  // Full scan kinds see the global minimum; probing with d = n too.
  DispatchPolicy scan(config_of(PolicyKind::Jsq), 3);
  EXPECT_EQ(scan.route(view), 1u);
  DispatchPolicy probed(config_of(PolicyKind::JsqD, 3), 3);
  EXPECT_EQ(probed.route(view), 1u);
  EXPECT_GE(probed.counters().fallback_scans, 1u);
  // Sampled kinds return SOME valid index (the task queues for recovery).
  DispatchPolicy rnd(config_of(PolicyKind::Random), 3);
  const std::size_t dest = rnd.route(view);
  EXPECT_LT(dest, 3u);
  EXPECT_GE(rnd.counters().fallback_scans, 1u);
}

TEST(Availability, HeteroKeyDiscountsDrainedCapacity) {
  // Equal speeds and queues, but server 0 is drained to one blade:
  // (q + 1)/(a s) ranks server 1 strictly better, so with d = n = 2
  // every arrival goes there.
  std::vector<ServerState> fleet = {{1.0, 4, 1, 2}, {1.0, 4, 4, 2}};
  const StateView view = make_view(fleet);
  DispatchPolicy p(config_of(PolicyKind::HeteroJsqD), 2);
  for (int k = 0; k < 500; ++k) ASSERT_EQ(p.route(view), 1u);
  // Naive JSQ(d) cannot tell them apart: the tie goes to index 0.
  DispatchPolicy naive(config_of(PolicyKind::JsqD), 2);
  for (int k = 0; k < 500; ++k) ASSERT_EQ(naive.route(view), 0u);
}

// --- counters ---------------------------------------------------------------

TEST(Counters, ProbeAndHerdAccounting) {
  std::vector<ServerState> fleet(4, ServerState{1.0, 2, 2, 1});  // everyone busy
  const StateView view = make_view(fleet);
  DispatchPolicy p(config_of(PolicyKind::JsqD), 4);
  const int arrivals = 250;
  for (int k = 0; k < arrivals; ++k) (void)p.route(view);
  const auto& c = p.counters();
  EXPECT_EQ(c.routed, static_cast<std::uint64_t>(arrivals));
  // Exactly d distinct probes per arrival, no more (the fuzz corpus
  // asserts the same bound per-arrival under churn).
  EXPECT_EQ(c.probes, static_cast<std::uint64_t>(2 * arrivals));
  // All queues equal: every selection compares equal once -> one tie per
  // arrival; every available probe is busy -> one herd event per arrival.
  EXPECT_EQ(c.ties, static_cast<std::uint64_t>(arrivals));
  EXPECT_EQ(c.herd_events, static_cast<std::uint64_t>(arrivals));
  EXPECT_EQ(c.fallback_scans, 0u);
}

TEST(Counters, RedrawsCountDuplicateRejections) {
  // n = 2, d = 2: the second distinct probe needs one extra draw per
  // duplicate; over many arrivals redraws must be strictly positive and
  // probes still exactly 2 per arrival.
  std::vector<ServerState> fleet = uniform_fleet(2);
  const StateView view = make_view(fleet);
  DispatchPolicy p(config_of(PolicyKind::JsqD), 2);
  for (int k = 0; k < 1000; ++k) (void)p.route(view);
  EXPECT_EQ(p.counters().probes, 2000u);
  EXPECT_GT(p.counters().redraws, 0u);
}

// --- simulator regressions fixed in this PR ---------------------------------

TEST(SimRegression, PreemptionIgnoresStaleIdleSlots) {
  // A drained PreemptiveResume server whose idle slot still holds the
  // residue of a COMPLETED generic task: the special arrival's victim
  // scan used to pick that stale slot (cancel an already-fired event,
  // compute negative remaining work, underflow the busy count, and blow
  // up on a negative schedule delay). Busy-only scanning + slot
  // scrubbing keep the arrival a plain enqueue.
  sim::Engine engine;
  sim::ResponseTimeCollector collector;
  sim::ServerSim server(engine, 2, 1.0, sim::SchedulingMode::PreemptiveResume, collector);

  engine.schedule_at(0.5, [&] {
    server.arrive({sim::TaskClass::Special, 0.0, 100.0});  // slot 0, runs long
  });
  engine.schedule_at(1.0, [&] {
    server.arrive({sim::TaskClass::Generic, 0.0, 1.0});  // slot 1, done at t=2
  });
  engine.schedule_at(5.0, [&] { server.set_available_blades(1); });
  engine.schedule_at(6.0, [&] {
    server.arrive({sim::TaskClass::Special, 0.0, 1.0});  // must enqueue, not preempt
  });
  ASSERT_NO_THROW(engine.run_until(300.0));
  EXPECT_EQ(server.preemptions(), 0u);
  EXPECT_EQ(server.completions(), 3u);
  EXPECT_EQ(server.tasks_in_system(), 0u);
}

TEST(SimRegression, PreemptionStillEvictsRunningGenerics) {
  // Sanity: the busy-slot filter must not disable REAL preemption.
  sim::Engine engine;
  sim::ResponseTimeCollector collector;
  sim::ServerSim server(engine, 1, 1.0, sim::SchedulingMode::PreemptiveResume, collector);
  engine.schedule_at(1.0, [&] {
    server.arrive({sim::TaskClass::Generic, 0.0, 10.0});
  });
  engine.schedule_at(2.0, [&] {
    server.arrive({sim::TaskClass::Special, 0.0, 1.0});
  });
  engine.run_until(100.0);
  EXPECT_EQ(server.preemptions(), 1u);
  EXPECT_EQ(server.completions(), 2u);
}

TEST(SimRegression, JsqSkipsFullyFailedServersAndUsesLiveCapacity) {
  sim::Engine engine;
  sim::ResponseTimeCollector collector;
  sim::ServerSim s0(engine, 4, 1.0, sim::SchedulingMode::Fcfs, collector);
  sim::ServerSim s1(engine, 4, 1.0, sim::SchedulingMode::Fcfs, collector);
  std::vector<sim::ServerSim*> servers = {&s0, &s1};
  // JSQ over every server by (q + 1) / (a s), reading live state.
  DispatchPolicy jsq(config_of(PolicyKind::HeteroJsqD, 2), servers.size());
  const StateView view = runtime::live_state_view(servers);

  // Fully failed server 0 must never win, however empty it looks.
  s0.set_available_blades(0);
  s1.arrive({sim::TaskClass::Generic, 0.0, 50.0});
  EXPECT_EQ(jsq.route(view), 1u);

  // Load must normalize by AVAILABLE blades: 1 task on a 1-available
  // server (live load 1.0) vs 2 tasks on a 4-available one (0.5). The
  // installed-blades normalization would have picked server 0.
  s0.set_available_blades(1);
  s0.arrive({sim::TaskClass::Generic, 0.0, 50.0});
  s1.arrive({sim::TaskClass::Generic, 0.0, 50.0});
  EXPECT_EQ(jsq.route(view), 1u);
}

// --- replay harness ---------------------------------------------------------

TEST(ReplayPolicy, OptSplitRealizesItsWeights) {
  const model::Cluster cluster({{4, 2.0, 0.4}, {4, 1.0, 0.4}}, 1.0);
  PolicyConfig cfg = config_of(PolicyKind::OptSplit);
  cfg.weights = {0.7, 0.3};
  const auto trace = steady_trace(6000.0, 2.0, 5);
  const auto res = runtime::replay_policy(cluster, cfg, trace);
  ASSERT_EQ(res.measured_fractions.size(), 2u);
  EXPECT_NEAR(res.measured_fractions[0], 0.7, 0.05);
  EXPECT_NEAR(res.measured_fractions[1], 0.3, 0.05);
  std::uint64_t total = 0;
  for (const auto c : res.routed_by_server) total += c;
  EXPECT_EQ(total, res.counters.routed);
  EXPECT_GT(res.sim.generic_samples, 0u);
  EXPECT_GT(res.sim.special_samples, 0u);
}

TEST(ReplayPolicy, SurvivesChurnAndKeepsServing) {
  const model::Cluster cluster({{4, 2.0, 0.5}, {4, 1.0, 0.5}, {2, 1.0, 0.2}}, 1.0);
  auto trace = steady_trace(3000.0, 3.0, 5);
  trace.events.push_back(
      {.time = 1000.0, .kind = runtime::ReplayEvent::Kind::Fail, .server = 0});
  trace.events.push_back(
      {.time = 2000.0, .kind = runtime::ReplayEvent::Kind::Recover, .server = 0});
  for (const PolicyKind kind :
       {PolicyKind::JsqD, PolicyKind::HeteroJsqD, PolicyKind::RoundRobin}) {
    const auto res = runtime::replay_policy(cluster, config_of(kind), trace);
    EXPECT_GT(res.sim.generic_samples, 1000u) << policy::to_string(kind);
    EXPECT_EQ(res.counters.routed,
              res.routed_by_server[0] + res.routed_by_server[1] + res.routed_by_server[2]);
  }
}

// --- the regime claims the bench matrix makes --------------------------------

TEST(Regimes, Jsq2BeatsOptSplitOnHomogeneousHeavyLoad) {
  // Homogeneous fleet at 90% load: queue feedback beats ANY static
  // split, including the optimizer's (which is uniform here).
  const model::Cluster cluster(
      {{4, 1.0, 0.6}, {4, 1.0, 0.6}, {4, 1.0, 0.6}, {4, 1.0, 0.6}}, 1.0);
  const double rate = 0.9 * cluster.max_generic_rate();
  opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs, {});
  const auto opt_rates = solver.optimize(rate).rates;
  const auto trace = steady_trace(4000.0, rate, 7);
  runtime::ReplayOptions ropts;
  ropts.warmup = 400.0;

  const auto jsq = runtime::replay_policy(cluster, config_of(PolicyKind::JsqD), trace, ropts);
  PolicyConfig oc = config_of(PolicyKind::OptSplit);
  oc.weights = opt_rates;
  const auto split = runtime::replay_policy(cluster, oc, trace, ropts);
  EXPECT_LT(jsq.sim.generic_mean_response, 0.8 * split.sim.generic_mean_response);
}

TEST(Regimes, OptSplitBeatsJsq2UnderExtremeHeterogeneity) {
  // Two fast chassis next to four slow ones: a uniform probe pair
  // usually sees only slow servers, so naive JSQ(2) drowns them while
  // the fast capacity idles — the Gardner et al. regime where
  // power-of-d loses to the paper's split (by orders of magnitude; the
  // 5x assertion margin is deliberately loose).
  std::vector<model::BladeServer> servers;
  servers.push_back({4, 8.0, 2.0});
  servers.push_back({4, 8.0, 2.0});
  for (int i = 0; i < 4; ++i) servers.push_back({2, 1.0, 0.2});
  const model::Cluster cluster(std::move(servers), 1.0);
  const double rate = 0.85 * cluster.max_generic_rate();
  opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs, {});
  const auto opt_rates = solver.optimize(rate).rates;
  const auto trace = steady_trace(4000.0, rate, 7);
  runtime::ReplayOptions ropts;
  ropts.warmup = 400.0;

  const auto jsq = runtime::replay_policy(cluster, config_of(PolicyKind::JsqD), trace, ropts);
  PolicyConfig oc = config_of(PolicyKind::OptSplit);
  oc.weights = opt_rates;
  const auto split = runtime::replay_policy(cluster, oc, trace, ropts);
  EXPECT_LT(5.0 * split.sim.generic_mean_response, jsq.sim.generic_mean_response);

  // The heterogeneity-aware PROBE distribution (weighted d-choices)
  // repairs it: wjsq-2 must land within 2x of the split.
  PolicyConfig wc = config_of(PolicyKind::WeightedJsqD);
  wc.weights = opt_rates;
  const auto wjsq = runtime::replay_policy(cluster, wc, trace, ropts);
  EXPECT_LT(wjsq.sim.generic_mean_response, 2.0 * split.sim.generic_mean_response);
}

}  // namespace
