// Runtime control plane units: the alias-table sampler, the online rate
// estimators, the sim-side failure plumbing (blade draining), and the
// Controller's publish/shed/hysteresis mechanics.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "model/paper_configs.hpp"
#include "obs/build_info.hpp"
#include "obs/recorder.hpp"
#include "policy/policy.hpp"
#include "runtime/chaos.hpp"
#include "runtime/controller.hpp"
#include "runtime/estimator.hpp"
#include "runtime/replay.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/server_sim.hpp"
#include "support/generators.hpp"
#include "util/alias_table.hpp"

namespace {

using namespace blade;

// ---------------------------------------------------------------- alias

TEST(AliasTable, FractionsAreNormalizedWeights) {
  const util::AliasTable t(std::vector<double>{1.0, 3.0, 0.0, 4.0});
  ASSERT_EQ(t.size(), 4u);
  const auto& f = t.fractions();
  EXPECT_DOUBLE_EQ(f[0], 0.125);
  EXPECT_DOUBLE_EQ(f[1], 0.375);
  EXPECT_DOUBLE_EQ(f[2], 0.0);
  EXPECT_DOUBLE_EQ(f[3], 0.5);
}

TEST(AliasTable, ZeroWeightEntriesAreNeverSampled) {
  const util::AliasTable t(std::vector<double>{0.0, 2.0, 0.0, 1.0, 0.0});
  // Sweep a dense grid of both uniforms, including the edges.
  for (int a = 0; a <= 200; ++a) {
    for (int b = 0; b <= 200; ++b) {
      const std::size_t i = t.sample(a / 200.0, b / 200.0);
      ASSERT_LT(i, 5u);
      EXPECT_TRUE(i == 1 || i == 3) << "u1=" << a / 200.0 << " u2=" << b / 200.0;
    }
  }
}

TEST(AliasTable, SampleFrequenciesMatchFractions) {
  const std::vector<double> w = {5.0, 1.0, 0.0, 2.0, 8.0};
  const util::AliasTable t(w);
  sim::RngStream rng(17, 0);
  std::vector<int> hits(w.size(), 0);
  const int n = 200000;
  for (int k = 0; k < n; ++k) ++hits[t.sample(rng.uniform(), rng.uniform())];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / n, t.fractions()[i], 0.005) << "i=" << i;
  }
}

TEST(AliasTable, SingleEntryAlwaysWins) {
  const util::AliasTable t(std::vector<double>{7.0});
  EXPECT_EQ(t.sample(0.0, 0.0), 0u);
  EXPECT_EQ(t.sample(0.999, 0.999), 0u);
}

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(util::AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(util::AliasTable(std::vector<double>{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(util::AliasTable(std::vector<double>{1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(util::AliasTable(std::vector<double>{1.0, std::nan("")}), std::invalid_argument);
}

// ------------------------------------------------------------ estimators

TEST(EwmaRateEstimator, UnbiasedOnEvenlySpacedStream) {
  const double lambda = 8.0;
  runtime::EwmaRateEstimator est(4.0);
  for (int k = 1; k <= 2000; ++k) est.try_observe(k / lambda);
  // Evenly spaced arrivals carry a deterministic ripple bias of about
  // alpha/2 = 0.087 on top of the corrected estimate; stay above that.
  EXPECT_NEAR(est.rate(2000 / lambda), lambda, 0.02 * lambda);
}

TEST(EwmaRateEstimator, BiasCorrectionWorksFromTheFirstArrivals) {
  // Without the 1 - e^{-alpha t} correction a short observation window
  // underestimates grossly; with it, even t = half_life/2 is close.
  const double lambda = 20.0;
  runtime::EwmaRateEstimator est(10.0);
  for (int k = 1; k <= 100; ++k) est.try_observe(k / lambda);  // runs to t = 5
  EXPECT_NEAR(est.rate(5.0), lambda, 0.05 * lambda);
}

TEST(EwmaRateEstimator, TracksAStepChangeWithinHalfLives) {
  const double hl = 2.0;
  runtime::EwmaRateEstimator est(hl);
  double t = 0.0;
  for (int k = 0; k < 200; ++k) est.try_observe(t += 1.0 / 10.0);  // rate 10 to t=20
  for (int k = 0; k < 400; ++k) est.try_observe(t += 1.0 / 40.0);  // rate 40 for 10 units
  // 10 time units = 5 half-lives after the step: residual ~ (40-10)/32.
  EXPECT_NEAR(est.rate(t), 40.0, 2.0);
}

TEST(EwmaRateEstimator, ZeroBeforeAnyArrivalAndMonotonicTimeEnforced) {
  runtime::EwmaRateEstimator est(1.0);
  EXPECT_EQ(est.rate(10.0), 0.0);
  EXPECT_TRUE(est.try_observe(1.0));
  EXPECT_THROW(runtime::EwmaRateEstimator(0.0), std::invalid_argument);
  est.reset(5.0);
  EXPECT_EQ(est.count(), 0u);
  EXPECT_EQ(est.rate(6.0), 0.0);
}

// ------------------------------------------------- sim-side integration

TEST(ServerSim, BladeDrainIsGracefulAndRecoveryRestartsQueue) {
  sim::Engine engine;
  sim::ResponseTimeCollector collector;
  sim::ServerSim srv(engine, 2, 1.0, sim::SchedulingMode::Fcfs, collector);
  auto task = [](double work) {
    sim::Task t;
    t.cls = sim::TaskClass::Generic;
    t.work = work;
    return t;
  };
  srv.arrive(task(10.0));
  srv.arrive(task(10.0));
  EXPECT_EQ(srv.busy_blades(), 2u);

  // Drain to 0: both running tasks keep their blades and finish.
  srv.set_available_blades(0);
  EXPECT_EQ(srv.busy_blades(), 2u);
  srv.arrive(task(1.0));  // queues: no available blade
  engine.run_until(15.0);
  EXPECT_EQ(srv.completions(), 2u);
  EXPECT_EQ(srv.busy_blades(), 0u);
  EXPECT_EQ(srv.queued_tasks(), 1u);  // still waiting for a recovery

  // Recovery immediately starts the queued task.
  srv.set_available_blades(2);
  EXPECT_EQ(srv.busy_blades(), 1u);
  engine.run_until(20.0);
  EXPECT_EQ(srv.completions(), 3u);
  EXPECT_THROW(srv.set_available_blades(3), std::invalid_argument);
}

TEST(FailureSchedule, AppliesEventsAtTheRightTimes) {
  sim::Engine engine;
  sim::ResponseTimeCollector collector;
  sim::ServerSim srv(engine, 4, 1.0, sim::SchedulingMode::Fcfs, collector);
  std::vector<sim::ServerSim*> servers = {&srv};

  auto schedule = sim::single_outage(0, 5.0, 10.0);
  schedule.events.push_back({12.0, sim::FailureKind::Failure, 0, 3});    // partial loss
  schedule.events.push_back({14.0, sim::FailureKind::Recovery, 0, 1});   // partial return
  std::vector<double> seen_times;
  sim::schedule_failures(engine, schedule, servers,
                         [&](const sim::FailureEvent& e) { seen_times.push_back(e.time); });

  engine.run_until(4.0);
  EXPECT_EQ(srv.available_blades(), 4u);
  engine.run_until(6.0);
  EXPECT_EQ(srv.available_blades(), 0u);
  engine.run_until(11.0);
  EXPECT_EQ(srv.available_blades(), 4u);
  engine.run_until(13.0);
  EXPECT_EQ(srv.available_blades(), 1u);
  engine.run_until(15.0);
  EXPECT_EQ(srv.available_blades(), 2u);
  ASSERT_EQ(seen_times.size(), 4u);
  EXPECT_EQ(seen_times.front(), 5.0);

  sim::FailureSchedule bad;
  bad.events.push_back({1.0, sim::FailureKind::Failure, 7, 0});
  EXPECT_THROW(sim::schedule_failures(engine, bad, servers), std::invalid_argument);
  EXPECT_THROW(sim::single_outage(0, 5.0, 5.0), std::invalid_argument);
}

// ------------------------------------------------------------ controller

runtime::ControllerConfig quick_config() {
  runtime::ControllerConfig cfg;
  cfg.half_life = 2.0;
  cfg.check_interval = 8;
  cfg.min_arrivals = 8;
  return cfg;
}

TEST(Controller, ConfigValidation) {
  const auto c = model::paper_example_cluster();
  auto bad = quick_config();
  bad.half_life = 0.0;
  EXPECT_THROW(runtime::Controller(c, bad), std::invalid_argument);
  bad = quick_config();
  bad.utilization_ceiling = 1.0;
  EXPECT_THROW(runtime::Controller(c, bad), std::invalid_argument);
  bad = quick_config();
  bad.check_interval = 0;
  EXPECT_THROW(runtime::Controller(c, bad), std::invalid_argument);
  bad = quick_config();
  bad.loss_threshold = -1.0;
  EXPECT_THROW(runtime::Controller(c, bad), std::invalid_argument);
  bad.loss_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(runtime::Controller(c, bad), std::invalid_argument);
  bad.loss_threshold = std::numeric_limits<double>::infinity();
  EXPECT_THROW(runtime::Controller(c, bad), std::invalid_argument);
}

TEST(Controller, PublishesFeasibleFallbackAtConstruction) {
  const auto c = model::paper_example_cluster();
  runtime::Controller ctrl(c, quick_config());
  const auto f = ctrl.routing_fractions();
  ASSERT_EQ(f.size(), c.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_GT(f[i], 0.0) << i;
    sum += f[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(ctrl.shed_probability(), 0.0);
  EXPECT_EQ(ctrl.stats().publications, 1u);
}

TEST(Controller, InitialLambdaSolvesTheStaticOptimum) {
  const auto c = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();
  auto cfg = quick_config();
  cfg.initial_lambda = lambda;
  runtime::Controller ctrl(c, cfg);
  const auto sol = opt::LoadDistributionOptimizer(c, queue::Discipline::Fcfs).optimize(lambda);
  const auto f = ctrl.routing_fractions();
  ASSERT_EQ(f.size(), c.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i], sol.rates[i] / lambda, 1e-9) << i;
  }
  EXPECT_EQ(ctrl.stats().resolves, 1u);
}

TEST(Controller, FailureZeroesTheServerAndRecoveryRestoresIt) {
  const auto c = model::paper_example_cluster();
  auto cfg = quick_config();
  cfg.initial_lambda = model::paper_example_lambda();
  runtime::Controller ctrl(c, cfg);

  const auto before = ctrl.routing_fractions();
  ctrl.on_failure(1.0, 3);
  EXPECT_EQ(ctrl.available_blades(3), 0u);
  EXPECT_EQ(ctrl.alive_servers(), c.size() - 1);
  auto f = ctrl.routing_fractions();
  EXPECT_EQ(f[3], 0.0);
  double sum = 0.0;
  for (double x : f) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);

  // Partial recovery: 2 of 8 blades return; the split stays normalized
  // (the clamped special preload may keep the share at zero).
  ctrl.on_recovery(2.0, 3, 2);
  EXPECT_EQ(ctrl.available_blades(3), 2u);
  f = ctrl.routing_fractions();
  sum = 0.0;
  for (double x : f) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);

  // Full recovery re-solves the original topology: same split as before
  // the outage (the estimators never warmed, so the inputs are identical).
  ctrl.on_recovery(3.0, 3);
  EXPECT_EQ(ctrl.available_blades(3), c.server(3).size());
  f = ctrl.routing_fractions();
  ASSERT_EQ(f.size(), before.size());
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_NEAR(f[i], before[i], 1e-9) << i;
  EXPECT_EQ(ctrl.stats().failures, 1u);
  EXPECT_EQ(ctrl.stats().recoveries, 2u);
  EXPECT_GE(ctrl.stats().resolves, 4u);  // initial + one per event
}

TEST(Controller, AllBladesDownMeansShedEverything) {
  const auto c = model::make_cluster({2, 2}, {1.0, 1.0}, 1.0, 0.1);
  auto cfg = quick_config();
  cfg.initial_lambda = 1.0;
  runtime::Controller ctrl(c, cfg);
  ctrl.on_failure(1.0, 0);
  ctrl.on_failure(1.0, 1);
  EXPECT_EQ(ctrl.weights(), nullptr);
  EXPECT_TRUE(ctrl.routing_fractions().empty());
  EXPECT_EQ(ctrl.shed_probability(), 1.0);
  EXPECT_FALSE(ctrl.on_generic_arrival(2.0, 0.0));
  EXPECT_FALSE(ctrl.on_generic_arrival(2.1, 0.999999));
  // Recovery re-publishes a usable split.
  ctrl.on_recovery(3.0, 0);
  EXPECT_NE(ctrl.weights(), nullptr);
  EXPECT_LT(ctrl.shed_probability(), 1.0);
}

TEST(Controller, AdmissionControlShedsTheMinimumFraction) {
  // One server, capacity 4; initial lambda far above the ceiling.
  const auto c = model::Cluster({model::BladeServer(4, 1.0, 0.0)}, 1.0);
  auto cfg = quick_config();
  cfg.utilization_ceiling = 0.9;
  cfg.initial_lambda = 6.0;  // capacity 4 -> admit 3.6, shed 0.4
  runtime::Controller ctrl(c, cfg);
  EXPECT_NEAR(ctrl.shed_probability(), 1.0 - 3.6 / 6.0, 1e-12);
  EXPECT_EQ(ctrl.stats().infeasible_resolves, 1u);
  // u below the shed probability drops the task, above admits it.
  EXPECT_FALSE(ctrl.on_generic_arrival(0.1, 0.1));
  EXPECT_TRUE(ctrl.on_generic_arrival(0.2, 0.9));
  EXPECT_EQ(ctrl.stats().shed, 1u);
  EXPECT_EQ(ctrl.stats().admitted, 1u);
  EXPECT_NEAR(ctrl.stats().shed_fraction(), 0.5, 1e-12);
}

TEST(Controller, SpecialEstimateFeedsTheSolveOnceWarm) {
  // Nominal special rate 0, but a live special stream at rate 2 on server
  // 0 must reduce its generic share once the estimator warms up.
  const auto c = model::Cluster(
      {model::BladeServer(4, 1.0, 0.0), model::BladeServer(4, 1.0, 0.0)}, 1.0);
  auto cfg = quick_config();
  cfg.half_life = 8.0;  // keeps the deterministic-stream ripple ~ alpha/2 small
  cfg.initial_lambda = 3.0;
  runtime::Controller ctrl(c, cfg);
  EXPECT_NEAR(ctrl.routing_fractions()[0], 0.5, 1e-9);
  double t = 0.0;
  for (int k = 0; k < 200; ++k) ctrl.on_special_arrival(t += 0.5, 0);
  EXPECT_NEAR(ctrl.estimated_special_rate(0, t), 2.0, 0.1);
  ctrl.resolve_now(t);
  const auto f = ctrl.routing_fractions();
  EXPECT_LT(f[0], 0.40);  // preloaded server now takes less generic load
  EXPECT_GT(f[1], 0.60);
}

TEST(Controller, HysteresisSkipsStationaryDriftChecks) {
  const auto c = model::paper_example_cluster();
  auto cfg = quick_config();
  cfg.check_interval = 8;
  cfg.min_arrivals = 64;  // first estimate-driven solve sees a settled rate
  cfg.loss_threshold = 1e-3;
  runtime::Controller ctrl(c, cfg);
  const double lambda = 20.0;
  double t = 0.0;
  for (int k = 0; k < 4000; ++k) ctrl.on_generic_arrival(t += 1.0 / lambda, 0.5);
  const auto& st = ctrl.stats();
  // One estimate-driven solve once warm, then stationary checks skip.
  EXPECT_GE(st.skipped_by_hysteresis, 400u);
  EXPECT_LE(st.resolves, 5u);
  EXPECT_NEAR(ctrl.last_solved_lambda(), lambda, 0.05 * lambda);
  EXPECT_EQ(st.generic_arrivals, 4000u);
}

TEST(Controller, LoadSwingTriggersAReSolve) {
  const auto c = model::paper_example_cluster();
  auto cfg = quick_config();
  cfg.loss_threshold = 1e-2;
  runtime::Controller ctrl(c, cfg);
  double t = 0.0;
  for (int k = 0; k < 1000; ++k) ctrl.on_generic_arrival(t += 1.0 / 10.0, 0.5);
  const auto solves_before = ctrl.stats().resolves;
  for (int k = 0; k < 1000; ++k) ctrl.on_generic_arrival(t += 1.0 / 35.0, 0.5);
  EXPECT_GT(ctrl.stats().resolves, solves_before);
  EXPECT_NEAR(ctrl.last_solved_lambda(), 35.0, 3.0);
}

TEST(Controller, RejectsOutOfRangeServerIndices) {
  const auto c = model::make_cluster({2, 2}, {1.0, 1.0}, 1.0, 0.1);
  runtime::Controller ctrl(c, quick_config());
  EXPECT_THROW(ctrl.on_special_arrival(1.0, 2), std::invalid_argument);
  EXPECT_THROW(ctrl.on_failure(1.0, 2), std::invalid_argument);
  EXPECT_THROW(ctrl.on_recovery(1.0, 2), std::invalid_argument);
  EXPECT_THROW((void)ctrl.available_blades(2), std::invalid_argument);
  EXPECT_THROW((void)ctrl.estimated_special_rate(2, 1.0), std::invalid_argument);
}

// The TSan-facing check: dispatch threads hammer the read side while the
// control thread republishes through failures, recoveries, and re-solves.
// Labeled fast so every sanitizer tier runs it.
TEST(Controller, PublishWhileSamplingIsRaceFree) {
  const auto c = model::paper_example_cluster();
  auto cfg = quick_config();
  cfg.initial_lambda = model::paper_example_lambda();
  runtime::Controller ctrl(c, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sampled{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&ctrl, &stop, &sampled, r] {
      sim::RngStream rng(99, static_cast<std::uint64_t>(r));
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto table = ctrl.weights();
        if (table) {
          const std::size_t i = table->sample(rng.uniform(), rng.uniform());
          ASSERT_LT(i, table->size());
        }
        (void)ctrl.shed_probability();
        ++n;
      }
      sampled.fetch_add(n);
    });
  }

  double t = 0.0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t victim = static_cast<std::size_t>(round) % c.size();
    ctrl.on_failure(t += 0.01, victim);
    for (int k = 0; k < 20; ++k) ctrl.on_generic_arrival(t += 0.01, 0.5);
    ctrl.on_recovery(t += 0.01, victim);
    ctrl.resolve_now(t);
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(sampled.load(), 0u);
  EXPECT_GE(ctrl.stats().publications, 400u);
}

// The controller counts the marginal evaluations of its re-solves in
// every build. Churn cluster, health scoring and the moderate chaos
// profile over a 60-unit failure trace: 436 evaluations per re-solve,
// with every warm re-solve a joint Newton iteration over the KKT system.
// The bound sits below the 898 of the nested warm search it replaced (an
// inner solve converged at every outer probe), and far below the 1,874 a
// solver needs whose inner loops crawl by bisection after landing on the
// root and whose outer polish bisects from the bracket midpoint. A
// 4-cell controller re-solves warm from the last split too, failovers
// included, and meets the same bound (1,791 when its failovers and
// health-driven re-solves restarted cold).
TEST(Controller, SolverEvaluationsPerReSolveOnTheChurnCluster) {
  const auto cluster = testsupport::churn_cluster();
  auto trace = runtime::reference_failure_trace(cluster, 60.0);
  trace.seed = 1;
  for (const std::size_t cells : {std::size_t{0}, std::size_t{4}}) {
    runtime::ControllerConfig cfg;
    cfg.half_life = 0.6;
    cfg.health.enabled = true;
    cfg.shard_cells = cells;
    runtime::FaultInjector chaos(1, runtime::chaos_profile("moderate").value());
    runtime::ReplayOptions o;
    o.chaos = &chaos;
    const auto r = runtime::replay(cluster, cfg, trace, o);
    ASSERT_GT(r.stats.resolves, 500u) << "shard_cells=" << cells;
    const double per_resolve = static_cast<double>(r.stats.solver_evaluations) /
                               static_cast<double>(r.stats.resolves);
    EXPECT_GT(per_resolve, 100.0) << "shard_cells=" << cells;
    EXPECT_LE(per_resolve, 650.0) << "shard_cells=" << cells;
  }
}

/// Threads of this process, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// A one-cell solve runs on the calling thread: neither the paper solver
// nor a shard_cells = 0 controller re-solve may start the global pool.
// ctest runs every test in its own process, so nothing started it before.
TEST(Controller, OneCellSolvesStartNoThreads) {
  const int before = process_threads();
  ASSERT_GT(before, 0);
  const auto cluster = testsupport::churn_cluster();
  const double lambda = 0.6 * cluster.max_generic_rate();
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs);
  ASSERT_TRUE(solver.try_optimize(lambda).has_value());
  runtime::ControllerConfig cfg;
  cfg.initial_lambda = lambda;
  runtime::Controller ctrl(cluster, cfg);
  ctrl.on_failure(1.0, 0);
  EXPECT_EQ(ctrl.stats().resolves, 2u);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  EXPECT_EQ(process_threads(), before);
}

// The serve loop's deterministic work counters on the same run, gated at
// ±10% of their values when this gate was set: 34,567 simulated events
// and 1,051 re-solves over 12,374 generic arrivals, i.e. 2.7935 events
// per generic arrival and 84.94 re-solves per 1,000 generic arrivals. An
// engine change that adds events per arrival, or a control-plane change
// that re-solves more (or stops re-solving), moves one of them.
TEST(Controller, ServeLoopCountersOnTheChurnCluster) {
  const auto cluster = testsupport::churn_cluster();
  auto trace = runtime::reference_failure_trace(cluster, 60.0);
  trace.seed = 1;
  runtime::ControllerConfig cfg;
  cfg.half_life = 0.6;
  cfg.health.enabled = true;
  runtime::FaultInjector chaos(1, runtime::chaos_profile("moderate").value());
  runtime::ReplayOptions o;
  o.chaos = &chaos;
  const auto r = runtime::replay(cluster, cfg, trace, o);
  ASSERT_GT(r.stats.generic_arrivals, 10000u);
  const auto arrivals = static_cast<double>(r.stats.generic_arrivals);
  const double events_per_arrival = static_cast<double>(r.sim.events) / arrivals;
  const double resolves_per_1k = 1000.0 * static_cast<double>(r.stats.resolves) / arrivals;
  EXPECT_GE(events_per_arrival, 0.9 * 2.7935);
  EXPECT_LE(events_per_arrival, 1.1 * 2.7935);
  EXPECT_GE(resolves_per_1k, 0.9 * 84.94);
  EXPECT_LE(resolves_per_1k, 1.1 * 84.94);
}

// ------------------------------------------------- replay options contract

std::size_t dispatch_events(const obs::Dump& dump) {
  std::size_t n = 0;
  for (const auto& e : dump.merged()) n += e.type == obs::EventType::Dispatch ? 1 : 0;
  return n;
}

// Every ReplayOptions field, set away from its default, either changes
// what each entry point reports or makes it throw std::invalid_argument:
// no option is silently ignored.
TEST(ReplayOptions, EveryFieldIsHonouredOrRejected) {
  using runtime::ReplayOptions;
  const auto cluster = model::paper_example_cluster();
  const auto trace = runtime::reference_failure_trace(cluster, 300.0);
  runtime::ControllerConfig cfg;
  cfg.half_life = 3.0;
  policy::PolicyConfig pol;
  pol.kind = policy::PolicyKind::JsqD;
  const auto base = runtime::replay(cluster, cfg, trace);
  const auto pbase = runtime::replay_policy(cluster, pol, trace);
  const auto heavy = runtime::chaos_profile("heavy").value();

  {  // warmup: early completions are discarded.
    ReplayOptions o;
    o.warmup = 100.0;
    EXPECT_LT(runtime::replay(cluster, cfg, trace, o).sim.generic_samples,
              base.sim.generic_samples);
    EXPECT_LT(runtime::replay_policy(cluster, pol, trace, o).sim.generic_samples,
              pbase.sim.generic_samples);
  }
  {  // service_scv: task sizes are no longer exponential.
    ReplayOptions o;
    o.service_scv = 0.5;
    EXPECT_NE(runtime::replay(cluster, cfg, trace, o).sim.generic_mean_response,
              base.sim.generic_mean_response);
    EXPECT_NE(runtime::replay_policy(cluster, pol, trace, o).sim.generic_mean_response,
              pbase.sim.generic_mean_response);
  }
  {  // chaos: flaps reach both paths; telemetry and solver faults the controller.
    runtime::FaultInjector c1(5, heavy);
    ReplayOptions o;
    o.chaos = &c1;
    const auto r = runtime::replay(cluster, cfg, trace, o);
    EXPECT_GT(r.stats.injected_faults, 0u);
    EXPECT_NE(r.sim.events, base.sim.events);
    runtime::FaultInjector c2(5, heavy);
    o.chaos = &c2;
    EXPECT_NE(runtime::replay_policy(cluster, pol, trace, o).sim.events, pbase.sim.events);
  }
  {  // slo, slo_epochs: controller epochs; a policy has none to evaluate.
    ReplayOptions o;
    o.slo.response_time = 1.0;
    o.slo_epochs = 5;
    EXPECT_EQ(runtime::replay(cluster, cfg, trace, o).slo.size(), 5u);
    EXPECT_THROW((void)runtime::replay_policy(cluster, pol, trace, o), std::invalid_argument);
    o.slo_epochs = 0;
    EXPECT_THROW((void)runtime::replay(cluster, cfg, trace, o), std::invalid_argument);
  }
  if (obs::build_info().obs_enabled) {  // dispatch_sample: recorder-only effect.
    for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{1}}) {
      ReplayOptions o;
      o.dispatch_sample = every;
      obs::recorder().reset();
      (void)runtime::replay(cluster, cfg, trace, o);
      EXPECT_EQ(dispatch_events(obs::recorder().dump()) > 0, every > 0);
      obs::recorder().reset();
      (void)runtime::replay_policy(cluster, pol, trace, o);
      EXPECT_EQ(dispatch_events(obs::recorder().dump()) > 0, every > 0);
    }
  }
  const std::string path = ::testing::TempDir() + "replay_options_contract.ckpt";
  {  // checkpoint_out, checkpoint_every: periodic plus final writes.
    ReplayOptions o;
    o.checkpoint_out = path;
    o.checkpoint_every = 100.0;
    EXPECT_EQ(runtime::replay(cluster, cfg, trace, o).checkpoints_written, 3u);
    EXPECT_THROW((void)runtime::replay_policy(cluster, pol, trace, o), std::invalid_argument);
    o.checkpoint_every = 0.0;
    EXPECT_THROW((void)runtime::replay_policy(cluster, pol, trace, o), std::invalid_argument);
    ReplayOptions no_path;
    no_path.checkpoint_every = 100.0;
    EXPECT_THROW((void)runtime::replay(cluster, cfg, trace, no_path), std::invalid_argument);
    EXPECT_THROW((void)runtime::replay_policy(cluster, pol, trace, no_path),
                 std::invalid_argument);
  }
  {  // checkpoint_in: the controller starts from the restored state.
    runtime::Controller donor(cluster, cfg);
    ReplayOptions o;
    o.checkpoint_in = donor.checkpoint_json();
    EXPECT_EQ(runtime::replay(cluster, cfg, trace, o).stats.restores, 1u);
    EXPECT_THROW((void)runtime::replay_policy(cluster, pol, trace, o), std::invalid_argument);
  }
  std::remove(path.c_str());

  // replay_policy's discipline: the simulation queues what it was asked to.
  const auto priority =
      runtime::replay_policy(cluster, pol, trace, {}, queue::Discipline::SpecialPriority);
  EXPECT_NE(priority.sim.generic_mean_response, pbase.sim.generic_mean_response);
}

}  // namespace
