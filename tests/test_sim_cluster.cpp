// Cluster-level simulation: dispatch policies over live simulated
// servers, replications with confidence intervals, and the headline
// validation -- the simulated blade center at the optimizer's
// distribution reproduces the analytic minimized T'.
#include <gtest/gtest.h>

#include <cmath>

#include "core/optimizer.hpp"
#include "model/paper_configs.hpp"
#include "policy/policy.hpp"
#include "runtime/replay.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/server_sim.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace blade;
using sim::SchedulingMode;
using sim::SimConfig;

policy::PolicyConfig policy_of(policy::PolicyKind kind, unsigned d = 2) {
  policy::PolicyConfig cfg;
  cfg.kind = kind;
  cfg.probe_d = d;
  return cfg;
}

/// One generic stream at a constant `lambda` over `config`'s horizon,
/// warmup and seed, routed by `cfg` through runtime::replay_policy.
sim::SimResult simulate_routed(const model::Cluster& cluster, double lambda,
                               const policy::PolicyConfig& cfg, const SimConfig& config) {
  runtime::ReplayTrace trace;
  trace.horizon = config.horizon;
  trace.seed = config.seed;
  trace.events.push_back({.time = 0.0, .kind = runtime::ReplayEvent::Kind::Rate, .rate = lambda});
  runtime::ReplayOptions options;
  options.warmup = config.warmup;
  return runtime::replay_policy(cluster, cfg, trace, options).sim;
}

TEST(Dispatchers, ProbabilisticFollowsRates) {
  // opt-split over live servers: server 0 gets weight 1 of 4.
  sim::Engine e;
  sim::ResponseTimeCollector col;
  sim::ServerSim s0(e, 1, 1.0, SchedulingMode::Fcfs, col);
  sim::ServerSim s1(e, 1, 1.0, SchedulingMode::Fcfs, col);
  const std::vector<sim::ServerSim*> servers{&s0, &s1};
  policy::PolicyConfig cfg = policy_of(policy::PolicyKind::OptSplit);
  cfg.weights = {1.0, 3.0};
  policy::DispatchPolicy d(cfg, servers.size());
  const policy::StateView view = runtime::live_state_view(servers);
  int first = 0;
  const int total = 40000;
  for (int i = 0; i < total; ++i) {
    if (d.route(view) == 0) ++first;
  }
  EXPECT_NEAR(static_cast<double>(first) / total, 0.25, 0.01);
}

TEST(Dispatchers, ProbabilisticValidation) {
  policy::PolicyConfig cfg = policy_of(policy::PolicyKind::OptSplit);
  EXPECT_THROW(policy::DispatchPolicy(cfg, 2), std::invalid_argument);
  cfg.weights = {0.0, 0.0};
  EXPECT_THROW(policy::DispatchPolicy(cfg, 2), std::invalid_argument);
  cfg.weights = {-1.0, 2.0};
  EXPECT_THROW(policy::DispatchPolicy(cfg, 2), std::invalid_argument);
}

TEST(Dispatchers, RoundRobinCycles) {
  sim::Engine e;
  sim::ResponseTimeCollector col;
  sim::ServerSim s0(e, 1, 1.0, SchedulingMode::Fcfs, col);
  sim::ServerSim s1(e, 1, 1.0, SchedulingMode::Fcfs, col);
  sim::ServerSim s2(e, 1, 1.0, SchedulingMode::Fcfs, col);
  const std::vector<sim::ServerSim*> servers{&s0, &s1, &s2};
  policy::DispatchPolicy d(policy_of(policy::PolicyKind::RoundRobin), servers.size());
  const policy::StateView view = runtime::live_state_view(servers);
  EXPECT_EQ(d.route(view), 0u);
  EXPECT_EQ(d.route(view), 1u);
  EXPECT_EQ(d.route(view), 2u);
  EXPECT_EQ(d.route(view), 0u);
}

TEST(Dispatchers, JsqPicksLeastLoaded) {
  sim::Engine e;
  sim::ResponseTimeCollector col;
  sim::ServerSim s0(e, 1, 1.0, SchedulingMode::Fcfs, col);
  sim::ServerSim s1(e, 1, 1.0, SchedulingMode::Fcfs, col);
  sim::Task t;
  t.cls = sim::TaskClass::Generic;
  t.work = 100.0;
  s0.arrive(t);  // s0 now busy
  const std::vector<sim::ServerSim*> servers{&s0, &s1};
  policy::DispatchPolicy d(policy_of(policy::PolicyKind::HeteroJsqD, 2), servers.size());
  EXPECT_EQ(d.route(runtime::live_state_view(servers)), 1u);
}

TEST(ClusterSim, OptimalDistributionReproducesAnalyticTPrime) {
  // The headline validation: simulate Example 1's blade center at the
  // optimizer's rates and recover T' = 0.8964703 within sampling noise.
  const auto cluster = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();
  const auto sol =
      opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs).optimize(lambda);

  SimConfig cfg;
  cfg.horizon = 30000.0;
  cfg.warmup = 3000.0;
  const auto rep = sim::replicate(
      [&](const SimConfig& c) {
        return sim::simulate_split(cluster, sol.rates, SchedulingMode::Fcfs, c);
      },
      cfg, 6);
  EXPECT_NEAR(rep.generic_response.mean, sol.response_time, 0.03 * sol.response_time);
}

TEST(ClusterSim, PriorityDistributionReproducesAnalyticTPrime) {
  const auto cluster = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();
  const auto sol = opt::LoadDistributionOptimizer(cluster, queue::Discipline::SpecialPriority)
                       .optimize(lambda);
  SimConfig cfg;
  cfg.horizon = 30000.0;
  cfg.warmup = 3000.0;
  const auto rep = sim::replicate(
      [&](const SimConfig& c) {
        return sim::simulate_split(cluster, sol.rates, SchedulingMode::NonPreemptivePriority, c);
      },
      cfg, 6);
  EXPECT_NEAR(rep.generic_response.mean, sol.response_time, 0.03 * sol.response_time);
}

TEST(ClusterSim, DispatchedProbabilisticMatchesStaticSplit) {
  // Splitting one Poisson stream probabilistically is the same process as
  // independent per-server streams; the two simulations must agree.
  const auto cluster = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();
  const auto sol =
      opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs).optimize(lambda);
  SimConfig cfg;
  cfg.horizon = 30000.0;
  cfg.warmup = 3000.0;
  const auto split = sim::simulate_split(cluster, sol.rates, SchedulingMode::Fcfs, cfg);
  policy::PolicyConfig opt_split = policy_of(policy::PolicyKind::OptSplit);
  opt_split.seed = cfg.seed;
  opt_split.stream = 999;
  opt_split.weights = sol.rates;
  const auto routed = simulate_routed(cluster, lambda, opt_split, cfg);
  EXPECT_NEAR(routed.generic_mean_response, split.generic_mean_response,
              0.05 * split.generic_mean_response);
}

TEST(ClusterSim, JsqBeatsStaticSplitAtHighLoad) {
  // Dynamic state-aware routing beats any static split -- the caveat the
  // paper's static model leaves open; documents what optimality means here.
  // JSQ probes every server and ranks by tasks per available blade,
  // speed-weighted: ha-jsq-d with d = n.
  const auto cluster = model::paper_example_cluster();
  const double lambda = 0.85 * cluster.max_generic_rate();
  const auto sol =
      opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs).optimize(lambda);
  SimConfig cfg;
  cfg.horizon = 20000.0;
  cfg.warmup = 2000.0;
  const auto split = sim::simulate_split(cluster, sol.rates, SchedulingMode::Fcfs, cfg);
  const auto jsq = policy_of(policy::PolicyKind::HeteroJsqD,
                             static_cast<unsigned>(cluster.size()));
  const auto dynamic = simulate_routed(cluster, lambda, jsq, cfg);
  EXPECT_LT(dynamic.generic_mean_response, split.generic_mean_response);
}

TEST(ClusterSim, ReplicationCiShrinksWithMoreReplications) {
  const auto cluster = model::paper_example_cluster();
  const auto sol = opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs)
                       .optimize(model::paper_example_lambda());
  SimConfig cfg;
  cfg.horizon = 4000.0;
  cfg.warmup = 500.0;
  auto run = [&](const SimConfig& c) {
    return sim::simulate_split(cluster, sol.rates, SchedulingMode::Fcfs, c);
  };
  const auto few = sim::replicate(run, cfg, 4);
  const auto many = sim::replicate(run, cfg, 16);
  EXPECT_LT(many.generic_response.half_width, few.generic_response.half_width);
  EXPECT_THROW((void)sim::replicate(run, cfg, 1), std::invalid_argument);
}

TEST(ClusterSim, DispatchedValidation) {
  const auto cluster = model::paper_example_cluster();
  const auto rr = policy_of(policy::PolicyKind::RoundRobin);
  SimConfig cfg;
  EXPECT_THROW((void)simulate_routed(cluster, -1.0, rr, cfg), std::invalid_argument);
  cfg.warmup = cfg.horizon;
  EXPECT_THROW((void)simulate_routed(cluster, 1.0, rr, cfg), std::invalid_argument);
}

}  // namespace
