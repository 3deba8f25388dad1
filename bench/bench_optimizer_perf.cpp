// google-benchmark microbenchmarks of the solvers: the paper's double
// bisection vs the closed form (single-blade clusters) vs projected
// gradient, scaling in cluster size and tolerance, and the warm re-solve
// on serve-churn's cluster. Runs through bench_obs_main, so each run
// writes BENCH_bench_optimizer_perf.json; CI ratios the warm re-solve's
// wall timer (optimizer.bench.warm_resolve_seconds) over a 64-queue
// marginal sweep's (optimizer.bench.sweep64_seconds) against the
// checked-in bench/baselines/ record.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "churn_cluster.hpp"
#include "core/closed_form.hpp"
#include "support/gradient_optimizer.hpp"
#include "core/optimizer.hpp"
#include "model/cluster.hpp"
#include "model/paper_configs.hpp"
#include "obs/obs.hpp"

namespace {

using namespace blade;

model::Cluster synthetic_cluster(std::size_t n, unsigned blades_each) {
  std::vector<unsigned> sizes(n, blades_each);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    speeds[i] = 0.6 + 0.13 * static_cast<double>(i % 11);
  }
  return model::make_cluster(sizes, speeds, 1.0, 0.3);
}

void BM_OptimizePaperExample(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  const auto d = state.range(0) == 0 ? queue::Discipline::Fcfs
                                     : queue::Discipline::SpecialPriority;
  const opt::LoadDistributionOptimizer solver(cluster, d);
  const double lambda = model::paper_example_lambda();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(lambda));
  }
}
BENCHMARK(BM_OptimizePaperExample)->Arg(0)->Arg(1);

void BM_OptimizeScalesWithServers(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cluster = synthetic_cluster(n, 4);
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs);
  const double lambda = 0.6 * cluster.max_generic_rate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(lambda));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OptimizeScalesWithServers)->RangeMultiplier(4)->Range(4, 256)->Complexity();

void BM_OptimizeScalesWithBlades(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const auto cluster = synthetic_cluster(8, m);
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs);
  const double lambda = 0.6 * cluster.max_generic_rate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(lambda));
  }
}
BENCHMARK(BM_OptimizeScalesWithBlades)->RangeMultiplier(4)->Range(1, 1024);

void BM_OptimizeToleranceCost(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  opt::OptimizerOptions opts;
  opts.rate_tolerance = std::pow(10.0, -state.range(0));
  opts.phi_tolerance = opts.rate_tolerance;
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(23.52));
  }
}
BENCHMARK(BM_OptimizeToleranceCost)->Arg(4)->Arg(8)->Arg(12);

void BM_ClosedFormSingleBlade(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cluster = synthetic_cluster(n, 1);
  const double lambda = 0.6 * cluster.max_generic_rate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::closed_form_distribution(cluster, queue::Discipline::Fcfs, lambda));
  }
}
BENCHMARK(BM_ClosedFormSingleBlade)->RangeMultiplier(4)->Range(4, 256);

void BM_BisectionOnSingleBladeCluster(benchmark::State& state) {
  // Same instances as BM_ClosedFormSingleBlade: quantifies what Theorem 1
  // buys over the general algorithm.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cluster = synthetic_cluster(n, 1);
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs);
  const double lambda = 0.6 * cluster.max_generic_rate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(lambda));
  }
}
BENCHMARK(BM_BisectionOnSingleBladeCluster)->RangeMultiplier(4)->Range(4, 256);

void BM_ProjectedGradient(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::gradient_optimize(cluster, queue::Discipline::Fcfs, 23.52));
  }
}
BENCHMARK(BM_ProjectedGradient);

// The controller's warm re-solve: one workspace threaded through a +-1%
// chain around serve-churn's 57% load, FCFS (0) or special priority (1).
// After each re-solve, one {G, dG} evaluation of each of the 64 servers
// at the rates it returned, the Erlang-kernel work of one Newton round.
// Each iteration times both, so their ratio (sweeps per warm re-solve)
// does not depend on the host's speed.
void BM_WarmReSolveChurn(benchmark::State& state) {
  const auto cluster = bench_common::churn_cluster();
  const auto d =
      state.range(0) == 0 ? queue::Discipline::Fcfs : queue::Discipline::SpecialPriority;
  std::vector<queue::BladeQueue> queues;
  for (const auto& server : cluster.servers()) queues.push_back(server.queue(cluster.rbar(), d));
  const opt::LoadDistributionOptimizer solver(cluster, d);
  const double base = 0.57 * cluster.max_generic_rate();
  opt::SolverWorkspace ws;
  (void)solver.optimize(base, ws);
  int tick = 0;
  for (auto _ : state) {
    const double lambda = base * (1.0 + 0.01 * ((tick++ % 3) - 1));
    opt::LoadDistribution sol;
    {
      BLADE_OBS_TIMER("optimizer.bench.warm_resolve_seconds");
      sol = solver.optimize(lambda, ws);
    }
    BLADE_OBS_TIMER("optimizer.bench.sweep64_seconds");
    for (std::size_t i = 0; i < queues.size(); ++i) {
      benchmark::DoNotOptimize(queues[i].lagrange_marginal_with_derivative(sol.rates[i]));
    }
  }
}
BENCHMARK(BM_WarmReSolveChurn)->Arg(0)->Arg(1);

}  // namespace
