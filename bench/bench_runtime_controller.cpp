// Runtime control-plane microbenchmarks: alias-table sampling (the
// per-task dispatch cost), warm re-solves through the controller's
// persistent workspace, the failover path (topology change, warm from
// the last split), and the end-to-end reference failure trace. Runs through
// bench_obs_main, so an instrumented build exports
// BENCH_bench_runtime_controller.json; CI ratios
// numerics.erlang_c_evals per runtime.resolves and runtime.shed_tasks
// per runtime.generic_arrivals against bench/baselines/ to catch
// control-loop regressions without trusting wall-clock.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/optimizer.hpp"
#include "model/paper_configs.hpp"
#include "runtime/controller.hpp"
#include "runtime/replay.hpp"
#include "sim/rng.hpp"
#include "util/alias_table.hpp"

namespace {

using namespace blade;

// O(1) routing draw from the published table: this is the cost every
// dispatched task pays, so it is the number that must not grow with n.
void BM_AliasSample(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();
  const auto sol =
      opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs).optimize(lambda);
  const util::AliasTable table(sol.rates);
  sim::RngStream rng(7, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng.uniform(), rng.uniform()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AliasSample);

// The steady-state control path: arrivals swing the EWMA between two
// rates and every block ends in a forced warm re-solve + publication.
void BM_ControllerResolve(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  runtime::ControllerConfig cfg;
  cfg.half_life = 2.0;
  cfg.initial_lambda = model::paper_example_lambda();
  runtime::Controller ctrl(cluster, cfg);
  double t = 0.0;
  bool high = false;
  for (auto _ : state) {
    const double lambda = high ? 30.0 : 20.0;
    high = !high;
    for (int k = 0; k < 32; ++k) ctrl.on_generic_arrival(t += 1.0 / lambda, 0.5);
    ctrl.resolve_now(t);
    benchmark::DoNotOptimize(ctrl.shed_probability());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ControllerResolve);

// Failover round-trip: a full-server loss and its recovery, each forcing
// a re-solve over a mutated topology, started warm from the last split
// mapped onto the new alive set, plus two publications.
void BM_ControllerFailover(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  runtime::ControllerConfig cfg;
  cfg.half_life = 2.0;
  cfg.initial_lambda = model::paper_example_lambda();
  runtime::Controller ctrl(cluster, cfg);
  double t = 0.0;
  std::size_t victim = 0;
  for (auto _ : state) {
    ctrl.on_failure(t += 1.0, victim);
    ctrl.on_recovery(t += 1.0, victim);
    victim = (victim + 1) % cluster.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_ControllerFailover);

// Containment path: every iteration arms an injected solver fault, so
// resolve_now lands in contain() and serves the last-known-good split.
// The instrumented export carries runtime.fallback_publish_seconds /
// runtime.fallback_publications, which CI ratios against the baseline --
// the degraded path must stay about as cheap as a publication, since it
// runs exactly when the cluster is already in trouble.
void BM_ControllerFallbackPublish(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  runtime::ControllerConfig cfg;
  cfg.half_life = 2.0;
  cfg.initial_lambda = model::paper_example_lambda();
  cfg.lkg_max_age = 1e9;  // keep the LKG servable for the whole run
  runtime::Controller ctrl(cluster, cfg);
  double t = 0.0;
  for (auto _ : state) {
    ctrl.arm_solver_fault();
    ctrl.resolve_now(t += 1.0);
    benchmark::DoNotOptimize(ctrl.mode());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ControllerFallbackPublish);

// End to end: the acceptance scenario (diurnal load, biggest server out
// for the middle third) through the simulator and the controller.
// items/s is simulated generic arrivals per second of wall time.
void BM_ReferenceTraceReplay(benchmark::State& state) {
  const auto cluster = model::paper_example_cluster();
  const auto trace = runtime::reference_failure_trace(cluster, 600.0);
  runtime::ControllerConfig cfg;
  cfg.half_life = 6.0;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    const auto res = runtime::replay(cluster, cfg, trace);
    arrivals += static_cast<std::int64_t>(res.stats.generic_arrivals);
    benchmark::DoNotOptimize(res.shed_fraction);
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ReferenceTraceReplay);

}  // namespace
