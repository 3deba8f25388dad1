// google-benchmark microbenchmarks of the numerical and simulation
// kernels underneath the optimizer: Erlang C (+ derivative), blade-queue
// marginals (one queue, and a 64-queue sweep), the future-event list
// alone, and raw DES event throughput.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/cluster.hpp"
#include "numerics/erlang.hpp"
#include "obs/obs.hpp"
#include "queueing/blade_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace blade;

void BM_ErlangC(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  double rho = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::erlang_c(m, rho));
    rho = 0.3 + 0.6 * (rho - 0.3 < 0.3 ? rho - 0.29 : 0.0);  // wiggle input
  }
}
BENCHMARK(BM_ErlangC)->Arg(2)->Arg(14)->Arg(128)->Arg(1024);

void BM_ErlangCDerivative(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::erlang_c_drho(m, 0.7));
  }
}
BENCHMARK(BM_ErlangCDerivative)->Arg(2)->Arg(14)->Arg(128)->Arg(1024);

void BM_LagrangeMarginal(benchmark::State& state) {
  const queue::BladeQueue q(14, 1.0, 4.2, queue::Discipline::SpecialPriority);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.lagrange_marginal(4.6));
  }
}
BENCHMARK(BM_LagrangeMarginal);

void BM_MarginalSweep64(benchmark::State& state) {
  // The Erlang-kernel stage of a re-solve round or a drift check: one
  // {G, dG} evaluation per queue over 64 queues at half their generic
  // capacity under a 20% preload. Arg 0 gives queue i serve-churn's
  // 1 + i % 8 blades; any other arg gives every queue that many.
  const auto blades = static_cast<unsigned>(state.range(0));
  std::vector<queue::BladeQueue> queues;
  std::vector<double> rates;
  for (unsigned i = 0; i < 64; ++i) {
    const unsigned m = blades > 0 ? blades : 1 + i % 8;
    const double xbar = 1.0 / (0.5 + 2.0 * (i + 0.5) / 64.0);
    queues.emplace_back(m, xbar, 0.2 * m / xbar, queue::Discipline::Fcfs);
    rates.push_back(0.5 * queues.back().max_generic_rate());
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < queues.size(); ++i) {
      benchmark::DoNotOptimize(queues[i].lagrange_marginal_with_derivative(rates[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(queues.size()));
}
BENCHMARK(BM_MarginalSweep64)->Arg(0)->Arg(32)->Arg(128);

void BM_EventQueueHold(benchmark::State& state) {
  // The hold model: with n events pending, each step pops the earliest
  // and re-pushes its callback at now + Exp(1), so n stays fixed. Time
  // per iteration is ns per event, one exponential draw included.
  const auto n = state.range(0);
  sim::EventQueue q;
  sim::RngStream rng(1, 0);
  for (std::int64_t i = 0; i < n; ++i) (void)q.push(rng.exponential(1.0), [] {});
  for (auto _ : state) {
    auto [now, fn] = q.pop();
    benchmark::DoNotOptimize(now);
    (void)q.push(now + rng.exponential(1.0), std::move(fn));
  }
}
BENCHMARK(BM_EventQueueHold)->Arg(130)->Arg(4000);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // Events per second for a loaded single server; horizon scaled to keep
  // each iteration ~10^5 events.
  const model::Cluster c({model::BladeServer(4, 1.0, 1.0)}, 1.0);
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.horizon = 12000.0;
    cfg.warmup = 0.0;
    cfg.seed = seed++;
    const auto res = sim::simulate_split(c, {2.0}, sim::SchedulingMode::Fcfs, cfg);
    events += res.events;
    benchmark::DoNotOptimize(res.generic_mean_response);
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorPriorityOverhead(benchmark::State& state) {
  const model::Cluster c({model::BladeServer(4, 1.0, 1.0)}, 1.0);
  const auto mode = state.range(0) == 0 ? sim::SchedulingMode::Fcfs
                                        : sim::SchedulingMode::NonPreemptivePriority;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.horizon = 6000.0;
    cfg.warmup = 0.0;
    cfg.seed = seed++;
    benchmark::DoNotOptimize(sim::simulate_split(c, {2.0}, mode, cfg));
  }
}
BENCHMARK(BM_SimulatorPriorityOverhead)->Arg(0)->Arg(1);

void BM_ObsMacroOverhead(benchmark::State& state) {
  // Guard for the zero-cost claim: with BLADE_OBS=OFF both macros expand
  // to ((void)0) and this measures an empty loop; with ON it prices one
  // counter bump plus one histogram sample (thread-local, lock-free).
  double x = 1.0;
  for (auto _ : state) {
    BLADE_OBS_COUNT("bench.obs_guard_count");
    BLADE_OBS_OBSERVE("bench.obs_guard_sample", x);
    benchmark::DoNotOptimize(x);
    x += 1.0;
  }
}
BENCHMARK(BM_ObsMacroOverhead);

}  // namespace
