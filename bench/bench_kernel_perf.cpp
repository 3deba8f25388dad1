// google-benchmark microbenchmarks of the numerical and simulation
// kernels underneath the optimizer: Erlang C (+ derivative), blade-queue
// marginals (one queue, and a 64-queue sweep), the future-event list
// alone (the hold model, and static-split's event mix), and raw DES
// event throughput. Runs through bench_obs_main, so each run writes
// BENCH_bench_kernel_perf.json; CI ratios the event mix's wall timer
// (sim.bench.serve_mix_seconds) over the same count of exponential
// draws (sim.bench.draws_seconds) against the checked-in
// bench/baselines/ record.
#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "churn_cluster.hpp"
#include "core/optimizer.hpp"
#include "model/cluster.hpp"
#include "numerics/erlang.hpp"
#include "obs/obs.hpp"
#include "queueing/blade_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "util/alias_table.hpp"

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

/// static-split's event mix on a bare queue. serve-churn's cluster takes
/// one generic stream at 70% of its generic capacity, split by the
/// paper's optimum, and one special stream per server at 20% of that
/// server's capacity. Each arrival pushes its task's completion (mean
/// rbar/s_i), then its stream's next arrival; a completion pushes
/// nothing. Every task enters service at once, so as many completions
/// are pending as static-split keeps blades busy: about 275 events in
/// all, as there.
class ServeMix {
 public:
  explicit ServeMix(const model::Cluster& c) : service_mean_(c.mean_service_times()) {
    const double lambda = 0.7 * c.max_generic_rate();
    const auto split = opt::LoadDistributionOptimizer(c, queue::Discipline::Fcfs).optimize(lambda);
    // A fixed route sequence drawn from the split: routing is one load.
    const util::AliasTable alias(split.rates);
    for (auto& dest : route_) {
      const double u1 = rng_.uniform();
      dest = static_cast<std::uint8_t>(alias.sample(u1, rng_.uniform()));
    }
    generic_gap_ = 1.0 / lambda;
    next_generic();
    for (std::size_t i = 0; i < c.size(); ++i) {
      special_gap_.push_back(1.0 / c.server(i).special_rate());
      next_special(i);
    }
  }

  void run(std::size_t events) {
    for (std::size_t k = 0; k < events; ++k) {
      auto [t, fn] = q_.pop();
      now_ = t;
      fn();
    }
  }

  [[nodiscard]] std::size_t pending() const noexcept { return q_.size(); }

 private:
  void next_generic() {
    (void)q_.push(now_ + rng_.exponential(generic_gap_), [this] {
      complete(route_[routed_++ % route_.size()]);
      next_generic();
    });
  }
  void next_special(std::size_t i) {
    (void)q_.push(now_ + rng_.exponential(special_gap_[i]), [this, i] {
      complete(i);
      next_special(i);
    });
  }
  void complete(std::size_t i) { (void)q_.push(now_ + rng_.exponential(service_mean_[i]), [] {}); }

  sim::EventQueue q_;
  sim::RngStream rng_{1, 0};
  double now_ = 0.0;
  std::vector<double> service_mean_;
  double generic_gap_ = 0.0;
  std::vector<double> special_gap_;
  std::array<std::uint8_t, 4096> route_{};
  std::size_t routed_ = 0;
};

// Each iteration times 256 events of the mix under
// sim.bench.serve_mix_seconds, then as many exponential draws under
// sim.bench.draws_seconds, so the ratio of the two (CI's gate) does not
// depend on the host's speed.
void BM_EventQueueServeMix(benchmark::State& state) {
  constexpr std::size_t kEvents = 256;
  ServeMix mix(bench_common::churn_cluster());
  mix.run(std::size_t{1} << 16);  // past the start-up transient
  sim::RngStream draws(2, 0);
  double pending = 0.0;
  for (auto _ : state) {
    {
      BLADE_OBS_TIMER("sim.bench.serve_mix_seconds");
      mix.run(kEvents);
    }
    {
      BLADE_OBS_TIMER("sim.bench.draws_seconds");
      for (std::size_t k = 0; k < kEvents; ++k) benchmark::DoNotOptimize(draws.exponential(1.0));
    }
    pending += static_cast<double>(mix.pending());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEvents));
  state.counters["pending"] = benchmark::Counter(pending, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EventQueueServeMix);

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
