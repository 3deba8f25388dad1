// Differential and metamorphic checks for the runtime controller:
//
//   * a stationary Poisson replay must land on the static optimize()
//     split (the controller is a no-op at steady state);
//   * doubling every speed while halving every timescale must leave the
//     controller's decisions invariant (speed-scaling metamorphic);
//   * the reference failure trace (diurnal load, biggest server lost for
//     the middle third) must reconverge to each regime's static optimum
//     within five estimator half-lives and shed only while infeasible.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "model/paper_configs.hpp"
#include "runtime/controller.hpp"
#include "runtime/replay.hpp"

namespace {

using namespace blade;

double golden_u(std::uint64_t k) {
  return std::fmod(static_cast<double>(k) * 0.61803398874989485, 1.0);
}

TEST(RuntimeDifferential, StationaryPoissonReplayMatchesStaticOptimum) {
  const auto cluster = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();

  runtime::ReplayTrace trace;
  trace.horizon = 1200.0;
  trace.seed = 42;
  trace.events.push_back({.time = 0.0, .kind = runtime::ReplayEvent::Kind::Rate, .rate = lambda});

  runtime::ControllerConfig cfg;
  cfg.half_life = 100.0;  // EWMA rel. std. ~ sqrt(alpha / 2 lambda) ~ 1.2%
  const auto res = runtime::replay(cluster, cfg, trace);

  // Steady state at half the saturation rate: nothing is ever shed.
  EXPECT_EQ(res.stats.shed, 0u);
  EXPECT_EQ(res.final_shed_probability, 0.0);
  EXPECT_EQ(res.stats.failures, 0u);
  EXPECT_GT(res.stats.resolves, 0u);
  EXPECT_GT(res.stats.skipped_by_hysteresis, 0u);

  const auto sol = opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs)
                       .optimize(lambda);
  ASSERT_EQ(res.final_fractions.size(), cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_NEAR(res.final_fractions[i], sol.rates[i] / lambda, 0.03) << i;
  }

  // The split the controller converged to costs within 1% of the optimal
  // mean response time at the true rate (T' is flat near the optimum, so
  // this absorbs the estimator noise the fraction check tolerates).
  std::vector<double> rates(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) rates[i] = lambda * res.final_fractions[i];
  const opt::ResponseTimeObjective obj(cluster, queue::Discipline::Fcfs, lambda);
  EXPECT_LE(obj.value(rates), 1.01 * sol.response_time);

  // And the simulated generic response time agrees with the model at the
  // usual Monte-Carlo resolution (the replay ran ~28k generic tasks).
  EXPECT_NEAR(res.sim.generic_mean_response, sol.response_time, 0.15 * sol.response_time);
}

// Drives a controller with deterministic arrivals; all timing is derived
// from `scale` so the scaled run is the base run with c = 2 applied.
struct DriveResult {
  std::vector<std::vector<double>> fractions;  // per checkpoint
  std::vector<double> shed;                    // per checkpoint
  runtime::ControllerStats stats;
};

DriveResult drive(const model::Cluster& cluster, double half_life, double lambda, double scale) {
  runtime::ControllerConfig cfg;
  cfg.half_life = half_life / scale;
  cfg.check_interval = 8;
  cfg.min_arrivals = 8;
  runtime::Controller ctrl(cluster, cfg);

  DriveResult out;
  double t_base = 0.0;
  const double gap = 1.0 / lambda;  // base-time gap; scaled run divides by `scale`
  std::uint64_t k = 0;
  for (int block = 0; block < 8; ++block) {
    // Swing the load so re-solves and hysteresis skips both happen.
    const double mult = (block % 2 == 0) ? 1.0 : 0.6;
    for (int j = 0; j < 500; ++j) {
      t_base += gap / mult;
      ctrl.on_generic_arrival(t_base / scale, golden_u(++k));
    }
    ctrl.resolve_now(t_base / scale);
    out.fractions.push_back(ctrl.routing_fractions());
    out.shed.push_back(ctrl.shed_probability());
  }
  out.stats = ctrl.stats();
  return out;
}

TEST(RuntimeDifferential, MetamorphicSpeedScalingInvariance) {
  // Scaling every speed (and hence every special preload) by c while
  // compressing time by c changes nothing the controller can observe:
  // rates scale by c, capacities scale by c, all ratios are preserved.
  // With c = 2 the scaling is exact in floating point, so the decision
  // sequence (solves, skips, sheds) must match event for event.
  const std::vector<unsigned> sizes = {2, 3, 4};
  const std::vector<double> base_speeds = {1.0, 1.4, 0.8};
  std::vector<double> fast_speeds = base_speeds;
  for (double& s : fast_speeds) s *= 2.0;
  const auto base = model::make_cluster(sizes, base_speeds, 1.0, 0.25);
  const auto fast = model::make_cluster(sizes, fast_speeds, 1.0, 0.25);

  const double lambda = 0.6 * base.max_generic_rate();
  const auto a = drive(base, 8.0, lambda, 1.0);
  const auto b = drive(fast, 8.0, lambda, 2.0);

  // Identical decision counters: the two runs saw "the same" system.
  EXPECT_EQ(a.stats.resolves, b.stats.resolves);
  EXPECT_EQ(a.stats.skipped_by_hysteresis, b.stats.skipped_by_hysteresis);
  EXPECT_EQ(a.stats.admitted, b.stats.admitted);
  EXPECT_EQ(a.stats.shed, b.stats.shed);
  EXPECT_EQ(a.stats.publications, b.stats.publications);

  ASSERT_EQ(a.fractions.size(), b.fractions.size());
  for (std::size_t c = 0; c < a.fractions.size(); ++c) {
    EXPECT_EQ(a.shed[c], b.shed[c]) << "checkpoint " << c;
    ASSERT_EQ(a.fractions[c].size(), b.fractions[c].size());
    for (std::size_t i = 0; i < a.fractions[c].size(); ++i) {
      // The splits agree to solver tolerance (the optimum itself is
      // scale-invariant; only the iteration path can differ).
      EXPECT_NEAR(a.fractions[c][i], b.fractions[c][i], 1e-6)
          << "checkpoint " << c << " server " << i;
    }
  }
}

TEST(RuntimeDifferential, ReferenceTraceReconvergesWithinFiveHalfLives) {
  const auto cluster = model::paper_example_cluster();
  const std::size_t n = cluster.size();
  const double lam_max = cluster.max_generic_rate();
  const double rbar = cluster.rbar();

  // The reference_failure_trace scenario, driven directly so the
  // controller can be probed mid-flight: six 1000-unit rate epochs, the
  // biggest server (index 6) lost over the middle third.
  const double shape[] = {0.35, 0.55, 0.80, 0.80, 0.55, 0.35};
  const double segment = 1000.0;
  const std::size_t biggest = 6;
  ASSERT_GT(cluster.server(biggest).capacity(rbar), cluster.server(5).capacity(rbar));

  runtime::ControllerConfig cfg;
  cfg.half_life = 60.0;
  runtime::Controller ctrl(cluster, cfg);

  // Surviving-topology saturation rate and admission target during the
  // outage: the 0.80 peak exceeds the ceiling, the 0.55/0.35 epochs do not.
  const double cap_lost =
      cluster.server(biggest).capacity(rbar) - cluster.server(biggest).special_rate();
  const double lam_max_out = lam_max - cap_lost;
  const double target_out = cfg.utilization_ceiling * lam_max_out;
  ASSERT_LT(target_out, 0.80 * lam_max);  // peak is infeasible without the server
  ASSERT_GT(target_out, 0.55 * lam_max);  // shoulders stay feasible

  std::vector<model::BladeServer> surviving;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != biggest) surviving.push_back(cluster.server(i));
  }
  const model::Cluster out_cluster(surviving, rbar);

  double t = 0.0;
  std::uint64_t k = 0;
  std::uint64_t shed_before_outage = 0;
  std::uint64_t shed_after_outage = 0;
  const double probe_offset = 5.0 * cfg.half_life;

  for (int seg = 0; seg < 6; ++seg) {
    const double lambda = shape[seg] * lam_max;
    const double seg_start = segment * static_cast<double>(seg);
    const double seg_end = seg_start + segment;
    const bool outage = seg == 2 || seg == 3;
    if (seg == 2) {
      shed_before_outage = ctrl.stats().shed;
      ctrl.on_failure(seg_start, biggest);
    }
    if (seg == 4) {
      ctrl.on_recovery(seg_start, biggest);
      shed_after_outage = ctrl.stats().shed;
    }

    bool probed = false;
    const double gap = 1.0 / lambda;
    while (t + gap <= seg_end) {
      t += gap;
      ctrl.on_generic_arrival(t, golden_u(++k));
      if (!probed && t >= seg_start + probe_offset) {
        probed = true;
        ctrl.resolve_now(t);

        // Five half-lives into the regime: the estimate has re-locked.
        const double lam_hat = ctrl.last_solved_lambda();
        EXPECT_NEAR(lam_hat, lambda, 0.02 * lambda) << "segment " << seg;

        const auto f = ctrl.routing_fractions();
        ASSERT_EQ(f.size(), n) << "segment " << seg;
        const double shed = ctrl.shed_probability();

        if (outage) {
          EXPECT_EQ(f[biggest], 0.0) << "segment " << seg;
          // Admission sheds exactly down to the ceiling on the surviving
          // capacity (lam-hat noise moves the probability a little).
          EXPECT_NEAR(shed, 1.0 - target_out / lambda, 0.03) << "segment " << seg;
          // The admitted load is placed within 1% of the static optimum
          // for the surviving topology at the admission target.
          const auto sol = opt::LoadDistributionOptimizer(out_cluster, queue::Discipline::Fcfs)
                               .optimize(target_out);
          std::vector<double> rates(n);
          for (std::size_t i = 0; i < n; ++i) rates[i] = target_out * f[i];
          const opt::ResponseTimeObjective obj(cluster, queue::Discipline::Fcfs, target_out);
          EXPECT_LE(obj.value(rates), 1.01 * sol.response_time) << "segment " << seg;
        } else {
          EXPECT_EQ(shed, 0.0) << "segment " << seg;
          const auto sol = opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs)
                               .optimize(lambda);
          // The biggest (and slowest) server is back in rotation exactly
          // where the static optimum routes to it. At 35% load its empty
          // marginal g_6(0) sits ~1% above phi*, so the optimum gives it
          // nothing, up to a rounding crumb of the rate extraction.
          if (sol.rates[biggest] > 1e-6 * lambda) {
            EXPECT_GT(f[biggest], 0.0) << "segment " << seg;
          } else {
            EXPECT_LT(f[biggest], 1e-9) << "segment " << seg;
          }
          // Within 1% of the static optimum at the regime's true rate.
          std::vector<double> rates(n);
          for (std::size_t i = 0; i < n; ++i) rates[i] = lambda * f[i];
          const opt::ResponseTimeObjective obj(cluster, queue::Discipline::Fcfs, lambda);
          EXPECT_LE(obj.value(rates), 1.01 * sol.response_time) << "segment " << seg;
        }
      }
    }
    t = seg_end;
    EXPECT_TRUE(probed) << "segment " << seg;
  }

  // Shedding is confined to the outage: nothing before it, nothing after.
  EXPECT_EQ(shed_before_outage, 0u);
  EXPECT_GT(shed_after_outage, shed_before_outage);
  EXPECT_EQ(ctrl.stats().shed, shed_after_outage);
  EXPECT_EQ(ctrl.stats().failures, 1u);
  EXPECT_EQ(ctrl.stats().recoveries, 1u);
}

}  // namespace
