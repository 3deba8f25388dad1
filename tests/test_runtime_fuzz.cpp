// Randomized controller battery: hundreds of seeded failure / recovery /
// load-swing sequences against small random clusters, with structural
// invariants checked after every event and a reconvergence check at the
// end of each sequence, a per-re-solve closure battery (every warm
// re-solve, failovers and health-driven ones included, against a cold
// solve of its instance), plus the dispatch-policy churn corpus (every
// policy kind through drain / outage / recovery windows). Runs in every
// sanitizer tier (labels: fast, chaos, policy).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/sharded.hpp"
#include "model/cluster.hpp"
#include "parallel/thread_pool.hpp"
#include "policy/policy.hpp"
#include "runtime/controller.hpp"
#include "sim/rng.hpp"

namespace {

using namespace blade;

struct Harness {
  model::Cluster cluster;
  runtime::Controller ctrl;
  std::vector<unsigned> avail;  // mirror of the expected blade counts
  double t = 0.0;
  double lambda;  // current offered-rate regime

  Harness(model::Cluster c, runtime::ControllerConfig cfg, double lam)
      : cluster(c), ctrl(std::move(c), cfg), avail(cluster.size()), lambda(lam) {
    for (std::size_t i = 0; i < cluster.size(); ++i) avail[i] = cluster.server(i).size();
  }
};

/// Every invariant that must hold whatever the event history was.
void check_invariants(const Harness& h, std::uint64_t seed, int step) {
  const double shed = h.ctrl.shed_probability();
  ASSERT_TRUE(std::isfinite(shed)) << "seed " << seed << " step " << step;
  ASSERT_GE(shed, 0.0) << "seed " << seed << " step " << step;
  ASSERT_LE(shed, 1.0) << "seed " << seed << " step " << step;

  const double sf = h.ctrl.stats().shed_fraction();
  ASSERT_GE(sf, 0.0) << "seed " << seed << " step " << step;
  ASSERT_LE(sf, 1.0) << "seed " << seed << " step " << step;

  bool any_alive = false;
  for (std::size_t i = 0; i < h.avail.size(); ++i) {
    ASSERT_EQ(h.ctrl.available_blades(i), h.avail[i]) << "seed " << seed << " step " << step;
    if (h.avail[i] > 0) any_alive = true;
  }

  const auto f = h.ctrl.routing_fractions();
  if (!any_alive) {
    ASSERT_TRUE(f.empty()) << "seed " << seed << " step " << step;
    ASSERT_EQ(shed, 1.0) << "seed " << seed << " step " << step;
    return;
  }
  ASSERT_EQ(f.size(), h.avail.size()) << "seed " << seed << " step " << step;
  double sum = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_TRUE(std::isfinite(f[i])) << "seed " << seed << " step " << step << " i " << i;
    ASSERT_GE(f[i], 0.0) << "seed " << seed << " step " << step << " i " << i;
    if (h.avail[i] == 0) {
      ASSERT_EQ(f[i], 0.0) << "seed " << seed << " step " << step << " dead i " << i;
    }
    sum += f[i];
  }
  ASSERT_NEAR(sum, 1.0, 1e-9) << "seed " << seed << " step " << step;
}

/// Feeds `count` evenly spaced arrivals at the harness's current rate.
void feed_arrivals(Harness& h, sim::RngStream& rng, int count) {
  const double gap = 1.0 / h.lambda;
  for (int k = 0; k < count; ++k) h.ctrl.on_generic_arrival(h.t += gap, rng.uniform());
}

void run_sequence(std::uint64_t seed) {
  sim::RngStream rng(seed, 7);

  // A small random heterogeneous cluster: 2-4 servers, 1-4 blades each.
  const std::size_t n = 2 + rng.below(3);
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = 1 + static_cast<unsigned>(rng.below(4));
    speeds[i] = 0.5 + 1.5 * rng.uniform();
  }
  const double preload = 0.1 + 0.3 * rng.uniform();
  const auto cluster = model::make_cluster(sizes, speeds, 1.0, preload);
  const double lam_max = cluster.max_generic_rate();

  runtime::ControllerConfig cfg;
  cfg.half_life = 32.0 / lam_max;  // ~32 arrivals of memory at full load
  cfg.check_interval = 4;
  cfg.min_arrivals = 8;
  cfg.initial_lambda = 0.5 * lam_max;
  Harness h(cluster, cfg, (0.3 + 0.5 * rng.uniform()) * 0.95 * lam_max);
  check_invariants(h, seed, -1);

  const int events = 20;
  for (int step = 0; step < events; ++step) {
    const std::uint64_t kind = rng.below(4);
    if (kind == 0) {
      // Load swing, possibly beyond the ceiling (admission territory).
      h.lambda = (0.2 + 0.9 * rng.uniform()) * lam_max;
    } else if (kind == 1) {
      const std::size_t i = rng.below(n);
      const unsigned blades = static_cast<unsigned>(rng.below(sizes[i] + 1));  // 0 = all
      h.ctrl.on_failure(h.t += 1e-3, i, blades);
      const unsigned lost = blades == 0 ? h.avail[i] : std::min(h.avail[i], blades);
      h.avail[i] -= lost;
    } else if (kind == 2) {
      const std::size_t i = rng.below(n);
      const unsigned blades = static_cast<unsigned>(rng.below(sizes[i] + 1));
      h.ctrl.on_recovery(h.t += 1e-3, i, blades);
      const unsigned missing = sizes[i] - h.avail[i];
      h.avail[i] += blades == 0 ? missing : std::min(missing, blades);
    } else {
      h.ctrl.on_special_arrival(h.t += 1e-3, rng.below(n));
    }
    feed_arrivals(h, rng, 64);
    check_invariants(h, seed, step);
  }

  // Reconverge: restore the full topology, settle on a feasible rate, and
  // run the estimators for ~8 half-lives of stationary traffic.
  for (std::size_t i = 0; i < n; ++i) {
    if (h.avail[i] < sizes[i]) {
      h.ctrl.on_recovery(h.t += 1e-3, i);
      h.avail[i] = sizes[i];
    }
  }
  h.lambda = 0.5 * lam_max;
  const int settle = static_cast<int>(std::ceil(8.0 * cfg.half_life * h.lambda)) + 64;
  feed_arrivals(h, rng, settle);
  h.ctrl.resolve_now(h.t);
  check_invariants(h, seed, events);

  // Nothing sheds at half load, and the estimate has re-locked.
  ASSERT_EQ(h.ctrl.shed_probability(), 0.0) << "seed " << seed;
  ASSERT_NEAR(h.ctrl.last_solved_lambda(), h.lambda, 0.05 * h.lambda) << "seed " << seed;

  // The published split must be the static optimum for exactly the
  // inputs the last solve consumed: its lambda-hat and its (possibly
  // estimator-fed, ceiling-clamped) special rates. Rebuild that instance
  // and solve it independently.
  std::vector<model::BladeServer> eff;
  for (std::size_t i = 0; i < n; ++i) {
    const double cap = sizes[i] * speeds[i] / cluster.rbar();
    const double special = std::min(h.ctrl.estimated_special_rate(i, h.t),
                                    cfg.utilization_ceiling * cap);
    eff.emplace_back(sizes[i], speeds[i], special);
  }
  const auto sol = opt::LoadDistributionOptimizer(model::Cluster(std::move(eff), cluster.rbar()),
                                                  queue::Discipline::Fcfs)
                       .optimize(h.ctrl.last_solved_lambda());
  const auto f = h.ctrl.routing_fractions();
  ASSERT_EQ(f.size(), cluster.size()) << "seed " << seed;
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_NEAR(f[i], sol.rates[i] / h.ctrl.last_solved_lambda(), 1e-3) << "seed " << seed;
  }
}

TEST(RuntimeFuzz, RandomFailureRecoveryLoadSwingSequences) {
  // >= 200 sequences per the acceptance bar; each is ~20 events plus a
  // reconvergence tail, so the whole battery stays sanitizer-friendly.
  for (std::uint64_t seed = 1; seed <= 220; ++seed) run_sequence(seed);
}

/// The sharded variant of run_sequence: a fleet-scale cluster (n = 5000
/// blades in a dozen SKU blocks, so coalescing keeps the per-cell solves
/// cheap) driven through the controller with shard_cells = 8. Same
/// structural invariants per event, plus a closure check: the published
/// split must equal an independent sharded solve of the exact instance
/// the controller last consumed — and, every tenth seed, the flat paper
/// solver on the same instance (the nesting argument end to end).
void run_sharded_sequence(std::uint64_t seed) {
  sim::RngStream rng(seed, 11);

  const std::size_t n = 5000;
  const std::size_t skus = 12;
  std::vector<unsigned> sku_size(skus);
  std::vector<double> sku_speed(skus);
  for (std::size_t s = 0; s < skus; ++s) {
    sku_size[s] = 1 + static_cast<unsigned>(rng.below(6));
    sku_speed[s] = 0.5 + 2.0 * rng.uniform();
  }
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i * skus / n;  // contiguous SKU blocks
    sizes[i] = sku_size[s];
    speeds[i] = sku_speed[s];
  }
  const double preload = 0.1 + 0.2 * rng.uniform();
  const auto cluster = model::make_cluster(sizes, speeds, 1.0, preload);
  const double lam_max = cluster.max_generic_rate();

  runtime::ControllerConfig cfg;
  cfg.shard_cells = 8;
  cfg.half_life = 32.0 / lam_max;
  cfg.check_interval = 8;
  cfg.min_arrivals = 8;
  cfg.initial_lambda = 0.5 * lam_max;
  Harness h(cluster, cfg, (0.3 + 0.5 * rng.uniform()) * 0.95 * lam_max);
  check_invariants(h, seed, -1);

  const int events = 10;
  for (int step = 0; step < events; ++step) {
    const std::uint64_t kind = rng.below(4);
    if (kind == 0) {
      h.lambda = (0.2 + 0.9 * rng.uniform()) * lam_max;
    } else if (kind == 1) {
      const std::size_t i = rng.below(n);
      const unsigned blades = static_cast<unsigned>(rng.below(sizes[i] + 1));  // 0 = all
      h.ctrl.on_failure(h.t += 1e-3, i, blades);
      const unsigned lost = blades == 0 ? h.avail[i] : std::min(h.avail[i], blades);
      h.avail[i] -= lost;
    } else if (kind == 2) {
      const std::size_t i = rng.below(n);
      const unsigned blades = static_cast<unsigned>(rng.below(sizes[i] + 1));
      h.ctrl.on_recovery(h.t += 1e-3, i, blades);
      const unsigned missing = sizes[i] - h.avail[i];
      h.avail[i] += blades == 0 ? missing : std::min(missing, blades);
    } else {
      h.ctrl.on_special_arrival(h.t += 1e-3, rng.below(n));
    }
    feed_arrivals(h, rng, 32);
    check_invariants(h, seed, step);
  }

  // Reconverge on the full topology at half load.
  for (std::size_t i = 0; i < n; ++i) {
    if (h.avail[i] < sizes[i]) {
      h.ctrl.on_recovery(h.t += 1e-3, i);
      h.avail[i] = sizes[i];
    }
  }
  h.lambda = 0.5 * lam_max;
  const int settle = static_cast<int>(std::ceil(8.0 * cfg.half_life * h.lambda)) + 64;
  feed_arrivals(h, rng, settle);
  h.ctrl.resolve_now(h.t);
  check_invariants(h, seed, events);

  ASSERT_EQ(h.ctrl.shed_probability(), 0.0) << "seed " << seed;
  ASSERT_NEAR(h.ctrl.last_solved_lambda(), h.lambda, 0.05 * h.lambda) << "seed " << seed;

  // Closure: rebuild the instance the last solve consumed and solve it
  // independently through the sharded optimizer.
  std::vector<model::BladeServer> eff;
  eff.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cap = sizes[i] * speeds[i] / cluster.rbar();
    const double special = std::min(h.ctrl.estimated_special_rate(i, h.t),
                                    cfg.utilization_ceiling * cap);
    eff.emplace_back(sizes[i], speeds[i], special);
  }
  const model::Cluster eff_cluster(std::move(eff), cluster.rbar());
  const double lam_hat = h.ctrl.last_solved_lambda();
  opt::ShardOptions shard;
  shard.cells = cfg.shard_cells;
  const auto sharded =
      opt::ShardedOptimizer(eff_cluster, queue::Discipline::Fcfs, {}, shard).optimize(lam_hat);
  const auto f = h.ctrl.routing_fractions();
  ASSERT_EQ(f.size(), n) << "seed " << seed;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(f[i], sharded.dist.rates[i] / lam_hat, 1e-3) << "seed " << seed << " i " << i;
  }

  // Every tenth seed, close the loop against the flat paper solver too:
  // the published fleet-scale split is the same optimum the seed solver
  // would have produced, to the differential battery's tolerance.
  if (seed % 10 == 0) {
    const auto flat =
        opt::LoadDistributionOptimizer(eff_cluster, queue::Discipline::Fcfs).optimize(lam_hat);
    ASSERT_NEAR(sharded.dist.response_time, flat.response_time,
                1e-8 * std::max(1.0, std::abs(flat.response_time)))
        << "seed " << seed;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(f[i], flat.rates[i] / lam_hat, 1e-3) << "seed " << seed << " i " << i;
    }
  }
}

TEST(RuntimeFuzz, ShardedControllerSequencesAtFleetScale) {
  // ~60 sequences: enough to cover every event-kind interleaving at this
  // length while staying inside the sanitizer-tier time budget.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) run_sharded_sequence(seed);
}

// ---------------------------------------------------------------------------
// Per-re-solve closure: every re-solve starts warm from the previous
// split, failovers and health-driven re-solves included, so a warm start
// that went wrong after a topology change would publish a wrong split
// that a later re-solve then papers over. Instead of one closure per
// sequence, check every re-solve that publishes Mode::Optimal against an
// independent cold solve of the exact instance it consumed, in the
// controller's cells and pruning.

/// Re-solves checked, by what triggered them.
struct ClosureCounts {
  std::uint64_t drift = 0;
  std::uint64_t quarantine_drift = 0;  ///< drift with a quarantine shrinking the alive set
  std::uint64_t failover = 0;
  std::uint64_t recovery = 0;
  std::uint64_t probation = 0;
  std::uint64_t health_recovery = 0;
};

/// Rebuilds the instance the controller's last re-solve consumed (its
/// alive set and special rates, the blade counts and health speed factors
/// it saw, the admitted target, which a pruning solver caps at its kept
/// capacity) and compares the published split with a cold solve of it by
/// a solver of the controller's cells and pruning: T' to 1e-9 relative,
/// every fraction to 1e-7.
void expect_cold_optimum(const runtime::Controller& ctrl, const runtime::ControllerConfig& cfg,
                         const std::string& what) {
  const model::Cluster& cluster = ctrl.cluster();
  const auto& special = ctrl.last_solved_special_rates();
  std::vector<std::size_t> alive;
  std::vector<model::BladeServer> servers;
  double lambda_max = 0.0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (special[i] < 0.0) continue;
    alive.push_back(i);
    const unsigned blades = ctrl.available_blades(i);
    const double factor = ctrl.health_speed_factor(i);
    lambda_max += static_cast<double>(blades) * cluster.server(i).speed() * factor /
                      cluster.rbar() -
                  special[i];
    servers.emplace_back(blades, cluster.server(i).speed() * factor, special[i]);
  }
  const model::Cluster solved(std::move(servers), cluster.rbar());
  opt::ShardOptions shard;
  shard.cells = std::clamp<std::size_t>(cfg.shard_cells, 1, alive.size());
  shard.prune.top_k = cfg.prune_top_k;
  const opt::ShardedOptimizer reference(solved, cfg.discipline, cfg.solver, shard);
  // A pruned solve carries only what its kept servers can.
  const double capacity =
      reference.pruned_servers() > 0 ? reference.kept_capacity() : lambda_max;
  const double target =
      std::min(ctrl.last_solved_lambda(), cfg.utilization_ceiling * capacity);
  const auto cold = reference.optimize(target).dist;

  const auto f = ctrl.routing_fractions();
  ASSERT_EQ(f.size(), cluster.size()) << what;
  std::vector<double> published(alive.size());
  double on_alive = 0.0;
  for (std::size_t k = 0; k < alive.size(); ++k) {
    published[k] = f[alive[k]] * target;
    on_alive += f[alive[k]];
    ASSERT_NEAR(f[alive[k]], cold.rates[k] / target, 1e-7) << what << " server " << alive[k];
  }
  ASSERT_NEAR(on_alive, 1.0, 1e-12) << what << ": weight outside the solved alive set";
  const opt::ResponseTimeObjective obj(solved, cfg.discipline, target, cfg.solver.service_scv);
  ASSERT_NEAR(obj.value(published), cold.response_time, 1e-9 * cold.response_time) << what;
}

/// How a closure sequence's cluster is drawn and solved.
struct Layout {
  /// Servers of 2-3 types, interleaved, so the solver coalesces them into
  /// classes; otherwise every server is drawn on its own.
  bool catalog = false;
  std::size_t shard_cells = 0;
  std::size_t prune_top_k = 0;
};

void run_closure_sequence(std::uint64_t seed, ClosureCounts& counts, const Layout& layout) {
  sim::RngStream rng(seed, 13);

  // 3-6 servers (a catalog: 4-8 of 2-3 types), 1-4 blades each: big
  // enough that a quarantine leaves a real alive set behind, small enough
  // for every sanitizer tier.
  const std::size_t types = layout.catalog ? 2 + rng.below(2) : 0;
  const std::size_t n = layout.catalog ? 4 + rng.below(5) : 3 + rng.below(4);
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (layout.catalog && i >= types) {
      sizes[i] = sizes[i % types];
      speeds[i] = speeds[i % types];
      continue;
    }
    sizes[i] = 1 + static_cast<unsigned>(rng.below(4));
    speeds[i] = 0.5 + 1.5 * rng.uniform();
  }
  const double preload = 0.1 + 0.3 * rng.uniform();
  const auto cluster = model::make_cluster(sizes, speeds, 1.0, preload);
  const double lam_max = cluster.max_generic_rate();

  runtime::ControllerConfig cfg;
  cfg.shard_cells = layout.shard_cells;
  cfg.prune_top_k = layout.prune_top_k;
  cfg.half_life = 2.0;
  cfg.check_interval = 4;
  cfg.min_arrivals = 8;
  cfg.initial_lambda = 0.5 * lam_max;
  cfg.health.enabled = true;
  cfg.health.suspect_dwell = 1.0;
  cfg.health.quarantine_dwell = 3.0;
  cfg.health.probation_dwell = 2.0;
  Harness h(cluster, cfg, (0.3 + 0.5 * rng.uniform()) * lam_max);
  std::vector<bool> sick(n, false);  // dispatches that never complete

  // Runs one controller call; a re-solve that published Optimal must be
  // the cold optimum of what it consumed.
  auto observe = [&](auto&& call, std::uint64_t* bucket, const char* what) {
    const auto before = h.ctrl.stats();
    call();
    const auto& after = h.ctrl.stats();
    if (after.resolves == before.resolves || h.ctrl.mode() != runtime::Mode::Optimal) return;
    std::uint64_t* count = bucket;
    if (after.probations > before.probations) count = &counts.probation;
    if (after.health_recoveries > before.health_recoveries) count = &counts.health_recovery;
    if (count == &counts.drift) {
      for (std::size_t i = 0; i < n; ++i) {
        if (h.ctrl.health_state(i) == runtime::HealthState::Quarantined) {
          count = &counts.quarantine_drift;
        }
      }
    }
    if (count != nullptr) ++*count;
    expect_cold_optimum(h.ctrl, cfg,
                        std::string(what) + " seed " + std::to_string(seed) + " t " +
                            std::to_string(h.t));
  };

  // Ticks of 0.1: arrivals at the regime rate, then matched dispatch and
  // completion on the healthy alive servers and dispatch only on the sick.
  double next_arrival = 0.0;
  auto run_ticks = [&](int ticks) {
    for (int k = 0; k < ticks; ++k) {
      const double tick_end = h.t + 0.1;
      while (next_arrival < tick_end) {
        h.t = std::max(h.t, next_arrival);
        const double u = rng.uniform();
        observe([&] { h.ctrl.on_generic_arrival(h.t, u); }, &counts.drift, "drift");
        next_arrival = h.t + 1.0 / h.lambda;
      }
      h.t = tick_end;
      for (std::size_t i = 0; i < n; ++i) {
        if (h.avail[i] == 0) continue;
        observe([&] { h.ctrl.on_dispatch(h.t, i); }, nullptr, "health");
        if (!sick[i]) observe([&] { h.ctrl.on_completion(h.t, i); }, nullptr, "health");
      }
    }
  };

  for (int step = 0; step < 12; ++step) {
    const std::uint64_t kind = rng.below(5);
    const std::size_t i = rng.below(n);
    if (kind == 0) {
      h.lambda = (0.2 + 0.7 * rng.uniform()) * lam_max;
    } else if (kind == 1) {
      const unsigned blades = static_cast<unsigned>(rng.below(sizes[i] + 1));  // 0 = all
      observe([&] { h.ctrl.on_failure(h.t += 1e-3, i, blades); }, &counts.failover, "failure");
      h.avail[i] -= blades == 0 ? h.avail[i] : std::min(h.avail[i], blades);
      sick[i] = false;  // a hard failure resets the gray history
    } else if (kind == 2) {
      observe([&] { h.ctrl.on_recovery(h.t += 1e-3, i); }, &counts.recovery, "recovery");
      h.avail[i] = sizes[i];
      sick[i] = false;
    } else {
      sick[i] = kind == 3;  // a gray fault starts, or clears
    }
    run_ticks(40);
    check_invariants(h, seed, step);
  }
}

TEST(RuntimeFuzz, EveryReSolveIsTheColdOptimumOfItsInstance) {
  ClosureCounts counts;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) run_closure_sequence(seed, counts, {});
  // Every kind of warm re-solve the controller makes was exercised (at
  // the time of writing: 453 drift, 401 quarantine-shrunk drift, 94
  // failover, 93 recovery, 274 probation and 11 health-recovery checks).
  EXPECT_GT(counts.drift, 0u);
  EXPECT_GT(counts.quarantine_drift, 0u);
  EXPECT_GT(counts.failover, 0u);
  EXPECT_GT(counts.recovery, 0u);
  EXPECT_GT(counts.probation, 0u);
  EXPECT_GT(counts.health_recovery, 0u);

  // With health on, catalog clusters whose servers share classes, solved
  // in two cells, unpruned and pruned to each cell's top two servers.
  // At the time of writing, unpruned: 524 drift, 323 quarantine-shrunk
  // drift, 45 failover and 119 probation checks; pruned: 727, 378, 45, 119.
  for (const std::size_t prune : {std::size_t{0}, std::size_t{2}}) {
    ClosureCounts sharded;
    const Layout layout{.catalog = true, .shard_cells = 2, .prune_top_k = prune};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) run_closure_sequence(seed, sharded, layout);
    EXPECT_GT(sharded.drift, 0u) << "prune " << prune;
    EXPECT_GT(sharded.quarantine_drift, 0u) << "prune " << prune;
    EXPECT_GT(sharded.failover, 0u) << "prune " << prune;
    EXPECT_GT(sharded.probation, 0u) << "prune " << prune;
  }
}

// ---------------------------------------------------------------------------
// Dispatch-policy fuzz corpus: every policy kind driven through random
// failure / drain / recovery churn on small random fleets, with the
// availability contract and the probe-cost bound checked at EVERY
// arrival, and a reconvergence check (empirical routing fractions back
// within tolerance of the light-traffic closed form) after recovery.

policy::StateView fleet_view(const std::vector<policy::ServerState>& fleet) {
  return policy::StateView{&fleet,
                           [](const void* ctx, std::size_t i) {
                             return (*static_cast<const std::vector<policy::ServerState>*>(
                                 ctx))[i];
                           },
                           fleet.size()};
}

/// Routes one arrival and checks the per-arrival invariants: exactly one
/// task routed, destination in range and available whenever ANY server
/// is, and for the d-choices kinds at most min(d, n) probes charged.
void route_checked(policy::DispatchPolicy& p, std::vector<policy::ServerState>& fleet,
                   std::uint64_t seed, int step) {
  const auto before = p.counters();
  const std::size_t dest = p.route(fleet_view(fleet));
  const auto& after = p.counters();
  ASSERT_LT(dest, fleet.size()) << p.name() << " seed " << seed << " step " << step;
  ASSERT_EQ(after.routed, before.routed + 1) << p.name() << " seed " << seed;

  bool any_alive = false;
  for (const auto& s : fleet) any_alive = any_alive || s.available > 0;
  if (any_alive) {
    ASSERT_GT(fleet[dest].available, 0u)
        << p.name() << " seed " << seed << " step " << step << " routed to dark server "
        << dest;
  }
  const auto kind = p.config().kind;
  if (policy::probes_queue_state(kind) && kind != policy::PolicyKind::Jsq) {
    const std::uint64_t bound =
        std::min<std::uint64_t>(p.config().probe_d, fleet.size());
    ASSERT_LE(after.probes - before.probes, bound)
        << p.name() << " seed " << seed << " step " << step;
  }
  fleet[dest].in_system += 1;
}

void run_policy_sequence(std::uint64_t seed, policy::PolicyKind kind) {
  sim::RngStream rng(seed, 13);

  const std::size_t n = 2 + rng.below(4);  // 2-5 servers
  std::vector<policy::ServerState> fleet(n);
  policy::PolicyConfig cfg;
  cfg.kind = kind;
  cfg.probe_d = 2;
  cfg.seed = seed;
  cfg.stream = 29;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned blades = 1 + static_cast<unsigned>(rng.below(4));
    fleet[i] = {0.5 + 1.5 * rng.uniform(), blades, blades, 0};
    if (kind == policy::PolicyKind::SpeedBiasedD) cfg.speeds.push_back(fleet[i].speed);
    if (policy::needs_weights(kind)) cfg.weights.push_back(0.2 + rng.uniform());
  }
  ASSERT_TRUE(cfg.validate(n).ok()) << policy::to_string(kind) << " seed " << seed;
  policy::DispatchPolicy p(cfg, n);

  // Pre-churn: healthy fleet, queues build and drain.
  for (int k = 0; k < 40; ++k) {
    route_checked(p, fleet, seed, k);
    if (k % 2 == 1) {
      const std::size_t i = rng.below(n);
      if (fleet[i].in_system > 0) fleet[i].in_system -= 1;
    }
  }

  // Churn: interleave arrivals with random drains / full failures /
  // partial recoveries. The availability contract must hold through
  // every intermediate topology, including an all-dark fleet.
  for (int k = 0; k < 120; ++k) {
    const std::uint64_t ev = rng.below(6);
    const std::size_t i = rng.below(n);
    if (ev == 0) {
      fleet[i].available = 0;  // full outage
    } else if (ev == 1) {
      fleet[i].available = static_cast<unsigned>(rng.below(fleet[i].blades + 1));
    } else if (ev == 2) {
      fleet[i].available = fleet[i].blades;  // recovery
    } else if (ev == 3 && fleet[i].in_system > 0) {
      fleet[i].in_system -= 1;  // departure
    }
    route_checked(p, fleet, seed, 1000 + k);
  }

  // Recovery + reconvergence: restore every server, drain all queues,
  // and check the empirical split against the light-traffic oracle. The
  // 0.12 absolute tolerance covers 3000-draw noise on fractions up to
  // ~0.9 with margin (3 s.e. < 0.03); what it actually guards is state
  // poisoning — a policy whose churn history biases later routing.
  for (auto& s : fleet) {
    s.available = s.blades;
    s.in_system = 0;
  }
  const int draws = 3000;
  std::vector<double> measured(n, 0.0);
  const auto frozen = fleet;  // light-traffic limit: queues pinned empty
  for (int k = 0; k < draws; ++k) measured[p.route(fleet_view(frozen))] += 1.0;
  const auto oracle = policy::light_traffic_fractions(cfg, frozen);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(measured[i] / draws, oracle[i], 0.12)
        << policy::to_string(kind) << " seed " << seed << " server " << i;
  }
}

TEST(RuntimeFuzz, PolicyChurnSequencesForEveryKind) {
  // 60 seeds x all 8 kinds; each sequence is 160 checked arrivals plus a
  // 3000-draw reconvergence tail, cheap enough for every sanitizer tier.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const policy::PolicyKind kind : policy::all_policy_kinds()) {
      run_policy_sequence(seed, kind);
    }
  }
}

}  // namespace
