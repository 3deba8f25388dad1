// Shard-vs-flat differential battery: the sharded hierarchical solver
// (core/sharded.hpp) must reproduce the flat paper solver's optimum —
// same global multiplier fixed point, so agreement is an exact
// mathematical claim, not an approximation contract. The corpus reuses
// the tests/support edge-regime generators (~100 instances per
// discipline) and certifies every sharded solution against the KKT
// oracle directly. On top of the corpus, the metamorphic layer pins the
// cell structure itself: n cells of size one are bitwise the one-cell
// solve, coalescing identical servers matches solving them apart, cell
// counts and server permutations don't move the optimum, prune-k sweeps
// have monotone T' with measured loss within the reported duality-gap
// bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/kkt.hpp"
#include "core/optimizer.hpp"
#include "core/sharded.hpp"
#include "model/cluster.hpp"
#include "numerics/special.hpp"
#include "support/generators.hpp"
#include "support/metamorphic.hpp"

namespace {

using namespace blade;
using namespace blade::testsupport;
using queue::Discipline;

constexpr std::uint64_t kSeedsPerRegime = 17;  // x 6 regimes = 102 per discipline

opt::ShardOptions cells_opt(std::size_t cells, std::size_t top_k = 0) {
  opt::ShardOptions s;
  s.cells = cells;
  s.prune.top_k = top_k;
  return s;
}

/// |a - b| <= abs + rel * max(|a|, |b|), the comparators' tolerance shape.
void expect_close(double a, double b, double rel, double abs, const std::string& what) {
  EXPECT_LE(std::abs(a - b), abs + rel * std::max(std::abs(a), std::abs(b))) << what;
}

/// A catalog fleet: n servers drawn from a handful of SKUs laid out in
/// contiguous blocks — the workload class coalescing is built for.
model::Cluster catalog_cluster(std::size_t n, std::size_t skus) {
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i * skus / n;
    sizes[i] = static_cast<unsigned>(1 + (s % 5));
    speeds[i] = 0.6 + 0.45 * static_cast<double>(s);
  }
  return model::make_cluster(sizes, speeds, 1.0, 0.2);
}

class ShardedCorpus : public ::testing::TestWithParam<std::tuple<Regime, Discipline>> {
 protected:
  Regime regime() const { return std::get<0>(GetParam()); }
  Discipline discipline() const { return std::get<1>(GetParam()); }
};

// Sharded (multi-cell) vs flat on every corpus instance: T' at 1e-8
// rel, rates with the same flat-optimum slack the cross-solver
// differential suite uses, and a direct KKT certification of the
// sharded assignment (feasibility + stationarity + complementarity).
TEST_P(ShardedCorpus, MatchesFlatOptimumAndKkt) {
  for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
    const Instance inst = make_instance(regime(), seed, discipline());
    const auto flat =
        opt::LoadDistributionOptimizer(inst.cluster, inst.discipline).optimize(inst.lambda);
    const opt::ShardedOptimizer sharded(inst.cluster, inst.discipline, {}, cells_opt(4));
    const auto sol = sharded.optimize(inst.lambda);

    EXPECT_LE(num::rel_diff(sol.dist.response_time, flat.response_time), 1e-8)
        << inst.name << ": sharded T'=" << sol.dist.response_time
        << " flat T'=" << flat.response_time;
    expect_close(sol.dist.total_rate(), inst.lambda, 1e-12, 0.0, inst.name + ": total rate");

    // Wide servers / extreme heterogeneity make the optimum flat in rate
    // space; near saturation first-order agreement degrades ~1/(1-rho).
    double rate_rel = 1e-6;
    double rate_abs = 1e-9;
    if (regime() == Regime::SizeExtremes || regime() == Regime::LargeServers) {
      rate_rel = 1e-2;
      rate_abs = 1e-5;
    }
    if (regime() == Regime::NearSaturation) {
      rate_rel = 5e-3;
      rate_abs = 1e-4;
    }
    ASSERT_EQ(sol.dist.rates.size(), flat.rates.size());
    for (std::size_t i = 0; i < flat.rates.size(); ++i) {
      expect_close(sol.dist.rates[i], flat.rates[i], rate_rel, rate_abs,
                   inst.name + ": rate " + std::to_string(i));
    }

    const double kkt_tol = regime() == Regime::NearSaturation ? 1e-2 : 1e-6;
    const auto kkt =
        opt::verify_kkt(inst.cluster, inst.discipline, inst.lambda, sol.dist.rates, kkt_tol);
    EXPECT_TRUE(kkt.optimal()) << inst.name << ": " << kkt.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ShardedCorpus,
    ::testing::Combine(::testing::ValuesIn(all_regimes()),
                       ::testing::Values(Discipline::Fcfs, Discipline::SpecialPriority)));

// ---------------------------------------------------------------------------
// Metamorphic battery for the cell layer.

void expect_bitwise(const opt::ShardedLoadDistribution& sol, const opt::LoadDistribution& one,
                    const std::string& what) {
  EXPECT_EQ(sol.dist.response_time, one.response_time) << what;
  EXPECT_EQ(sol.dist.phi, one.phi) << what;
  EXPECT_EQ(sol.dist.outer_iterations, one.outer_iterations) << what;
  EXPECT_EQ(sol.dist.inner_evaluations, one.inner_evaluations) << what;
  ASSERT_EQ(sol.dist.rates.size(), one.rates.size()) << what;
  for (std::size_t i = 0; i < one.rates.size(); ++i) {
    EXPECT_EQ(sol.dist.rates[i], one.rates[i]) << what << " rate " << i;
    EXPECT_EQ(sol.dist.utilizations[i], one.utilizations[i]) << what << " rho " << i;
    EXPECT_EQ(sol.dist.response_times[i], one.response_times[i]) << what << " T' " << i;
  }
}

// The other degenerate cut: n cells of size one. Per-cell Kahan totals
// of a single term are exact and the outer compensated sum visits cells
// in index order, so F(phi) — and with it every solver decision — is
// bitwise the one-cell evaluation (LoadDistributionOptimizer), although
// the cells run on the pool and check the budget between probes.
TEST(ShardedMetamorphic, SingletonCellsAreFlatBitwise) {
  for (const Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Instance inst = make_instance(Regime::Random, seed, d);
      const auto one =
          opt::LoadDistributionOptimizer(inst.cluster, inst.discipline).optimize(inst.lambda);
      const opt::ShardedOptimizer sharded(inst.cluster, inst.discipline, {},
                                          cells_opt(inst.cluster.size()));
      ASSERT_EQ(sharded.cell_count(), inst.cluster.size());
      expect_bitwise(sharded.optimize(inst.lambda), one, inst.name);
    }
  }
}

// Any cell count solves the same global fixed point; only compensated-
// summation grouping differs, so T' stays pinned far below the corpus
// tolerance.
TEST(ShardedMetamorphic, CellCountInvariance) {
  for (const Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Instance inst = make_instance(Regime::Random, seed, d);
      const auto flat =
          opt::LoadDistributionOptimizer(inst.cluster, inst.discipline).optimize(inst.lambda);
      for (const std::size_t cells : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                                      std::size_t{8}}) {
        const opt::ShardedOptimizer sharded(inst.cluster, inst.discipline, {},
                                            cells_opt(cells));
        const auto sol = sharded.optimize(inst.lambda);
        EXPECT_LE(num::rel_diff(sol.dist.response_time, flat.response_time), 1e-9)
            << inst.name << " cells=" << cells;
      }
    }
  }
}

// Permuting servers across cell boundaries permutes the rates and
// leaves T' unchanged (the objective is separable; cells are just an
// evaluation grouping).
TEST(ShardedMetamorphic, PermutationAcrossCells) {
  for (const Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Instance inst = make_instance(Regime::Random, seed, d);
      const std::size_t n = inst.cluster.size();
      const auto base =
          opt::ShardedOptimizer(inst.cluster, inst.discipline, {}, cells_opt(3))
              .optimize(inst.lambda);
      const auto perm = rotation(n, n / 3 + 1);
      const auto permuted_sol =
          opt::ShardedOptimizer(permuted(inst.cluster, perm), inst.discipline, {}, cells_opt(3))
              .optimize(inst.lambda);

      EXPECT_LE(num::rel_diff(permuted_sol.dist.response_time, base.dist.response_time), 1e-9)
          << inst.name;
      for (std::size_t i = 0; i < n; ++i) {
        // permuted server i is original server perm[i]
        expect_close(permuted_sol.dist.rates[i], base.dist.rates[perm[i]], 1e-6, 1e-9,
                     inst.name + ": permuted rate " + std::to_string(i));
      }
    }
  }
}

// Coalescing identical servers into classes is exact: a catalog fleet
// solves to the optimum of the same fleet with each duplicate's speed
// nudged one ulp past the previous copy's, where every class is a single
// server, while the coalesced solve works over far fewer classes.
TEST(ShardedMetamorphic, CoalescingIsExact) {
  const auto cluster = catalog_cluster(96, 8);
  std::vector<model::BladeServer> servers = cluster.servers();
  for (std::size_t i = 1; i < servers.size(); ++i) {
    if (!(cluster.server(i) == cluster.server(i - 1))) continue;
    const double speed =
        std::nextafter(servers[i - 1].speed(), std::numeric_limits<double>::infinity());
    servers[i] = model::BladeServer(servers[i].size(), speed, servers[i].special_rate());
  }
  const model::Cluster nudged(std::move(servers), cluster.rbar());
  const double lambda = 0.55 * cluster.max_generic_rate();
  for (const Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (const std::size_t cells : {std::size_t{1}, std::size_t{4}}) {
      const std::string what = "cells=" + std::to_string(cells);
      const opt::ShardedOptimizer coalesced(cluster, d, {}, cells_opt(cells));
      const opt::ShardedOptimizer singletons(nudged, d, {}, cells_opt(cells));
      EXPECT_GT(coalesced.coalesced_servers(), 0u) << what;
      EXPECT_LT(coalesced.server_classes(), cluster.size()) << what;
      EXPECT_EQ(singletons.server_classes(), cluster.size()) << what;

      const auto a = coalesced.optimize(lambda);
      const auto b = singletons.optimize(lambda);
      EXPECT_LE(num::rel_diff(a.dist.response_time, b.dist.response_time), 1e-9) << what;
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        expect_close(a.dist.rates[i], b.dist.rates[i], 1e-6, 1e-9,
                     what + " coalesce rate " + std::to_string(i));
      }
      // Identical servers of one cell receive identical load.
      for (std::size_t i = 1; i < cluster.size(); ++i) {
        if (cluster.server(i) == cluster.server(i - 1) &&
            cells * i / cluster.size() == cells * (i - 1) / cluster.size()) {
          EXPECT_EQ(a.dist.rates[i], a.dist.rates[i - 1]) << what << " class diverged at " << i;
        }
      }
    }
  }
}

// Prune-k sweep: larger k keeps a superset of servers (attraction
// ranking is lambda'-independent), so T' is monotone non-increasing in
// k, measured loss stays within the reported duality-gap bound, and an
// unpruned k reports a zero-ish bound. Infeasible k (kept capacity
// below lambda') must fail typed, not numerically.
TEST(ShardedMetamorphic, PruneSweepMonotoneWithinBound) {
  const auto cluster = catalog_cluster(96, 8);
  const double lambda = 0.55 * cluster.max_generic_rate();
  for (const Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    const auto flat = opt::LoadDistributionOptimizer(cluster, d).optimize(lambda);
    double prev = std::numeric_limits<double>::infinity();
    for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                                std::size_t{12}, std::size_t{16}, std::size_t{24}}) {
      const opt::ShardedOptimizer sharded(cluster, d, {}, cells_opt(4, k));
      if (lambda >= sharded.kept_capacity()) {
        const auto res = sharded.try_optimize(lambda);
        ASSERT_FALSE(res.has_value()) << "k=" << k;
        EXPECT_EQ(res.error().code, ErrorCode::Infeasible) << "k=" << k;
        continue;
      }
      const auto sol = sharded.optimize(lambda);
      const double loss = sol.dist.response_time - flat.response_time;
      EXPECT_GE(loss, -1e-9 * (1.0 + flat.response_time)) << "k=" << k;
      EXPECT_LE(loss, sol.prune_loss_bound) << "k=" << k;
      EXPECT_LE(sol.dist.response_time, prev + 1e-12 * (1.0 + std::abs(prev))) << "k=" << k;
      prev = sol.dist.response_time;
      if (k >= 24) {  // cell size: nothing pruned
        EXPECT_EQ(sol.pruned_servers, 0u);
        EXPECT_LE(num::rel_diff(sol.dist.response_time, flat.response_time), 1e-8);
      } else {
        EXPECT_GT(sol.pruned_servers, 0u) << "k=" << k;
        // The pruned assignment is exactly feasible and zero on pruned servers.
        expect_close(sol.dist.total_rate(), lambda, 1e-12, 0.0, "pruned total");
      }
    }
  }
}

// Workspace reuse (warm starts) must not move results beyond solver
// tolerance, and the cross-solve seed must be armed after a solve. Far
// jumps both ways and a descending sweep exercise every seeded-bracket
// direction; 1% steps must cost less than a cold solve; clear() restores
// the cold path bit for bit.
TEST(ShardedMetamorphic, WarmStartedWorkspaceMatchesCold) {
  const auto cluster = catalog_cluster(256, 12);
  const double lambda_max = cluster.max_generic_rate();
  const opt::ShardedOptimizer sharded(cluster, Discipline::Fcfs, {}, cells_opt(4));
  opt::ShardedWorkspace ws;
  EXPECT_LT(ws.seed_phi(), 0.0);
  (void)sharded.optimize(0.4 * lambda_max, ws);
  EXPECT_GT(ws.seed_phi(), 0.0);
  for (const double frac : {0.404, 0.02, 0.98, 0.9, 0.7, 0.5, 0.3, 0.1, 0.101}) {
    const auto warm = sharded.optimize(frac * lambda_max, ws);
    const auto cold = sharded.optimize(frac * lambda_max);
    const std::string what = "frac=" + std::to_string(frac);
    EXPECT_LE(num::rel_diff(warm.dist.response_time, cold.dist.response_time), 1e-9) << what;
    for (std::size_t i = 0; i < cold.dist.rates.size(); ++i) {
      expect_close(warm.dist.rates[i], cold.dist.rates[i], 1e-9, 1e-9,
                   what + " rate " + std::to_string(i));
    }
    if (frac == 0.404 || frac == 0.101) {
      EXPECT_LT(warm.dist.inner_evaluations, cold.dist.inner_evaluations) << what;
    }
  }
  ws.clear();
  EXPECT_LT(ws.seed_phi(), 0.0);
  const auto cleared = sharded.optimize(0.6 * lambda_max, ws);
  const auto fresh = sharded.optimize(0.6 * lambda_max);
  EXPECT_EQ(cleared.dist.phi, fresh.dist.phi);
  EXPECT_EQ(cleared.dist.inner_evaluations, fresh.dist.inner_evaluations);
  EXPECT_EQ(cleared.dist.rates, fresh.dist.rates);
}

// The error surface mirrors the flat solver's typed taxonomy.
TEST(ShardedMetamorphic, ErrorTaxonomy) {
  const auto cluster = catalog_cluster(32, 4);
  const opt::ShardedOptimizer sharded(cluster, Discipline::Fcfs, {}, cells_opt(4));
  EXPECT_THROW((void)sharded.optimize(0.0), std::invalid_argument);
  EXPECT_THROW((void)sharded.optimize(cluster.max_generic_rate()), std::invalid_argument);
  const auto bad = sharded.try_optimize(-1.0);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::InvalidArgument);
  const auto sat = sharded.try_optimize(2.0 * cluster.max_generic_rate());
  ASSERT_FALSE(sat.has_value());
  EXPECT_EQ(sat.error().code, ErrorCode::Infeasible);
}

}  // namespace
