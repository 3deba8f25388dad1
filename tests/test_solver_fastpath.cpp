// Unit tests for the solver hot path: the derivative-returning Erlang
// kernel, the analytic marginal derivative, the warm-bracketed Newton
// inner solve and its stop rule, the outer polish, the water-fill's
// carried sort order, workspace-threaded
// outer solves, warm-started re-solves
// (bad starting rates, far seeds, clear(), the evaluation-count gates on
// serve-churn's cluster, preload jumps, the fallback on an exception),
// and the batched
// optimize_many/optimize_chain layer (including the determinism
// contract: results never depend on the pool's thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "core/solver_core.hpp"
#include "model/paper_configs.hpp"
#include "numerics/erlang.hpp"
#include "parallel/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "support/generators.hpp"
#include "support/water_fill_oracle.hpp"

namespace {

using namespace blade;
using testsupport::Instance;
using testsupport::make_instance;
using testsupport::Regime;
using queue::Discipline;

// --- Erlang kernel -------------------------------------------------------

TEST(ErlangCDerivs, ValueMatchesErlangC) {
  for (unsigned m : {1u, 2u, 5u, 16u, 64u}) {
    for (double rho : {0.0, 0.05, 0.3, 0.7, 0.95, 0.999}) {
      const auto k = num::erlang_c_derivs(m, rho);
      EXPECT_NEAR(k.c, num::erlang_c(m, rho), 1e-13) << "m=" << m << " rho=" << rho;
      EXPECT_NEAR(k.dc, num::erlang_c_drho(m, rho), 1e-9 * (1.0 + std::abs(k.dc)))
          << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ErlangCDerivs, SecondDerivativeMatchesCentralDifference) {
  for (unsigned m : {1u, 2u, 4u, 12u, 48u}) {
    for (double rho : {0.1, 0.35, 0.6, 0.85, 0.97}) {
      const double h = 1e-5;
      const double fd =
          (num::erlang_c_drho(m, rho + h) - num::erlang_c_drho(m, rho - h)) / (2.0 * h);
      const auto k = num::erlang_c_derivs(m, rho);
      EXPECT_NEAR(k.d2c, fd, 1e-5 * (1.0 + std::abs(fd))) << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ErlangCDerivs, ZeroLoadLimits) {
  // C(m, rho) ~ rho^m near 0: C(1,.) has slope 1, C(2,.) curvature 4
  // (C = 2 rho^2 / (1 + rho) to leading order), higher m vanish.
  const auto k1 = num::erlang_c_derivs(1, 0.0);
  EXPECT_DOUBLE_EQ(k1.c, 0.0);
  EXPECT_DOUBLE_EQ(k1.dc, 1.0);
  const auto k2 = num::erlang_c_derivs(2, 0.0);
  EXPECT_DOUBLE_EQ(k2.dc, 0.0);
  EXPECT_NEAR(k2.d2c, 4.0, 1e-12);
  const auto k3 = num::erlang_c_derivs(3, 0.0);
  EXPECT_DOUBLE_EQ(k3.dc, 0.0);
  EXPECT_DOUBLE_EQ(k3.d2c, 0.0);
}

// --- marginal derivative -------------------------------------------------

TEST(MarginalDerivative, MatchesMarginalAndCentralDifference) {
  const auto cluster = model::paper_example_cluster();
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (double scv : {1.0, 2.5}) {
      const opt::ResponseTimeObjective obj(cluster, d, /*lambda_total=*/5.0, scv);
      for (std::size_t i = 0; i < obj.size(); ++i) {
        const double sup = obj.rate_bound(i);
        for (double frac : {0.05, 0.3, 0.6, 0.9}) {
          const double rate = frac * sup;
          const auto [g, dg] = obj.marginal_with_derivative(i, rate);
          EXPECT_NEAR(g, obj.marginal(i, rate), 1e-12 * (1.0 + std::abs(g)))
              << "i=" << i << " frac=" << frac;
          const double h = 1e-6 * sup;
          const double fd = (obj.marginal(i, rate + h) - obj.marginal(i, rate - h)) / (2.0 * h);
          EXPECT_NEAR(dg, fd, 1e-4 * (1.0 + std::abs(fd)))
              << "i=" << i << " frac=" << frac << " scv=" << scv
              << " d=" << queue::to_string(d);
          EXPECT_GT(dg, 0.0);  // T' convex in lambda'_i
        }
      }
    }
  }
}

// --- warm-bracketed inner solve ------------------------------------------

class FindRateBracketed : public ::testing::Test {
 protected:
  FindRateBracketed()
      : solver_(model::paper_example_cluster(), Discipline::Fcfs),
        obj_(model::paper_example_cluster(), Discipline::Fcfs, 5.0) {}

  opt::LoadDistributionOptimizer solver_;
  opt::ResponseTimeObjective obj_;
};

TEST_F(FindRateBracketed, MatchesColdSolveFromValidBracket) {
  const double phi = 1.5;
  for (std::size_t i = 0; i < obj_.size(); ++i) {
    const double cold = solver_.find_rate(obj_, i, phi);
    if (cold <= 0.0) continue;
    const double warm =
        solver_.find_rate_bracketed(obj_, i, phi, 0.5 * cold, std::min(2.0 * cold,
                                    obj_.rate_bound(i)));
    EXPECT_NEAR(warm, cold, 1e-9 * (1.0 + cold)) << "server " << i;
  }
}

TEST_F(FindRateBracketed, CollapsedBracketCostsZeroEvaluations) {
  const double phi = 1.5;
  const double cold = solver_.find_rate(obj_, 0, phi);
  ASSERT_GT(cold, 0.0);
  long evals = 0;
  const double eps = 1e-13;  // < rate_tolerance
  const double r = solver_.find_rate_bracketed(obj_, 0, phi, cold - eps, cold + eps, &evals);
  EXPECT_EQ(evals, 0);
  EXPECT_NEAR(r, cold, 1e-12);
}

TEST_F(FindRateBracketed, MonotoneInPhi) {
  double prev = 0.0;
  for (double phi : {0.8, 1.0, 1.4, 2.0, 3.5}) {
    const double r = solver_.find_rate(obj_, 0, phi);
    EXPECT_GE(r, prev - 1e-12) << "phi=" << phi;
    prev = r;
  }
}

TEST_F(FindRateBracketed, UndershootingWarmBoundRecovers) {
  // A stale upper bound below the true root must not be trusted: the
  // solve resumes the doubling expansion and still lands on the root.
  const double phi = 2.0;
  const double cold = solver_.find_rate(obj_, 0, phi);
  ASSERT_GT(cold, 0.0);
  const double warm = solver_.find_rate_bracketed(obj_, 0, phi, 0.0, 0.5 * cold);
  EXPECT_NEAR(warm, cold, 1e-9 * (1.0 + cold));
}

// --- stop rules -----------------------------------------------------------

// The inner Newton loop stops as soon as an evaluation's own Newton
// correction is within half the rate tolerance. Without that rule an
// evaluation landing within an ulp of the root cannot take its sub-ulp
// Newton step (it equals the bracket end that evaluation just set), so
// the loop bisected down to the tolerance: over this sweep the worst call
// took 39 evaluations and 418 of the 3,429 calls took more than 10.
// Multipliers around serve-churn's optimum (57% of lambda'_max), each
// root placed at 30/50/70% of a 1e-2, 1e-3 and 1e-4 wide bracket.
TEST(StopRule, BracketedInnerSolvesOnTheChurnClusterTakeAtMostEightEvaluations) {
  const auto cluster = testsupport::churn_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const double lambda = 0.57 * cluster.max_generic_rate();
  const double phi_opt = solver.optimize(lambda).phi;
  const opt::ResponseTimeObjective obj(cluster, Discipline::Fcfs, lambda);
  int calls = 0;
  for (const double scale : {0.9, 0.97, 0.99, 1.0, 1.01, 1.03, 1.1}) {
    const double phi = scale * phi_opt;
    for (std::size_t i = 0; i < obj.size(); ++i) {
      const double root = solver.find_rate(obj, i, phi);
      if (root <= 0.0) continue;  // inactive: one evaluation at the lower end
      for (const double width : {1e-2, 1e-3, 1e-4}) {
        for (const double at : {0.3, 0.5, 0.7}) {
          const double lo = root - at * width;
          long evals = 0;
          const double r = solver.find_rate_bracketed(obj, i, phi, lo, lo + width, &evals);
          const std::string what = "server " + std::to_string(i) + " phi x" +
                                   std::to_string(scale) + " width " + std::to_string(width) +
                                   " root at " + std::to_string(at);
          EXPECT_NEAR(r, root, 1e-9 * (1.0 + root)) << what;
          EXPECT_LE(evals, 8) << what;
          ++calls;
        }
      }
    }
  }
  EXPECT_GT(calls, 3000);
}

// refine_phi on F(phi) = phi with lambda' = 1, folding probes into the
// bracket the way the solvers' absorb does.
struct LinearRefine {
  opt::OptimizerOptions opts;
  opt::detail::PhiBracket br;
  int probes = 0;

  Expected<int> run() {
    std::optional<Error> err;
    auto total_at = [&](double phi) {
      ++probes;
      return phi;
    };
    auto absorb = [&](double phi, double total) {
      if (total < 1.0) {
        if (phi >= br.phi_lo) {
          br.phi_lo = phi;
          br.total_lo = total;
        }
      } else if (phi <= br.phi_hi) {
        br.phi_hi = phi;
        br.total_hi = total;
      }
    };
    return opt::detail::refine_phi(opts, 1.0, br, err, total_at, absorb);
  }

  void expect_closed(const std::string& what) const {
    EXPECT_LT(br.total_lo, 1.0) << what;
    EXPECT_GE(br.total_hi, 1.0) << what;
    EXPECT_EQ(br.total_lo, br.phi_lo) << what;  // each end keeps its own probe
    EXPECT_EQ(br.total_hi, br.phi_hi) << what;
    EXPECT_LE(br.phi_hi - br.phi_lo, opts.phi_tolerance) << what;
    EXPECT_LE(probes, 3) << what;
  }
};

// Brent's first secant step from [0.5, 2] lands exactly on the root, and
// an exact hit ends Brent with the bracket still 0.5 wide. The polish
// starts next to the end that hit; bisecting from the midpoint took 40
// probes in all.
TEST(StopRule, PolishAfterAnExactBrentHitTakesAtMostThreeProbes) {
  LinearRefine r;
  r.br = {.phi_lo = 0.5, .phi_hi = 2.0, .total_lo = 0.5, .total_hi = 2.0};
  const auto res = r.run();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res.value(), r.probes);
  r.expect_closed("secant hit");
}

// The bracketing probe already hit F = lambda', so Brent is skipped and
// the polish alone closes [0.5, 1] (39 probes by bisection).
TEST(StopRule, PolishAfterAnExactBracketingHitTakesAtMostThreeProbes) {
  LinearRefine r;
  r.br = {.phi_lo = 0.5, .phi_hi = 1.0, .total_lo = 0.5, .total_hi = 1.0};
  const auto res = r.run();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res.value(), r.probes);
  r.expect_closed("bracketing hit");
}

// --- the water-fill's carried sort order --------------------------------

/// Random water-fill entries: about one in seven idle, a third of the
/// idle ones with a g' the cap must raise (tiny, zero, infinite or NaN),
/// and one in five a copy of an earlier entry, a tied breakpoint at
/// another index.
void random_entries(opt::detail::NewtonState& s, std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  s.x.resize(n);
  s.weight.resize(n);
  s.g.resize(n);
  s.dg.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.weight[i] = static_cast<double>(1 + rng() % 4);
    s.x[i] = u(rng) < 0.15 && n > 1 ? 0.0 : 0.05 + 3.0 * u(rng);
    s.g[i] = 0.5 + 2.5 * u(rng);
    s.dg[i] = 0.2 + 4.0 * u(rng);
    if (s.x[i] == 0.0 && u(rng) < 0.35) {
      const double flat[] = {1e-12, 0.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
      s.dg[i] = flat[rng() % 4];
    }
    if (i > 0 && u(rng) < 0.2) {
      const std::size_t j = rng() % i;
      s.x[i] = s.x[j];
      s.g[i] = s.g[j];
      s.dg[i] = s.dg[j];
    }
  }
  s.x[0] = std::max(s.x[0], 0.5);  // at least one loaded entry
}

/// Nudges every entry by up to 1%, as successive Newton rounds and warm
/// solves do: the breakpoints' order barely changes.
void perturb_entries(opt::detail::NewtonState& s, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-0.01, 0.01);
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    s.x[i] *= 1.0 + u(rng);
    s.g[i] *= 1.0 + u(rng);
    if (std::isfinite(s.dg[i]) && s.dg[i] > 1e-6) s.dg[i] *= 1.0 + u(rng);
  }
}

double loaded_total(const opt::detail::NewtonState& s) {
  double total = 0.0;
  for (std::size_t i = 0; i < s.x.size(); ++i) total += s.weight[i] * s.x[i];
  return total;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One water-fill on `s` against the oracle on a copy of its inputs: the
/// same multiplier, active set, flattest entry, capped g', sorted pairs
/// and typed error, bit for bit, and stored slopes m_i/g'_i. After an
/// error s.keyed must still be a permutation of its entries.
void expect_water_fill_matches_oracle(opt::detail::NewtonState& s, double lambda_total,
                                      const std::string& what) {
  opt::detail::NewtonState o;
  o.x = s.x;
  o.weight = s.weight;
  o.g = s.g;
  o.dg = s.dg;
  const auto want = testsupport::water_fill_sorted_afresh(lambda_total, o);
  const auto got = opt::detail::water_fill(lambda_total, s);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) {
    EXPECT_EQ(got.error().code, want.error().code) << what;
    EXPECT_EQ(got.error().context, want.error().context) << what;
    std::vector<std::size_t> entries;
    for (const auto& [b, i] : s.keyed) entries.push_back(i);
    std::sort(entries.begin(), entries.end());
    std::vector<std::size_t> all(entries.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    EXPECT_EQ(entries, all) << what << ": s.keyed is no longer a permutation";
    return;
  }
  EXPECT_TRUE(same_bits(got.value().phi, want.value().phi)) << what;
  ASSERT_EQ(got.value().active, want.value().active) << what;
  EXPECT_EQ(got.value().flattest, want.value().flattest) << what;
  for (std::size_t k = 0; k < want.value().active; ++k) {
    ASSERT_EQ(s.order[k], o.order[k]) << what << " position " << k;
  }
  ASSERT_EQ(s.keyed.size(), o.keyed.size()) << what;
  for (std::size_t k = 0; k < o.keyed.size(); ++k) {
    ASSERT_EQ(s.keyed[k].second, o.keyed[k].second) << what << " position " << k;
    ASSERT_TRUE(same_bits(s.keyed[k].first, o.keyed[k].first)) << what << " position " << k;
  }
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    ASSERT_TRUE(same_bits(s.dg[i], o.dg[i])) << what << " entry " << i;
    ASSERT_TRUE(same_bits(s.slope[i], s.weight[i] / s.dg[i])) << what << " entry " << i;
  }
}

// Each water-fill sorts its breakpoints starting from the order the
// previous one left in the state, an insertion sort that hands over to
// std::sort past n ceil(log2 n) shifts or when the entry count changed.
// (b_i, i) is a total order, so every call must give the bits of the
// water-fill that sorts fresh pairs with std::sort: one state through
// perturbed calls at 1, 2, 7, 64 and 1,000 entries and back, with tied
// breakpoints and capped idle slopes, a reversed start order (past the
// budget), and both typed errors.
TEST(WaterFill, CarriedOrderIsStdSortsOrder) {
  std::mt19937_64 rng(2026);
  opt::detail::NewtonState s;
  int calls = 0;
  for (const std::size_t n : {1, 2, 7, 64, 1000, 64, 7, 2, 1}) {
    random_entries(s, n, rng);
    for (int step = 0; step < 6; ++step) {
      if (step > 0) perturb_entries(s, rng);
      const double lambda = loaded_total(s) * (step % 2 == 0 ? 1.003 : 0.997);
      expect_water_fill_matches_oracle(
          s, lambda, "n " + std::to_string(n) + " step " + std::to_string(step));
      ++calls;
    }
    if (n < 7) continue;

    // Reversed: breakpoints ascending in the index, then descending, so
    // the carried order is backwards. Its n (n - 1) / 2 shifts meet the
    // budget n ceil(log2 n) at 7 entries and exceed it at 64 and 1,000.
    for (const double sign : {1.0, -1.0}) {
      for (std::size_t i = 0; i < n; ++i) {
        s.x[i] = 1.0;
        s.dg[i] = 1.0;
        s.g[i] = 2.0 + sign * 1e-3 * static_cast<double>(i);
      }
      expect_water_fill_matches_oracle(s, 0.9 * loaded_total(s),
                                       "n " + std::to_string(n) + " reversed");
      ++calls;
    }

    // The typed errors leave the carried order a permutation, and the
    // calls after them still match.
    const double inf = std::numeric_limits<double>::infinity();
    perturb_entries(s, rng);
    const double g0 = s.g[n / 2];
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf}) {
      s.g[n / 2] = bad;
      expect_water_fill_matches_oracle(s, loaded_total(s), "n " + std::to_string(n) + " bad g");
    }
    s.g[n / 2] = g0;
    const double dg0 = s.dg[0];
    s.x[0] = 1.0;
    s.dg[0] = 0.0;
    expect_water_fill_matches_oracle(s, loaded_total(s), "n " + std::to_string(n) + " no slope");
    s.dg[0] = dg0;
    const std::vector<double> x = s.x;
    std::fill(s.x.begin(), s.x.end(), 0.0);
    expect_water_fill_matches_oracle(s, 1.0, "n " + std::to_string(n) + " nothing loaded");
    s.x = x;
    expect_water_fill_matches_oracle(s, loaded_total(s),
                                     "n " + std::to_string(n) + " after the errors");
    calls += 5;
  }
  EXPECT_EQ(calls, 9 * 6 + 5 * (2 + 5));
}

// --- workspace-threaded outer solves -------------------------------------

TEST(Workspace, ReusedWorkspaceMatchesFreshSolves) {
  for (auto [regime, d] : {std::pair{Regime::Random, Discipline::Fcfs},
                           std::pair{Regime::LargeServers, Discipline::SpecialPriority},
                           std::pair{Regime::NearSaturation, Discipline::Fcfs}}) {
    const Instance inst = make_instance(regime, 7, d);
    const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
    opt::SolverWorkspace ws;
    const double lambda_max = inst.cluster.max_generic_rate();
    for (double frac : {0.2, 0.4, 0.6, 0.8, 0.85}) {
      const double lambda = frac * lambda_max;
      const auto warm = solver.optimize(lambda, ws);
      const auto cold = solver.optimize(lambda);
      EXPECT_NEAR(warm.response_time, cold.response_time,
                  1e-9 * (1.0 + cold.response_time))
          << inst.name << " frac=" << frac;
      ASSERT_EQ(warm.rates.size(), cold.rates.size());
      for (std::size_t i = 0; i < cold.rates.size(); ++i) {
        EXPECT_NEAR(warm.rates[i], cold.rates[i], 1e-5 * (1.0 + cold.rates[i]))
            << inst.name << " frac=" << frac << " server " << i;
      }
    }
    EXPECT_GT(ws.seed_phi(), 0.0);
  }
}

TEST(Workspace, WarmSweepIsCheaperThanColdSweep) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const auto grid = par::linspace(3.0, 9.0, 24);
  long cold_evals = 0;
  long warm_evals = 0;
  opt::SolverWorkspace ws;
  for (double lambda : grid) {
    cold_evals += solver.optimize(lambda).inner_evaluations;
    warm_evals += solver.optimize(lambda, ws).inner_evaluations;
  }
  // The chain shares brackets and the phi seed; anything less than ~25%
  // cheaper would mean the warm start stopped working.
  EXPECT_LT(warm_evals, (3 * cold_evals) / 4)
      << "warm=" << warm_evals << " cold=" << cold_evals;
}

TEST(Workspace, ClearDropsTheSeed) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  opt::SolverWorkspace ws;
  (void)solver.optimize(5.0, ws);
  ASSERT_GT(ws.seed_phi(), 0.0);
  ws.clear();
  EXPECT_LT(ws.seed_phi(), 0.0);
}

// --- warm-started re-solves ----------------------------------------------

/// The cold solve's answer to the solver tolerances: T' to 1e-9
/// relative, every rate to 1e-9 relative-plus-absolute.
void expect_matches_cold(const opt::LoadDistribution& warm, const opt::LoadDistribution& cold,
                         const std::string& what) {
  EXPECT_NEAR(warm.response_time, cold.response_time, 1e-9 * cold.response_time) << what;
  ASSERT_EQ(warm.rates.size(), cold.rates.size()) << what;
  for (std::size_t i = 0; i < cold.rates.size(); ++i) {
    EXPECT_NEAR(warm.rates[i], cold.rates[i], 1e-9 * (1.0 + cold.rates[i]))
        << what << " server " << i;
  }
}

void expect_bitwise(const opt::LoadDistribution& a, const opt::LoadDistribution& b,
                    const std::string& what) {
  EXPECT_EQ(a.phi, b.phi) << what;
  EXPECT_EQ(a.response_time, b.response_time) << what;
  EXPECT_EQ(a.outer_iterations, b.outer_iterations) << what;
  EXPECT_EQ(a.inner_evaluations, b.inner_evaluations) << what;
  ASSERT_EQ(a.rates.size(), b.rates.size()) << what;
  for (std::size_t i = 0; i < a.rates.size(); ++i) {
    EXPECT_EQ(a.rates[i], b.rates[i]) << what << " server " << i;
  }
}

TEST(WarmStart, BadStartingRatesOnlyCostEvaluations) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [name, cluster] :
       {std::pair{"paper", model::paper_example_cluster()},
        std::pair{"churn", testsupport::churn_cluster()}}) {
    const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
    const std::size_t n = cluster.size();
    const double lambda_max = cluster.max_generic_rate();
    const opt::ResponseTimeObjective obj(cluster, Discipline::Fcfs, 0.5 * lambda_max);

    const auto heavy = solver.optimize(0.9 * lambda_max);

    std::vector<double> above(n);
    std::vector<double> mixed(n);
    for (std::size_t i = 0; i < n; ++i) {
      above[i] = 10.0 * obj.rate_bound(i);
      mixed[i] = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -1.0);
    }
    const std::vector<std::pair<std::string, std::vector<double>>> starts = {
        {"stale", heavy.rates},
        {"short", std::vector<double>(heavy.rates.begin(), heavy.rates.end() - 1)},
        {"long", std::vector<double>(n + 3, 1.0)},
        {"nan", std::vector<double>(n, nan)},
        {"mixed-non-finite", mixed},
        {"above-saturation", above},
        {"zeros", std::vector<double>(n, 0.0)},
    };
    for (const double frac : {0.05, 0.5, 0.85}) {
      const double lambda = frac * lambda_max;
      const auto cold = solver.optimize(lambda);
      for (const auto& [kind, start] : starts) {
        opt::SolverWorkspace ws;
        (void)solver.optimize(0.3 * lambda_max, ws);  // a previous solve: warm from here on
        ws.warm_start(start);
        const auto warm = solver.optimize(lambda, ws);
        expect_matches_cold(warm, cold, std::string(name) + " " + kind + " frac=" +
                                            std::to_string(frac));
      }
    }
  }

  // Every server starts loaded, though the light load idles the slowest:
  // their rates fall back to zero, up to the inner rate tolerance.
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const double lambda = 0.05 * cluster.max_generic_rate();
  const auto cold = solver.optimize(lambda);
  ASSERT_LT(cold.active_servers(), cluster.size());
  opt::SolverWorkspace ws;
  (void)solver.optimize(0.9 * cluster.max_generic_rate(), ws);
  const auto warm = solver.optimize(lambda, ws);
  expect_matches_cold(warm, cold, "now-inactive");
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cold.rates[i] == 0.0) {
      EXPECT_LE(warm.rates[i], 1e-12) << "server " << i;
    }
  }
}

TEST(WarmStart, FarSeedsSolveInBothDirections) {
  for (const auto& [name, cluster] :
       {std::pair{"paper", model::paper_example_cluster()},
        std::pair{"churn", testsupport::churn_cluster()}}) {
    const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
    const double lambda_max = cluster.max_generic_rate();
    opt::SolverWorkspace ws;
    // Far jumps up and down from light to near-saturation load ...
    for (const double frac : {0.02, 0.98, 0.02, 0.995, 0.3}) {
      const auto warm = solver.optimize(frac * lambda_max, ws);
      expect_matches_cold(warm, solver.optimize(frac * lambda_max),
                          std::string(name) + " jump frac=" + std::to_string(frac));
    }
    // ... and a descending sweep, where each seed sits above the root.
    for (double frac = 0.95; frac > 0.04; frac -= 0.05) {
      const auto warm = solver.optimize(frac * lambda_max, ws);
      expect_matches_cold(warm, solver.optimize(frac * lambda_max),
                          std::string(name) + " sweep frac=" + std::to_string(frac));
    }
  }
}

TEST(WarmStart, WarmSweepMatchesColdAcrossRegimes) {
  // The corpus regimes with well-conditioned rates; flat-marginal
  // (LargeServers) rates are pinned only to the T' tolerance elsewhere.
  for (const Regime r : {Regime::Random, Regime::NearSaturation, Regime::SingleBlade,
                         Regime::SpeedExtremes, Regime::SizeExtremes}) {
    for (const Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Instance inst = make_instance(r, seed, d);
        const opt::LoadDistributionOptimizer solver(inst.cluster, d);
        opt::SolverWorkspace ws;
        for (const double scale : {1.0, 1.01, 0.97, 0.6, 1.0}) {
          const double lambda = std::min(scale * inst.lambda, 0.999 * inst.cluster.max_generic_rate());
          const auto warm = solver.optimize(lambda, ws);
          const auto cold = solver.optimize(lambda);
          EXPECT_NEAR(warm.response_time, cold.response_time, 1e-9 * cold.response_time)
              << inst.name << " scale=" << scale;
          for (std::size_t i = 0; i < cold.rates.size(); ++i) {
            EXPECT_NEAR(warm.rates[i], cold.rates[i], 1e-6 * (1.0 + cold.rates[i]))
                << inst.name << " scale=" << scale << " server " << i;
          }
        }
      }
    }
  }
}

TEST(WarmStart, ClearLeavesAWorkspaceThatSolvesLikeAFreshOne) {
  for (const auto& cluster : {model::paper_example_cluster(), testsupport::churn_cluster()}) {
    const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
    const double lambda = 0.55 * cluster.max_generic_rate();
    opt::SolverWorkspace ws;
    for (const double frac : {0.3, 0.7, 0.71}) (void)solver.optimize(frac * cluster.max_generic_rate(), ws);
    ws.clear();
    expect_bitwise(solver.optimize(lambda, ws), solver.optimize(lambda), "after clear()");

    // Rates handed to a workspace with no previous solve are ignored.
    opt::SolverWorkspace fresh;
    fresh.warm_start(std::vector<double>(cluster.size(), 1.0));
    expect_bitwise(solver.optimize(lambda, fresh), solver.optimize(lambda), "warm_start() on fresh");
  }
}

// The counter gate behind CI's controller re-solve cost: on serve-churn's
// cluster a warm re-solve after a 1% lambda' step, and one after a server
// fails (started from the last split mapped onto the survivors, as the
// controller does), each cost at most 60% of a cold solve's marginal
// evaluations, and at most 10 per server. At 60% load: 384 vs 4,693 for
// the step and 567 vs 4,969 for the failure. The per-server bound catches
// a warm search that converges an inner solve at every outer probe, which
// takes 670 to 1,133 on these six re-solves.
TEST(WarmStart, ChurnClusterReSolvesCostAtMostSixtyPercentOfCold) {
  const auto cluster = testsupport::churn_cluster();
  const std::size_t n = cluster.size();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  for (const double frac : {0.35, 0.6, 0.8}) {
    const double lambda = frac * cluster.max_generic_rate();
    opt::SolverWorkspace ws;
    (void)solver.optimize(lambda, ws);

    const auto step = solver.optimize(1.01 * lambda, ws);
    const auto step_cold = solver.optimize(1.01 * lambda);
    expect_matches_cold(step, step_cold, "1% step frac=" + std::to_string(frac));
    EXPECT_LE(step.inner_evaluations, (6 * step_cold.inner_evaluations) / 10)
        << "1% step frac=" << frac << " cold=" << step_cold.inner_evaluations;
    EXPECT_LE(step.inner_evaluations, static_cast<long>(10 * n)) << "1% step frac=" << frac;

    // The server carrying the most load fails.
    const std::size_t lost = static_cast<std::size_t>(
        std::max_element(step.rates.begin(), step.rates.end()) - step.rates.begin());
    std::vector<model::BladeServer> survivors;
    std::vector<double> start;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == lost) continue;
      survivors.push_back(cluster.server(i));
      start.push_back(step.rates[i]);
    }
    const opt::LoadDistributionOptimizer after(model::Cluster(survivors, cluster.rbar()),
                                               Discipline::Fcfs);
    const double lambda_after = std::min(1.01 * lambda, 0.95 * after.cluster().max_generic_rate());
    ws.warm_start(start);
    const auto failover = after.optimize(lambda_after, ws);
    const auto failover_cold = after.optimize(lambda_after);
    expect_matches_cold(failover, failover_cold, "failover frac=" + std::to_string(frac));
    EXPECT_LE(failover.inner_evaluations, (6 * failover_cold.inner_evaluations) / 10)
        << "failover frac=" << frac << " cold=" << failover_cold.inner_evaluations;
    EXPECT_LE(failover.inner_evaluations, static_cast<long>(10 * n)) << "failover frac=" << frac;
  }
}

/// `cluster` with server k's special preload raised until its generic
/// headroom is `headroom`.
model::Cluster with_headroom(const model::Cluster& cluster, std::size_t k, double headroom) {
  std::vector<model::BladeServer> servers = cluster.servers();
  const model::BladeServer& s = servers[k];
  servers[k] = model::BladeServer(s.size(), s.speed(), s.capacity(cluster.rbar()) - headroom);
  return model::Cluster(std::move(servers), cluster.rbar());
}

// A server's special stream jumps until its headroom is half the rate it
// carries, so a warm re-solve starts it past its new saturation guard, on
// the pole side of its new root. For each of the 56 servers the cold
// optimum at 60% load gives more than 1e-9, the warm re-solve after that
// jump matches cold within 12 evaluations per server: 399 on average and
// 649 at worst. The bound catches an iteration that crawls toward the
// pole from that side, and a warm search that converges an inner solve
// at every outer probe (972 on average, 1,417 at worst).
TEST(WarmStart, PreloadJumpReSolvesCostAtMostTwelveEvaluationsPerServer) {
  const auto cluster = testsupport::churn_cluster();
  const std::size_t n = cluster.size();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const double lambda = 0.6 * cluster.max_generic_rate();
  opt::SolverWorkspace seeded;
  const auto base = solver.optimize(lambda, seeded);
  std::size_t loaded = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (base.rates[k] <= 1e-9) continue;
    ++loaded;
    const opt::LoadDistributionOptimizer after(with_headroom(cluster, k, 0.5 * base.rates[k]),
                                               Discipline::Fcfs);
    opt::SolverWorkspace ws = seeded;
    const auto warm = after.optimize(lambda, ws);
    const std::string what = "server " + std::to_string(k);
    expect_matches_cold(warm, after.optimize(lambda), what);
    EXPECT_LE(warm.inner_evaluations, static_cast<long>(12 * n)) << what;
  }
  EXPECT_EQ(loaded, 56u);
}

// A warm start clamps each carried rate to its saturation guard, 1 - 1e-9
// of the server's generic capacity. At 60% load server 40 carries 6.2e-14;
// once its preload leaves it half that as headroom, the clamped rate sits
// within 1e-22 of capacity, its utilization rounds to 1 and the queueing
// layer throws. The cold search never evaluates there and succeeds, so
// the warm solve must fall back to it instead of failing with
// ErrorCode::Internal.
TEST(WarmStart, AnExceptionInTheWarmAttemptFallsBackToTheColdSearch) {
  const auto cluster = testsupport::churn_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const double lambda = 0.6 * cluster.max_generic_rate();
  opt::SolverWorkspace ws;
  const double carried = solver.optimize(lambda, ws).rates[40];
  ASSERT_GT(carried, 0.0);
  ASSERT_LT(carried, 1e-12);
  const opt::LoadDistributionOptimizer after(with_headroom(cluster, 40, 0.5 * carried),
                                             Discipline::Fcfs);
  const auto cold = after.try_optimize(lambda);
  ASSERT_TRUE(cold.has_value()) << cold.error().to_string();
  const auto warm = after.try_optimize(lambda, ws);
  ASSERT_TRUE(warm.has_value()) << warm.error().to_string();
  expect_matches_cold(warm.value(), cold.value(), "server 40");
}

// --- batched solves ------------------------------------------------------

TEST(OptimizeMany, MatchesSequentialOptimize) {
  const Instance inst = make_instance(Regime::SpeedExtremes, 3, Discipline::Fcfs);
  const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
  const auto grid =
      par::linspace(0.1 * inst.lambda, 0.9 * inst.cluster.max_generic_rate(), 33);
  par::ThreadPool pool(2);
  const auto batch = opt::optimize_many(solver, grid, pool);
  ASSERT_EQ(batch.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const auto solo = solver.optimize(grid[k]);
    EXPECT_NEAR(batch[k].response_time, solo.response_time,
                1e-9 * (1.0 + solo.response_time))
        << "k=" << k;
  }
}

TEST(OptimizeMany, ThreadCountInvariant) {
  const Instance inst = make_instance(Regime::Random, 5, Discipline::SpecialPriority);
  const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
  const auto grid =
      par::linspace(0.1 * inst.lambda, 0.9 * inst.cluster.max_generic_rate(), 40);
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const auto a = opt::optimize_many(solver, grid, one);
  const auto b = opt::optimize_many(solver, grid, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].response_time, b[k].response_time) << "k=" << k;  // bitwise
    ASSERT_EQ(a[k].rates.size(), b[k].rates.size());
    for (std::size_t i = 0; i < a[k].rates.size(); ++i) {
      EXPECT_EQ(a[k].rates[i], b[k].rates[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(OptimizeMany, ChainEqualsSingleChunkBatch) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const auto grid = par::linspace(2.0, 9.0, 17);
  const auto chained = opt::optimize_chain(solver, grid);
  par::ThreadPool pool(3);
  opt::BatchOptions opts;
  opts.chunk = grid.size();  // one chunk == one chain
  const auto batch = opt::optimize_many(solver, grid, pool, opts);
  ASSERT_EQ(chained.size(), batch.size());
  for (std::size_t k = 0; k < chained.size(); ++k) {
    EXPECT_EQ(chained[k].response_time, batch[k].response_time) << "k=" << k;
  }
}

TEST(OptimizeMany, HeterogeneousRequestsResolvePerSolver) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer fcfs(cluster, Discipline::Fcfs);
  const opt::LoadDistributionOptimizer prio(cluster, Discipline::SpecialPriority);
  std::vector<opt::SolveRequest> reqs;
  for (double lambda : {4.0, 5.0, 6.0}) reqs.push_back({&fcfs, lambda});
  for (double lambda : {4.0, 5.0, 6.0}) reqs.push_back({&prio, lambda});
  par::ThreadPool pool(2);
  const auto sols = opt::optimize_many(reqs, pool);
  ASSERT_EQ(sols.size(), reqs.size());
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    const auto solo = reqs[k].solver->optimize(reqs[k].lambda_total);
    EXPECT_NEAR(sols[k].response_time, solo.response_time, 1e-9 * (1.0 + solo.response_time))
        << "k=" << k;
  }
  // Priority waits dominate FCFS waits at equal lambda on this cluster.
  EXPECT_GT(sols[3].response_time, sols[0].response_time);
}

TEST(OptimizeMany, RejectsBadInput) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  par::ThreadPool pool(1);
  opt::BatchOptions bad;
  bad.chunk = 0;
  const std::vector<double> grid{4.0};
  EXPECT_THROW((void)opt::optimize_many(solver, grid, pool, bad), std::invalid_argument);
  const std::vector<opt::SolveRequest> null_req{{nullptr, 4.0}};
  EXPECT_THROW((void)opt::optimize_many(null_req, pool), std::invalid_argument);
  opt::BatchOptions short_hints;
  short_hints.cost_hints = {1.0, 2.0};  // batch has 1 item
  EXPECT_THROW((void)opt::optimize_many(solver, grid, pool, short_hints),
               std::invalid_argument);
}

// Cost hints regroup the warm-start chains but solve the same problems:
// per-item results match the hint-free batch to solver tolerance, and
// with hints fixed the batch stays bitwise thread-count invariant (the
// cut is a pure function of (size, chunk, hints)).
TEST(OptimizeMany, CostHintsPreserveResultsAndDeterminism) {
  const Instance inst = make_instance(Regime::Random, 7, Discipline::Fcfs);
  const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
  const auto grid =
      par::linspace(0.1 * inst.lambda, 0.9 * inst.cluster.max_generic_rate(), 40);
  opt::BatchOptions opts;
  opts.chunk = 8;
  opts.cost_hints.resize(grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    opts.cost_hints[k] = (k % 10 == 0) ? 20.0 : 1.0;
  }
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const auto a = opt::optimize_many(solver, grid, one, opts);
  const auto b = opt::optimize_many(solver, grid, four, opts);
  const auto plain = opt::optimize_many(solver, grid, four);
  ASSERT_EQ(a.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(a[k].response_time, b[k].response_time) << "k=" << k;  // bitwise
    EXPECT_NEAR(a[k].response_time, plain[k].response_time,
                1e-9 * (1.0 + plain[k].response_time))
        << "k=" << k;
  }
}

TEST(OptimizeMany, PropagatesSolveErrors) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  par::ThreadPool pool(2);
  std::vector<double> grid{4.0, 5.0, 1e9 /* infeasible */, 6.0};
  EXPECT_THROW((void)opt::optimize_many(solver, grid, pool), std::invalid_argument);
}

// --- for_each_chunk ------------------------------------------------------

TEST(ForEachChunk, CoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(103);
  par::for_each_chunk(pool, hits.size(), 16, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(hi, hits.size());
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ForEachChunk, RethrowsFirstException) {
  par::ThreadPool pool(2);
  EXPECT_THROW(par::for_each_chunk(pool, 50, 8,
                                   [&](std::size_t lo, std::size_t) {
                                     if (lo >= 16) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  EXPECT_THROW(par::for_each_chunk(pool, 5, 0, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

}  // namespace
