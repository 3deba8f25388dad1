// Fuzz-style property suites on randomly generated instances: for dozens
// of seeded clusters the optimizer's output must satisfy KKT, agree with
// the DP and gradient solvers, and (in the single-blade regime) with the
// closed forms -- four independent solution paths converging on every
// instance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/closed_form.hpp"
#include "support/discrete_dp.hpp"
#include "support/gradient_optimizer.hpp"
#include "core/kkt.hpp"
#include "core/optimizer.hpp"
#include "model/random_cluster.hpp"

namespace {

using namespace blade;
using queue::Discipline;

Discipline discipline_for(std::uint64_t seed) {
  return seed % 2 == 0 ? Discipline::Fcfs : Discipline::SpecialPriority;
}

class FuzzedInstance : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  model::Cluster cluster() const {
    model::RandomClusterSpec spec;
    spec.seed = GetParam();
    return model::random_cluster(spec);
  }
  double lambda(const model::Cluster& c) const {
    return model::random_feasible_rate(c, GetParam());
  }
};

TEST_P(FuzzedInstance, GeneratorProducesValidClusters) {
  const auto c = cluster();
  EXPECT_GE(c.size(), 2u);
  EXPECT_LE(c.size(), 10u);
  EXPECT_GT(c.max_generic_rate(), 0.0);
  for (const auto& s : c.servers()) {
    EXPECT_LT(s.special_utilization(c.rbar()), 0.61);
  }
  // Determinism.
  const auto again = cluster();
  ASSERT_EQ(again.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(again.server(i), c.server(i));
}

TEST_P(FuzzedInstance, OptimizerSatisfiesKkt) {
  const auto c = cluster();
  const double lam = lambda(c);
  const auto d = discipline_for(GetParam());
  const auto sol = opt::LoadDistributionOptimizer(c, d).optimize(lam);
  EXPECT_NEAR(sol.total_rate(), lam, 1e-8 * lam);
  const auto rep = opt::verify_kkt(c, d, lam, sol.rates, 1e-4);
  EXPECT_TRUE(rep.optimal()) << "seed=" << GetParam() << ": " << rep.detail;
}

TEST_P(FuzzedInstance, DpAgreesWithBisection) {
  const auto c = cluster();
  const double lam = lambda(c);
  const auto d = discipline_for(GetParam());
  const double bis = opt::LoadDistributionOptimizer(c, d).optimize(lam).response_time;
  const double dp = opt::dp_distribution(c, d, lam, 1500).response_time;
  // Either solver may edge out the other by its own tolerance; require
  // two-sided agreement rather than strict dominance.
  EXPECT_GE(dp, bis * (1.0 - 1e-6)) << "seed=" << GetParam();
  EXPECT_LT(dp / bis - 1.0, 2e-3) << "seed=" << GetParam();
}

TEST_P(FuzzedInstance, GradientAgreesWithBisection) {
  const auto c = cluster();
  const double lam = lambda(c);
  const auto d = discipline_for(GetParam());
  const double bis = opt::LoadDistributionOptimizer(c, d).optimize(lam).response_time;
  const auto gd = opt::gradient_optimize(c, d, lam);
  EXPECT_LT(gd.distribution.response_time / bis - 1.0, 1e-4) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzedInstance, ::testing::Range<std::uint64_t>(1, 41),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

class FuzzedSingleBlade : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzedSingleBlade, ClosedFormMatchesBisection) {
  model::RandomClusterSpec spec;
  spec.seed = GetParam() + 1000;
  spec.single_blade_only = true;
  const auto c = model::random_cluster(spec);
  const double lam = model::random_feasible_rate(c, spec.seed);
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    const auto cf = opt::closed_form_distribution(c, d, lam);
    const auto bis = opt::LoadDistributionOptimizer(c, d).optimize(lam);
    EXPECT_NEAR(cf.response_time, bis.response_time, 1e-6 * bis.response_time)
        << "seed=" << spec.seed << " d=" << queue::to_string(d);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(cf.rates[i], bis.rates[i], 1e-4 * std::max(1.0, bis.rates[i]))
          << "seed=" << spec.seed << " server " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzedSingleBlade, ::testing::Range<std::uint64_t>(1, 21),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

TEST(RandomClusterSpecValidation, RejectsBadRanges) {
  model::RandomClusterSpec s;
  s.min_servers = 0;
  EXPECT_THROW((void)model::random_cluster(s), std::invalid_argument);
  s = {};
  s.max_blades = 0;
  EXPECT_THROW((void)model::random_cluster(s), std::invalid_argument);
  s = {};
  s.max_preload = 1.0;
  EXPECT_THROW((void)model::random_cluster(s), std::invalid_argument);
  const auto c = model::random_cluster({});
  EXPECT_THROW((void)model::random_feasible_rate(c, 1, 0.5, 0.2), std::invalid_argument);
}

}  // namespace
