// DP-by-discretization solver: an independent route to the optimum that
// never touches derivatives or KKT conditions. Must agree with the
// paper's bisection solver as the grid refines.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "support/discrete_dp.hpp"
#include "core/optimizer.hpp"
#include "model/paper_configs.hpp"

namespace {

using namespace blade;
using opt::dp_distribution;
using queue::Discipline;

TEST(DiscreteDp, MatchesBisectionOnPaperExample) {
  const auto c = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    const auto dp = dp_distribution(c, d, lambda, 3000);
    const auto bis = opt::LoadDistributionOptimizer(c, d).optimize(lambda);
    // T' is flat near the optimum, so the discrete value converges fast.
    EXPECT_NEAR(dp.response_time, bis.response_time, 2e-4 * bis.response_time)
        << queue::to_string(d);
    EXPECT_GE(dp.response_time, bis.response_time - 1e-9);  // bisection is the true min
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(dp.rates[i], bis.rates[i], 0.15) << "server " << i;
    }
  }
}

TEST(DiscreteDp, ConservesMass) {
  const auto c = model::paper_example_cluster();
  const auto dp = dp_distribution(c, Discipline::Fcfs, 23.52, 1000);
  const double total = std::accumulate(dp.rates.begin(), dp.rates.end(), 0.0);
  EXPECT_NEAR(total, 23.52, 1e-9);
  EXPECT_EQ(dp.units, 1000u);
}

TEST(DiscreteDp, RefinementImproves) {
  const auto c = model::paper_example_cluster();
  const double lambda = 23.52;
  const double coarse = dp_distribution(c, Discipline::Fcfs, lambda, 200).response_time;
  const double fine = dp_distribution(c, Discipline::Fcfs, lambda, 3000).response_time;
  const double best =
      opt::LoadDistributionOptimizer(c, Discipline::Fcfs).optimize(lambda).response_time;
  EXPECT_LE(fine, coarse + 1e-12);
  EXPECT_LT(fine - best, coarse - best + 1e-12);
}

TEST(DiscreteDp, LightLoadLeavesSlowServersEmpty) {
  const auto c = model::paper_example_cluster();
  const auto dp = dp_distribution(c, Discipline::Fcfs, 0.5, 500);
  // At lambda' = 0.5 only the fastest server should carry load (the
  // continuous optimizer agrees).
  EXPECT_GT(dp.rates[0], 0.0);
  EXPECT_DOUBLE_EQ(dp.rates[6], 0.0);
}

TEST(DiscreteDp, RespectsPerServerSaturation) {
  // Force a regime where one server must cap out: tiny cluster, high load.
  const model::Cluster c(
      {model::BladeServer(1, 1.0, 0.5), model::BladeServer(8, 1.0, 0.5)}, 1.0);
  const double lambda = 0.9 * c.max_generic_rate();
  const auto dp = dp_distribution(c, Discipline::Fcfs, lambda, 1000);
  EXPECT_LT(dp.rates[0], c.server(0).max_generic_rate(1.0));
  EXPECT_LT(dp.rates[1], c.server(1).max_generic_rate(1.0));
}

TEST(DiscreteDp, Validation) {
  const auto c = model::paper_example_cluster();
  EXPECT_THROW((void)dp_distribution(c, Discipline::Fcfs, 0.0, 100), std::invalid_argument);
  EXPECT_THROW((void)dp_distribution(c, Discipline::Fcfs, 100.0, 100), std::invalid_argument);
  EXPECT_THROW((void)dp_distribution(c, Discipline::Fcfs, 10.0, 1), std::invalid_argument);
}

}  // namespace
