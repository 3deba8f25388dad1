// Projected-gradient alternative solver: the simplex projection and
// agreement with the bisection optimizer on the paper instance.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "support/gradient_optimizer.hpp"
#include "core/optimizer.hpp"
#include "model/paper_configs.hpp"

namespace {

using namespace blade;
using opt::gradient_optimize;
using opt::project_capped_simplex;
using queue::Discipline;

TEST(Projection, AlreadyFeasiblePointIsFixed) {
  const std::vector<double> v{0.3, 0.3, 0.4};
  const std::vector<double> ub{1.0, 1.0, 1.0};
  const auto p = project_capped_simplex(v, ub, 1.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(p[i], v[i], 1e-10);
}

TEST(Projection, UniformExcessRemovedEqually) {
  const std::vector<double> v{1.0, 1.0, 1.0};
  const std::vector<double> ub{2.0, 2.0, 2.0};
  const auto p = project_capped_simplex(v, ub, 1.5);
  for (double x : p) EXPECT_NEAR(x, 0.5, 1e-9);
}

TEST(Projection, RespectsUpperBounds) {
  const std::vector<double> v{10.0, 0.0, 0.0};
  const std::vector<double> ub{1.0, 5.0, 5.0};
  const auto p = project_capped_simplex(v, ub, 3.0);
  EXPECT_NEAR(p[0], 1.0, 1e-9);
  EXPECT_NEAR(p[1] + p[2], 2.0, 1e-9);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_LE(p[i], ub[i] + 1e-12);
}

TEST(Projection, ClampsNegativesToZero) {
  const std::vector<double> v{-5.0, 2.0, 3.0};
  const std::vector<double> ub{10.0, 10.0, 10.0};
  const auto p = project_capped_simplex(v, ub, 4.0);
  EXPECT_NEAR(p[0], 0.0, 1e-9);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 4.0, 1e-9);
}

TEST(Projection, SumExactAfterResidualFix) {
  const std::vector<double> v{0.123, 4.567, 2.891, 0.001};
  const std::vector<double> ub{3.0, 3.0, 3.0, 3.0};
  const auto p = project_capped_simplex(v, ub, 6.0);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 6.0, 1e-12);
}

TEST(Projection, RejectsImpossibleTarget) {
  EXPECT_THROW((void)project_capped_simplex({1.0}, {0.5}, 2.0), std::invalid_argument);
  EXPECT_THROW((void)project_capped_simplex({1.0, 2.0}, {0.5}, 0.4), std::invalid_argument);
  EXPECT_THROW((void)project_capped_simplex({1.0}, {-0.5}, 0.1), std::invalid_argument);
}

TEST(Projection, IsIdempotent) {
  const std::vector<double> v{5.0, -1.0, 2.0};
  const std::vector<double> ub{2.0, 2.0, 2.0};
  const auto p1 = project_capped_simplex(v, ub, 3.5);
  const auto p2 = project_capped_simplex(p1, ub, 3.5);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(p1[i], p2[i], 1e-9);
}

TEST(GradientOptimizer, MatchesBisectionOnPaperCluster) {
  const auto c = model::paper_example_cluster();
  const double lambda = model::paper_example_lambda();
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    const auto gd = gradient_optimize(c, d, lambda);
    const auto bis = opt::LoadDistributionOptimizer(c, d).optimize(lambda);
    EXPECT_TRUE(gd.converged);
    EXPECT_NEAR(gd.distribution.response_time, bis.response_time, 1e-6);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(gd.distribution.rates[i], bis.rates[i], 5e-3) << "server " << i;
    }
  }
}

TEST(GradientOptimizer, FeasibleThroughoutLoadRange) {
  const auto c = model::paper_example_cluster();
  for (double frac : {0.2, 0.6, 0.9}) {
    const double lambda = frac * c.max_generic_rate();
    const auto gd = gradient_optimize(c, Discipline::Fcfs, lambda);
    double total = 0.0;
    for (std::size_t i = 0; i < gd.distribution.rates.size(); ++i) {
      EXPECT_GE(gd.distribution.rates[i], 0.0);
      EXPECT_LT(gd.distribution.utilizations[i], 1.0);
      total += gd.distribution.rates[i];
    }
    EXPECT_NEAR(total, lambda, 1e-6 * lambda);
  }
}

TEST(GradientOptimizer, IterationCapRespected) {
  const auto c = model::paper_example_cluster();
  opt::GradientOptions opts;
  opts.max_iterations = 3;
  const auto gd = gradient_optimize(c, Discipline::Fcfs, 20.0, opts);
  EXPECT_LE(gd.iterations, 3);
}

}  // namespace
