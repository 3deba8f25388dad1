// numerics module: special functions, root finders, differentiation,
// convexity checkers.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/convexity.hpp"
#include "numerics/differentiation.hpp"
#include "numerics/roots.hpp"
#include "numerics/special.hpp"

namespace {

using namespace blade::num;

TEST(LogFactorial, SmallValuesExact) {
  EXPECT_DOUBLE_EQ(log_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log_factorial(1), 0.0);
  EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(log_factorial(10), std::log(3628800.0), 1e-12);
}

TEST(LogFactorial, LargeValuesMatchLgamma) {
  for (unsigned k : {25u, 100u, 1000u}) {
    EXPECT_NEAR(log_factorial(k), std::lgamma(k + 1.0), 1e-9);
  }
}

TEST(PoissonPmf, SumsToOne) {
  const double a = 6.5;
  double total = 0.0;
  for (unsigned k = 0; k <= 200; ++k) total += poisson_pmf(k, a);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PoissonPmf, ZeroMean) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
}

TEST(PoissonCdf, MatchesDirectSummation) {
  const double a = 12.3;
  double acc = 0.0;
  for (unsigned K = 0; K <= 40; ++K) {
    acc += poisson_pmf(K, a);
    EXPECT_NEAR(poisson_cdf(K, a), acc, 1e-12) << "K=" << K;
  }
}

TEST(PoissonCdf, SurvivesHugeLoad) {
  // e^{-a} underflows (a > 745); the log-domain fallback must kick in.
  const double a = 900.0;
  const double at_mean = poisson_cdf(900, a);
  EXPECT_GT(at_mean, 0.4);
  EXPECT_LT(at_mean, 0.6);
  EXPECT_NEAR(poisson_cdf(2000, a), 1.0, 1e-9);
}

TEST(KahanSum, RecoversSmallTermsNextToLarge) {
  KahanSum s;
  s.add(1e16);
  for (int i = 0; i < 10000; ++i) s.add(1.0);
  s.add(-1e16);
  EXPECT_NEAR(s.value(), 10000.0, 1e-6);
}

TEST(KahanSum, SpanHelper) {
  const std::vector<double> xs{0.1, 0.2, 0.3};
  EXPECT_NEAR(ksum(xs), 0.6, 1e-15);
}

TEST(RelDiff, ScalesSensibly) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(100.0, 101.0), 1.0 / 101.0, 1e-12);
  EXPECT_NEAR(rel_diff(0.0, 0.5), 0.5, 1e-12);  // floors the scale at 1
}

// ---------------------------------------------------------------- roots

TEST(SolveIncreasing, FindsRootOfShiftedCube) {
  const auto res = solve_increasing([](double x) { return x * x * x; }, 27.0, 0.0, std::nullopt);
  EXPECT_NEAR(res.x, 3.0, 1e-9);
  EXPECT_FALSE(res.clamped_at_upper);
}

TEST(SolveIncreasing, ReturnsLowerWhenAlreadyAboveTarget) {
  const auto res = solve_increasing([](double x) { return x + 10.0; }, 5.0, 0.0, std::nullopt);
  EXPECT_DOUBLE_EQ(res.x, 0.0);
}

TEST(SolveIncreasing, ClampsAtSupremumWhenUnreachable) {
  // f diverges at 1 but the target is huge; with sup given, we must clamp.
  const auto f = [](double x) { return 1.0 / (1.0 - x); };
  const auto res = solve_increasing(f, 1e30, 0.0, 1.0);
  EXPECT_TRUE(res.clamped_at_upper);
  EXPECT_LT(res.x, 1.0);
  EXPECT_GT(res.x, 0.999);
}

TEST(SolveIncreasing, HandlesBarrierFunctions) {
  // The optimizer's marginals diverge at saturation; target below the pole.
  const auto f = [](double x) { return 1.0 / (1.0 - x); };
  const auto res = solve_increasing(f, 4.0, 0.0, 1.0);
  EXPECT_NEAR(res.x, 0.75, 1e-9);
}

// ------------------------------------------------- differentiation

TEST(Differentiation, CentralDifferenceOnPolynomial) {
  const auto f = [](double x) { return 3.0 * x * x + 2.0 * x + 1.0; };
  EXPECT_NEAR(central_difference(f, 2.0), 14.0, 1e-6);
}

TEST(Differentiation, RichardsonBeatsPlainCentral) {
  const auto f = [](double x) { return std::exp(x); };
  const double x = 1.0;
  const double exact = std::exp(1.0);
  const double h = 1e-3;
  const double plain_err = std::abs(central_difference(f, x, h) - exact);
  const double rich_err = std::abs(richardson_derivative(f, x, h) - exact);
  EXPECT_LT(rich_err, plain_err);
  EXPECT_NEAR(richardson_derivative(f, x), exact, 1e-8);
}

TEST(Differentiation, SecondDerivative) {
  const auto f = [](double x) { return x * x * x; };
  EXPECT_NEAR(second_derivative(f, 2.0), 12.0, 1e-4);
}

// ------------------------------------------------------ convexity

TEST(Convexity, DetectsConvexAndNonConvex) {
  EXPECT_TRUE(check_convex([](double x) { return x * x; }, -1.0, 1.0).holds);
  EXPECT_TRUE(check_convex([](double x) { return std::exp(x); }, -1.0, 2.0).holds);
  const auto rep = check_convex([](double x) { return std::sin(x); }, 0.0, 3.0);
  EXPECT_FALSE(rep.holds);
  EXPECT_LT(rep.worst_violation, 0.0);
}

TEST(Monotonicity, DetectsIncreasingAndNot) {
  EXPECT_TRUE(check_increasing([](double x) { return x * x * x; }, -2.0, 2.0).holds);
  EXPECT_FALSE(check_increasing([](double x) { return -x; }, 0.0, 1.0).holds);
}

TEST(ShapeChecks, ValidateArguments) {
  EXPECT_THROW((void)check_convex([](double x) { return x; }, 0.0, 1.0, 2),
               std::invalid_argument);
  EXPECT_THROW((void)check_increasing([](double x) { return x; }, 1.0, 0.0),
               std::invalid_argument);
}

}  // namespace
