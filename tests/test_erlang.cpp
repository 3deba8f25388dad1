// Erlang B/C kernels: known values, stability at large m, agreement with
// the paper's textbook formulas, and analytic-vs-numeric derivatives.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "numerics/differentiation.hpp"
#include "numerics/erlang.hpp"
#include "numerics/special.hpp"

namespace {

using blade::num::erlang_b;
using blade::num::erlang_c;
using blade::num::erlang_c_derivs;
using blade::num::erlang_c_drho;
using blade::num::erlang_c_reference;
using blade::num::mmm_p0;
using blade::num::mmm_p0_drho;

TEST(ErlangB, SingleServerClosedForm) {
  // B(1, a) = a / (1 + a).
  for (double a : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(erlang_b(1, a), a / (1.0 + a), 1e-14);
  }
}

TEST(ErlangB, TwoServersClosedForm) {
  // B(2, a) = a^2 / (2 + 2a + a^2).
  for (double a : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(erlang_b(2, a), a * a / (2.0 + 2.0 * a + a * a), 1e-14);
  }
}

TEST(ErlangB, ZeroLoad) { EXPECT_DOUBLE_EQ(erlang_b(5, 0.0), 0.0); }

TEST(ErlangB, DecreasesWithServers) {
  const double a = 8.0;
  double prev = erlang_b(1, a);
  for (unsigned m = 2; m <= 40; ++m) {
    const double cur = erlang_b(m, a);
    EXPECT_LT(cur, prev) << "m=" << m;
    prev = cur;
  }
}

TEST(ErlangC, SingleServerEqualsRho) {
  // For M/M/1 the probability of queueing is rho.
  for (double rho : {0.05, 0.3, 0.6, 0.9, 0.99}) {
    EXPECT_NEAR(erlang_c(1, rho), rho, 1e-13);
  }
}

TEST(ErlangC, ZeroAtZeroLoad) {
  for (unsigned m : {1u, 2u, 8u, 64u}) {
    EXPECT_DOUBLE_EQ(erlang_c(m, 0.0), 0.0);
  }
}

TEST(ErlangC, BoundedByOne) {
  for (unsigned m : {1u, 2u, 5u, 14u, 100u}) {
    for (double rho : {0.1, 0.5, 0.9, 0.999}) {
      const double c = erlang_c(m, rho);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
    }
  }
}

TEST(ErlangC, MatchesReferenceImplementation) {
  for (unsigned m : {1u, 2u, 3u, 6u, 10u, 14u, 25u, 60u}) {
    for (double rho : {0.05, 0.2, 0.5, 0.75, 0.95}) {
      EXPECT_NEAR(erlang_c(m, rho), erlang_c_reference(m, rho), 1e-11)
          << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ErlangC, StableForVeryLargeM) {
  // The recurrence must survive sizes where factorials overflow.
  for (unsigned m : {500u, 2000u, 10000u}) {
    for (double rho : {0.5, 0.9, 0.99}) {
      const double c = erlang_c(m, rho);
      EXPECT_TRUE(std::isfinite(c));
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
    }
  }
}

TEST(ErlangC, IncreasingInRho) {
  for (unsigned m : {1u, 4u, 14u}) {
    double prev = erlang_c(m, 0.01);
    for (double rho = 0.05; rho < 0.99; rho += 0.02) {
      const double cur = erlang_c(m, rho);
      EXPECT_GT(cur, prev) << "m=" << m << " rho=" << rho;
      prev = cur;
    }
  }
}

TEST(ErlangCDerivative, MatchesNumericDifferentiation) {
  for (unsigned m : {1u, 2u, 5u, 10u, 14u, 40u, 200u}) {
    for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const auto f = [m](double r) { return erlang_c(m, r); };
      const double numeric = blade::num::richardson_derivative(f, rho);
      const double analytic = erlang_c_drho(m, rho);
      EXPECT_NEAR(analytic, numeric, 1e-6 * std::max(1.0, std::abs(numeric)))
          << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ErlangCDerivative, SingleServerIsOne) {
  // C(1, rho) = rho, so the derivative is exactly 1.
  for (double rho : {0.0, 0.2, 0.5, 0.9}) {
    EXPECT_NEAR(erlang_c_drho(1, rho), 1.0, 1e-10);
  }
}

TEST(MMmP0, SingleServer) {
  // p0 = 1 - rho for M/M/1.
  for (double rho : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(mmm_p0(1, rho), 1.0 - rho, 1e-12);
  }
}

TEST(MMmP0, SumsStateProbabilitiesToOne) {
  // Sum p_k over a long range must approach 1.
  const unsigned m = 6;
  const double rho = 0.7;
  const double a = m * rho;
  const double p0 = mmm_p0(m, rho);
  double total = 0.0;
  for (unsigned k = 0; k <= 400; ++k) {
    double pk;
    if (k <= m) {
      pk = p0 * std::exp(k * std::log(a) - blade::num::log_factorial(k));
    } else {
      pk = p0 * std::exp(m * std::log(static_cast<double>(m)) + k * std::log(rho) -
                         blade::num::log_factorial(m));
    }
    total += pk;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MMmP0Derivative, MatchesNumericDifferentiation) {
  for (unsigned m : {1u, 2u, 5u, 14u}) {
    for (double rho : {0.2, 0.5, 0.8}) {
      const auto f = [m](double r) { return mmm_p0(m, r); };
      const double numeric = blade::num::richardson_derivative(f, rho);
      const double analytic = mmm_p0_drho(m, rho);
      EXPECT_NEAR(analytic, numeric, 1e-6 * std::max(1.0, std::abs(numeric)))
          << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ErlangValidation, RejectsBadArguments) {
  EXPECT_THROW((void)erlang_c(0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)erlang_c(4, 1.0), std::invalid_argument);
  EXPECT_THROW((void)erlang_c(4, -0.1), std::invalid_argument);
  EXPECT_THROW((void)erlang_b(3, -1.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)erlang_c(4, nan), std::invalid_argument);
  EXPECT_THROW((void)erlang_b(3, nan), std::invalid_argument);
  EXPECT_THROW((void)erlang_b(3, inf), std::invalid_argument);
  EXPECT_THROW((void)erlang_c_derivs(0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)erlang_c_derivs(4, 1.0), std::invalid_argument);
  EXPECT_THROW((void)erlang_c_derivs(4, -0.1), std::invalid_argument);
  EXPECT_THROW((void)erlang_c_derivs(4, nan), std::invalid_argument);
}

}  // namespace
