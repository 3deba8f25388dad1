// The O(1) epilogue shared by the scalar and batched Erlang-C kernels
// (erlang.cpp, erlang_batch.cpp). Private to numerics/: callers use
// erlang_c_derivs or erlang_c_derivs_batch.
#pragma once

#include "numerics/erlang.hpp"

namespace blade::num::detail {

/// The O(1) epilogue of erlang_c_derivs: C, C', C'' from the Erlang-B
/// value b = B(m, m rho), with one reciprocal each for u and rho. At
/// rho == 0 it returns the exact limits and ignores b. The scalar and
/// batched kernels both end here, so they agree bitwise by construction.
/// No validation: the kernels check m and rho before calling it.
[[nodiscard]] inline ErlangCDerivs erlang_c_derivs_from_b(unsigned m, double rho,
                                                          double b) noexcept {
  ErlangCDerivs r;
  if (rho == 0.0) {
    // C has an m-th order zero at rho = 0: C(1, rho) = rho exactly, and
    // C(2, rho) = 2 rho^2 + O(rho^3).
    r.dc = (m == 1) ? 1.0 : 0.0;
    r.d2c = (m == 2) ? 4.0 : 0.0;
    return r;
  }
  const double md = static_cast<double>(m);
  const double one_minus = 1.0 - rho;
  const double t = b / (1.0 - b);
  const double u = one_minus + t;
  const double inv_u = 1.0 / u;
  const double inv_rho = 1.0 / rho;
  const double t_rho = t * inv_rho;
  r.c = t * inv_u;
  const double tp = md * t_rho * u;
  const double up = tp - 1.0;
  const double num = tp * one_minus + t;
  r.dc = num * inv_u * inv_u;
  const double tpp = md * ((tp - t_rho) * inv_rho * u + t_rho * up);
  r.d2c = (tpp * one_minus * u - 2.0 * up * num) * (inv_u * inv_u * inv_u);
  return r;
}

}  // namespace blade::num::detail
