#include "numerics/erlang_batch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/erlang_epilogue.hpp"
#include "obs/obs.hpp"

namespace blade::num {

namespace {

constexpr std::size_t W = kErlangBatchLanes;

void check_sizes(std::size_t n, std::size_t other, const char* what) {
  if (n != other) throw std::invalid_argument(std::string("erlang batch: ") + what);
}

void check_m_batch(std::span<const unsigned> m) {
  for (unsigned mi : m) {
    if (mi == 0) throw std::invalid_argument("erlang: m must be >= 1");
  }
}

void check_rho_batch(std::span<const double> rho) {
  for (double r : rho) {
    if (!std::isfinite(r)) {
      BLADE_OBS_COUNT("numerics.non_finite");
      throw std::invalid_argument("erlang: rho must be finite (NaN/Inf rejected)");
    }
    if (!(r >= 0.0) || r >= 1.0) {
      throw std::invalid_argument("erlang: rho must be in [0, 1)");
    }
  }
}

/// One padded block of the Erlang-B recurrence: lanes >= `live` carry
/// m = 0 and are never selected, so they stay at their b = 1 seed and
/// are discarded by the caller. The inner lane loop is a fixed-width
/// select chain the compiler turns into masked vector ops.
void recurrence_block(const unsigned* m, const double* a, double* b, std::size_t live) {
  double av[W];
  double bv[W];
  unsigned mv[W];
  unsigned max_m = 0;
  for (std::size_t w = 0; w < W; ++w) {
    const bool on = w < live;
    av[w] = on ? a[w] : 0.0;
    mv[w] = on ? m[w] : 0u;
    bv[w] = 1.0;
    max_m = std::max(max_m, mv[w]);
  }
  for (unsigned k = 1; k <= max_m; ++k) {
    const double kd = static_cast<double>(k);
    for (std::size_t w = 0; w < W; ++w) {
      const double next = av[w] * bv[w] / (kd + av[w] * bv[w]);
      bv[w] = k <= mv[w] ? next : bv[w];
    }
  }
  for (std::size_t w = 0; w < live; ++w) b[w] = bv[w];
}

void run_recurrence(std::span<const unsigned> m, std::span<const double> a,
                    std::span<double> b) {
  const std::size_t n = m.size();
  for (std::size_t base = 0; base < n; base += W) {
    const std::size_t live = std::min(W, n - base);
    recurrence_block(m.data() + base, a.data() + base, b.data() + base, live);
  }
}

}  // namespace

void erlang_b_batch(std::span<const unsigned> m, std::span<const double> a,
                    std::span<double> b) {
  const std::size_t n = m.size();
  check_sizes(n, a.size(), "a size mismatch");
  check_sizes(n, b.size(), "b size mismatch");
  check_m_batch(m);
  for (double ai : a) {
    if (!std::isfinite(ai)) {
      BLADE_OBS_COUNT("numerics.non_finite");
      throw std::invalid_argument("erlang_b: a must be finite (NaN/Inf rejected)");
    }
    if (!(ai >= 0.0)) throw std::invalid_argument("erlang_b: a must be >= 0");
  }
  BLADE_OBS_COUNT_N("numerics.erlang_b_evals", n);
  BLADE_OBS_COUNT("numerics.erlang_b_batch_calls");
  run_recurrence(m, a, b);
}

void erlang_c_derivs_batch(std::span<const unsigned> m, std::span<const double> rho,
                           std::span<double> c, std::span<double> dc,
                           std::span<double> d2c) {
  const std::size_t n = m.size();
  check_sizes(n, rho.size(), "rho size mismatch");
  check_sizes(n, c.size(), "c size mismatch");
  check_sizes(n, dc.size(), "dc size mismatch");
  check_sizes(n, d2c.size(), "d2c size mismatch");
  check_m_batch(m);
  check_rho_batch(rho);
  // A batch of n counts as n scalar evals (plus its own call counter) so
  // the CI eval-per-solve ratios stay comparable whichever path ran.
  BLADE_OBS_COUNT_N("numerics.erlang_b_evals", n);
  BLADE_OBS_COUNT_N("numerics.erlang_c_evals", n);
  BLADE_OBS_COUNT_N("numerics.erlang_c_derivs_evals", n);
  BLADE_OBS_COUNT_N("numerics.erlang_c_batch_evals", n);
  BLADE_OBS_COUNT("numerics.erlang_c_batch_calls");

  // One recurrence sweep for all lanes, then the scalar kernel's own
  // epilogue per element, so every output is bitwise erlang_c_derivs'.
  double a_buf[W];
  double b_buf[W];
  for (std::size_t base = 0; base < n; base += W) {
    const std::size_t live = std::min(W, n - base);
    for (std::size_t w = 0; w < live; ++w) {
      a_buf[w] = static_cast<double>(m[base + w]) * rho[base + w];
    }
    recurrence_block(m.data() + base, a_buf, b_buf, live);
    for (std::size_t w = 0; w < live; ++w) {
      const std::size_t i = base + w;
      const ErlangCDerivs k = detail::erlang_c_derivs_from_b(m[i], rho[i], b_buf[w]);
      c[i] = k.c;
      dc[i] = k.dc;
      d2c[i] = k.d2c;
    }
  }
}

}  // namespace blade::num
