// Edge-regime instance generators for the differential suite. Random
// fuzzing (model::random_cluster) explores the bulk of the parameter
// space but rarely lands in the regimes where solvers actually disagree:
// near-saturation (rho -> 1, bisection brackets collapse), the
// single-blade closed-form regime (m_i = 1, Theorems 1/3), very wide
// M/M/m systems (large Erlang-C arguments), and extreme speed/size
// heterogeneity (active sets change, slow servers idle). Each regime
// here deterministically maps a seed to a valid instance inside that
// regime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/cluster.hpp"
#include "queueing/blade_queue.hpp"

namespace blade::testsupport {

enum class Regime {
  Random,          ///< baseline: model::random_cluster defaults
  NearSaturation,  ///< lambda' at 99.5% of lambda'_max (rho -> 1)
  SingleBlade,     ///< m_i = 1 everywhere: Theorem 1/3 closed forms apply
  LargeServers,    ///< m_i in [32, 96]: large Erlang-C arguments
  SpeedExtremes,   ///< speeds spanning 0.05..20 (400x heterogeneity)
  SizeExtremes,    ///< m_i alternating between 1 and up to 64
};

[[nodiscard]] const char* to_string(Regime r) noexcept;

/// All regimes, in declaration order (for iteration in tests).
[[nodiscard]] const std::vector<Regime>& all_regimes();

/// One ready-to-solve problem instance.
struct Instance {
  std::string name;  ///< "<regime>/seed<k>", for failure messages
  model::Cluster cluster;
  double lambda;  ///< feasible total generic rate, in (0, lambda'_max)
  queue::Discipline discipline;
};

/// Deterministically builds the instance for (regime, seed, discipline).
/// Every returned instance is valid: positive speeds, preload
/// utilizations < 1, and lambda strictly inside (0, lambda'_max).
[[nodiscard]] Instance make_instance(Regime r, std::uint64_t seed, queue::Discipline d);

/// The full corpus: `per_regime` seeds (1..per_regime) for each regime
/// under the given discipline.
[[nodiscard]] std::vector<Instance> instance_corpus(std::size_t per_regime, queue::Discipline d);

/// servebench's serve-churn cluster: 64 servers with blade counts 1-8
/// (eight of each) paired by a fixed shuffle with speeds spread over
/// [0.5, 2.5], rbar 1 and a 20% special preload.
[[nodiscard]] model::Cluster churn_cluster();

/// A catalog fleet: `skus` server types of `per_sku` servers each,
/// interleaved (server i has type i % skus), so every cell of a
/// contiguous partition holds several servers of each type and the
/// solver coalesces them into classes. Type s has 2 + s % 5 blades and
/// speed 0.6 + 0.45 s; rbar 1 and a 20% special preload.
[[nodiscard]] model::Cluster interleaved_catalog(std::size_t skus, std::size_t per_sku);

}  // namespace blade::testsupport
