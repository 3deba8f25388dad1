#include "support/generators.hpp"

#include <random>

#include "model/random_cluster.hpp"
#include "sim/rng.hpp"

namespace blade::testsupport {

namespace {

// Seed-space partition: each regime hashes its seeds away from the plain
// Random regime so corpora never alias the existing fuzz suites.
constexpr std::uint64_t kRegimeStride = 1u << 20;

std::uint64_t regime_seed(Regime r, std::uint64_t seed) {
  return seed + kRegimeStride * (static_cast<std::uint64_t>(r) + 1);
}

model::Cluster size_extremes_cluster(std::uint64_t seed) {
  // Alternate single-blade servers with very wide ones so the optimizer
  // must trade an M/M/1 against an M/M/64 at the same marginal cost.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL);
  std::uniform_int_distribution<unsigned> n_dist(4, 8);
  std::uniform_int_distribution<unsigned> wide_dist(32, 64);
  std::uniform_real_distribution<double> s_dist(0.8, 2.0);
  std::uniform_real_distribution<double> y_dist(0.0, 0.5);

  const unsigned n = n_dist(rng);
  std::vector<model::BladeServer> servers;
  servers.reserve(n);
  const double rbar = 1.0;
  for (unsigned i = 0; i < n; ++i) {
    const unsigned m = (i % 2 == 0) ? 1 : wide_dist(rng);
    const double s = s_dist(rng);
    const double special = y_dist(rng) * m * s / rbar;
    servers.emplace_back(m, s, special);
  }
  return model::Cluster(std::move(servers), rbar);
}

}  // namespace

const char* to_string(Regime r) noexcept {
  switch (r) {
    case Regime::Random: return "random";
    case Regime::NearSaturation: return "near_saturation";
    case Regime::SingleBlade: return "single_blade";
    case Regime::LargeServers: return "large_servers";
    case Regime::SpeedExtremes: return "speed_extremes";
    case Regime::SizeExtremes: return "size_extremes";
  }
  return "unknown";
}

const std::vector<Regime>& all_regimes() {
  static const std::vector<Regime> regimes = {
      Regime::Random,       Regime::NearSaturation, Regime::SingleBlade,
      Regime::LargeServers, Regime::SpeedExtremes,  Regime::SizeExtremes,
  };
  return regimes;
}

Instance make_instance(Regime r, std::uint64_t seed, queue::Discipline d) {
  const std::uint64_t s = regime_seed(r, seed);
  model::RandomClusterSpec spec;
  spec.seed = s;

  switch (r) {
    case Regime::Random:
      break;
    case Regime::NearSaturation:
      break;  // the regime lives in lambda, not the cluster shape
    case Regime::SingleBlade:
      spec.single_blade_only = true;
      break;
    case Regime::LargeServers:
      spec.min_blades = 32;
      spec.max_blades = 96;
      spec.min_servers = 2;
      spec.max_servers = 6;
      break;
    case Regime::SpeedExtremes:
      spec.min_speed = 0.05;
      spec.max_speed = 20.0;
      break;
    case Regime::SizeExtremes: {
      auto cluster = size_extremes_cluster(s);
      const double lambda = model::random_feasible_rate(cluster, s);
      return {std::string(to_string(r)) + "/seed" + std::to_string(seed), std::move(cluster),
              lambda, d};
    }
  }

  auto cluster = model::random_cluster(spec);
  const double lambda = r == Regime::NearSaturation
                            ? 0.995 * cluster.max_generic_rate()
                            : model::random_feasible_rate(cluster, s);
  return {std::string(to_string(r)) + "/seed" + std::to_string(seed), std::move(cluster), lambda,
          d};
}

std::vector<Instance> instance_corpus(std::size_t per_regime, queue::Discipline d) {
  std::vector<Instance> out;
  out.reserve(per_regime * all_regimes().size());
  for (Regime r : all_regimes()) {
    for (std::uint64_t seed = 1; seed <= per_regime; ++seed) {
      out.push_back(make_instance(r, seed, d));
    }
  }
  return out;
}

model::Cluster churn_cluster() {
  constexpr std::size_t n = 64;
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = 1 + static_cast<unsigned>(i % 8);
    speeds[i] = 0.5 + 2.0 * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  }
  sim::RngStream pairing(0, 3000017);  // servebench's shape stream
  for (std::size_t i = n; i > 1; --i) std::swap(speeds[i - 1], speeds[pairing.below(i)]);
  return model::make_cluster(sizes, speeds, 1.0, 0.2);
}

model::Cluster interleaved_catalog(std::size_t skus, std::size_t per_sku) {
  const std::size_t n = skus * per_sku;
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i % skus;
    sizes[i] = 2 + static_cast<unsigned>(s % 5);
    speeds[i] = 0.6 + 0.45 * static_cast<double>(s);
  }
  return model::make_cluster(sizes, speeds, 1.0, 0.2);
}

}  // namespace blade::testsupport
