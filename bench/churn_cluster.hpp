// servebench's serve-churn cluster (also static-split's), rebuilt from
// public pieces for the perf benches that time one layer of those
// workloads.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "model/cluster.hpp"
#include "sim/rng.hpp"

namespace bench_common {

/// 64 servers, server i with 1 + i % 8 blades, speeds at the midpoints
/// of 64 strata of [0.5, 2.5] paired with the blade counts by
/// servebench's fixed shuffle (stream 3000017), a 20% special preload.
inline blade::model::Cluster churn_cluster() {
  constexpr std::size_t n = 64;
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = 1 + static_cast<unsigned>(i % 8);
    speeds[i] = 0.5 + 2.0 * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  }
  blade::sim::RngStream pairing(0, 3000017);
  for (std::size_t i = n; i > 1; --i) std::swap(speeds[i - 1], speeds[pairing.below(i)]);
  return blade::model::make_cluster(sizes, speeds, 1.0, 0.2);
}

}  // namespace bench_common
