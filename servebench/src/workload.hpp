// The benchmark's workloads: each is a pure function of (kind, seed) and
// is built only from the repository's public entry points — a cluster,
// a replay trace, and either a ControllerConfig (serve-* workloads,
// replayed by runtime::replay) or a dispatch-policy split (static-split,
// replayed by runtime::replay_policy).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/cluster.hpp"
#include "runtime/chaos.hpp"
#include "runtime/controller.hpp"
#include "runtime/replay.hpp"

namespace servebench {

enum class Kind : std::uint8_t { Churn, Fleet, Static };

[[nodiscard]] std::optional<Kind> parse_kind(std::string_view name);
[[nodiscard]] const char* to_string(Kind kind) noexcept;

struct Workload {
  Kind kind = Kind::Churn;
  std::uint64_t seed = 1;
  blade::model::Cluster cluster;
  blade::runtime::ReplayTrace trace{};
  /// serve-* workloads: the controller the replay runs.
  blade::runtime::ControllerConfig controller{};
  /// serve-churn: the chaos profile, replayed through a FaultInjector
  /// seeded with chaos_seed. A fresh injector per replay keeps every
  /// replay of one seed identical.
  std::optional<blade::runtime::ChaosProfile> chaos{};
  std::uint64_t chaos_seed = 0;
  /// The generic rate the workload is sized for: the time-averaged
  /// trace rate for serve-*, the stationary rate for static-split. The
  /// traced run's direct solver calls solve at this rate.
  double lambda = 0.0;

  [[nodiscard]] bool controller_driven() const noexcept { return kind != Kind::Static; }
};

/// Builds the workload. Deterministic in (kind, seed): the same
/// arguments give a bitwise-identical cluster, trace and configuration.
[[nodiscard]] Workload make_workload(Kind kind, std::uint64_t seed);

/// The serve-churn / static-split cluster, the same for every seed: 64
/// servers with blade counts 1..8 (eight of each) paired once with speeds
/// at the midpoints of 64 strata of [0.5, 2.5], 20% special preload. On
/// these workloads the seed moves the traffic (the trace seed) only.
[[nodiscard]] blade::model::Cluster churn_cluster();

/// The serve-fleet cluster: 2,000 servers from a 48-SKU catalog in
/// contiguous blocks (the layout class coalescing is built for), with
/// the SKU-to-block assignment shuffled by the seed.
[[nodiscard]] blade::model::Cluster fleet_cluster(std::uint64_t seed);

}  // namespace servebench
