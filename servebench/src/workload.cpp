#include "workload.hpp"

#include <numeric>
#include <utility>

#include "sim/rng.hpp"

namespace servebench {

namespace bm = blade::model;
namespace br = blade::runtime;

namespace {

// Stream id of the benchmark's own shape draws, disjoint from the
// replay's (2i+1, 1000003/1000019/1000033) and the chaos streams
// (20000xx), so the cluster shape never correlates with the traffic.
constexpr std::uint64_t kShapeStream = 3000017;

constexpr double kRbar = 1.0;
constexpr double kPreload = 0.2;

constexpr std::size_t kChurnServers = 64;
constexpr unsigned kChurnMaxBlades = 8;
constexpr double kChurnMinSpeed = 0.5;
constexpr double kChurnMaxSpeed = 2.5;

constexpr std::size_t kFleetServers = 2000;
constexpr std::size_t kFleetSkus = 48;
constexpr std::size_t kFleetCells = 16;

// Horizons are sized so one replay takes 0.5-2 s on a 4-core x86 VM: a
// 45-second run then holds 20-70 replays to pick from.
constexpr double kChurnHorizon = 300.0;
constexpr double kFleetHorizon = 4.0;
constexpr double kStaticHorizon = 2500.0;
constexpr double kStaticLoad = 0.7;  // fraction of lambda'_max

// serve-churn's fault schedule is fixed: its ~190 full-server outages
// per replay dominate T'. Drawn per seed (injector seed or server order)
// they spread T' by 12-13% across seeds; fixed, the seed moves only the
// traffic and T' spreads by 6-8%.
constexpr std::uint64_t kChaosSeed = 1;

template <class T>
void shuffle(std::vector<T>& v, blade::sim::RngStream& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

// `bladecli serve-replay`'s controller defaults: half-life horizon/100,
// 2% drift threshold, a drift check every 16 arrivals, 0.95 ceiling.
br::ControllerConfig serve_defaults(double horizon) {
  br::ControllerConfig cfg;
  cfg.half_life = horizon / 100.0;
  return cfg;
}

// Time average of the trace's piecewise-constant generic rate.
double mean_rate(const br::ReplayTrace& trace) {
  double area = 0.0;
  double t_prev = 0.0;
  double r_prev = 0.0;
  for (const auto& e : trace.events) {
    if (e.kind != br::ReplayEvent::Kind::Rate) continue;
    area += r_prev * (e.time - t_prev);
    t_prev = e.time;
    r_prev = e.rate;
  }
  area += r_prev * (trace.horizon - t_prev);
  return area / trace.horizon;
}

}  // namespace

const char* to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::Churn: return "serve-churn";
    case Kind::Fleet: return "serve-fleet";
    case Kind::Static: return "static-split";
  }
  return "unknown";
}

std::optional<Kind> parse_kind(std::string_view name) {
  for (const Kind k : {Kind::Churn, Kind::Fleet, Kind::Static}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

bm::Cluster churn_cluster() {
  std::vector<unsigned> sizes(kChurnServers);
  std::vector<double> speeds(kChurnServers);
  for (std::size_t i = 0; i < kChurnServers; ++i) {
    sizes[i] = 1 + static_cast<unsigned>(i % kChurnMaxBlades);
    speeds[i] = kChurnMinSpeed + (kChurnMaxSpeed - kChurnMinSpeed) *
                                     (static_cast<double>(i) + 0.5) /
                                     static_cast<double>(kChurnServers);
  }
  // A fixed pseudo-random pairing of blade counts with speeds.
  blade::sim::RngStream pairing(0, kShapeStream);
  shuffle(speeds, pairing);
  return bm::make_cluster(sizes, speeds, kRbar, kPreload);
}

bm::Cluster fleet_cluster(std::uint64_t seed) {
  blade::sim::RngStream rng(seed, kShapeStream);
  std::vector<std::size_t> sku(kFleetSkus);
  std::iota(sku.begin(), sku.end(), std::size_t{0});
  shuffle(sku, rng);
  std::vector<unsigned> sizes(kFleetServers);
  std::vector<double> speeds(kFleetServers);
  for (std::size_t i = 0; i < kFleetServers; ++i) {
    const std::size_t s = sku[i * kFleetSkus / kFleetServers];
    sizes[i] = 1 + static_cast<unsigned>(s % 6);
    speeds[i] = 0.5 + 0.05 * static_cast<double>(s);
  }
  return bm::make_cluster(sizes, speeds, kRbar, kPreload);
}

Workload make_workload(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::Churn: {
      Workload w{.kind = kind, .seed = seed, .cluster = churn_cluster()};
      w.trace = br::reference_failure_trace(w.cluster, kChurnHorizon);
      w.trace.seed = seed;
      w.controller = serve_defaults(kChurnHorizon);
      w.controller.health.enabled = true;
      w.chaos = br::chaos_profile("moderate").value();
      w.chaos_seed = kChaosSeed;
      w.lambda = mean_rate(w.trace);
      return w;
    }
    case Kind::Fleet: {
      Workload w{.kind = kind, .seed = seed, .cluster = fleet_cluster(seed)};
      w.trace = br::reference_failure_trace(w.cluster, kFleetHorizon);
      w.trace.seed = seed;
      w.controller = serve_defaults(kFleetHorizon);
      w.controller.shard_cells = kFleetCells;
      w.lambda = mean_rate(w.trace);
      return w;
    }
    case Kind::Static: {
      Workload w{.kind = kind, .seed = seed, .cluster = churn_cluster()};
      w.lambda = kStaticLoad * w.cluster.max_generic_rate();
      w.trace.horizon = kStaticHorizon;
      w.trace.seed = seed;
      w.trace.events.push_back({.time = 0.0, .kind = br::ReplayEvent::Kind::Rate, .rate = w.lambda});
      return w;
    }
  }
  return make_workload(Kind::Churn, seed);
}

}  // namespace servebench
