// Data-plane battery: the fused alias-table layout against a two-array
// reference (bitwise, on pinned RNG streams), and the per-thread
// DispatchShard (determinism, batching, blackout, and the
// K-routing-threads-vs-publishing-controller race that rides the fast
// label into the TSan tier).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "model/cluster.hpp"
#include "model/paper_configs.hpp"
#include "runtime/controller.hpp"
#include "runtime/dispatch_shard.hpp"
#include "sim/rng.hpp"
#include "util/alias_table.hpp"

namespace {

using namespace blade;

// --- fused alias layout vs two-array reference ----------------------------

/// The pre-fusion AliasTable layout: Vose's construction, verbatim, into
/// two parallel vectors. The fused bucket table must reproduce this
/// structure (and therefore every sample) bit for bit.
struct TwoArrayAlias {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;

  explicit TwoArrayAlias(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) total += w;
    std::vector<double> fractions(n);
    for (std::size_t i = 0; i < n; ++i) fractions[i] = weights[i] / total;
    std::vector<double> scaled(n);
    std::size_t heaviest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = fractions[i] * static_cast<double>(n);
      if (fractions[i] > fractions[heaviest]) heaviest = i;
    }
    prob.assign(n, 0.0);
    alias.assign(n, static_cast<std::uint32_t>(heaviest));
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      large.pop_back();
      prob[s] = scaled[s];
      alias[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    while (!large.empty()) {
      prob[large.back()] = 1.0;
      large.pop_back();
    }
    while (!small.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      prob[s] = fractions[s] > 0.0 ? 1.0 : 0.0;
    }
  }

  [[nodiscard]] std::size_t sample(double u1, double u2) const noexcept {
    const std::size_t n = prob.size();
    std::size_t i = static_cast<std::size_t>(u1 * static_cast<double>(n));
    if (i >= n) i = n - 1;
    return u2 < prob[i] ? i : alias[i];
  }
};

std::vector<std::vector<double>> alias_weight_cases() {
  return {
      {1.0},
      {1.0, 1.0, 1.0, 1.0},
      {0.25, 0.5, 0.125, 0.125},
      {5.0, 1.0, 0.0, 3.0, 0.0},  // removed servers stay unsampled
      {1e-9, 1.0, 1e9},
      {0.3, 0.0, 0.0, 0.0, 0.7},
      {7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0},
  };
}

TEST(AliasFusedLayout, BucketsMatchTwoArrayReferenceBitwise) {
  for (const auto& w : alias_weight_cases()) {
    const util::AliasTable fused(w);
    const TwoArrayAlias ref(w);
    ASSERT_EQ(fused.size(), ref.prob.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(fused.bucket_prob(i), ref.prob[i]) << "i=" << i;
      EXPECT_EQ(fused.bucket_alias(i), ref.alias[i]) << "i=" << i;
    }
  }
}

// The acceptance regression: a pinned RNG stream drives both layouts;
// the routed sequence must be identical sample for sample, so swapping
// in the fused table cannot have changed a single routing decision.
TEST(AliasFusedLayout, PinnedRoutedSequenceMatchesReference) {
  for (const auto& w : alias_weight_cases()) {
    const util::AliasTable fused(w);
    const TwoArrayAlias ref(w);
    sim::RngStream rng_fused(2026, 7);
    sim::RngStream rng_ref(2026, 7);
    for (int k = 0; k < 4096; ++k) {
      const double a1 = rng_fused.uniform();
      const double a2 = rng_fused.uniform();
      const double b1 = rng_ref.uniform();
      const double b2 = rng_ref.uniform();
      ASSERT_EQ(a1, b1);
      const std::size_t got = fused.sample(a1, a2);
      ASSERT_EQ(got, ref.sample(b1, b2)) << "draw " << k;
      ASSERT_GT(w[got], 0.0) << "sampled a zero-weight index";
    }
  }
}

// --- DispatchShard --------------------------------------------------------

runtime::ControllerConfig quiet_config() {
  runtime::ControllerConfig cfg;
  cfg.half_life = 2.0;
  cfg.initial_lambda = model::paper_example_lambda();
  return cfg;
}

TEST(DispatchShard, ConfigValidation) {
  const auto cluster = model::paper_example_cluster();
  const runtime::Controller ctrl(cluster, quiet_config());
  runtime::DispatchShardConfig cfg;
  cfg.refresh_interval = 0;
  EXPECT_THROW(runtime::DispatchShard(ctrl, cfg), std::invalid_argument);
}

TEST(DispatchShard, DeterministicAcrossInstances) {
  const auto cluster = model::paper_example_cluster();
  const runtime::Controller ctrl(cluster, quiet_config());
  runtime::DispatchShardConfig cfg;
  cfg.seed = 99;
  cfg.stream = 3;
  runtime::DispatchShard a(ctrl, cfg);
  runtime::DispatchShard b(ctrl, cfg);
  for (int k = 0; k < 10000; ++k) {
    const std::size_t ra = a.route();
    ASSERT_EQ(ra, b.route()) << "draw " << k;
    ASSERT_LT(ra, cluster.size());
  }
  EXPECT_EQ(a.routed(), 10000u);
  EXPECT_EQ(a.refreshes(), b.refreshes());
}

TEST(DispatchShard, DistinctStreamsDecorrelate) {
  const auto cluster = model::paper_example_cluster();
  const runtime::Controller ctrl(cluster, quiet_config());
  runtime::DispatchShardConfig cfg;
  cfg.seed = 99;
  runtime::DispatchShard a(ctrl, cfg);
  cfg.stream = 1;
  runtime::DispatchShard b(ctrl, cfg);
  int differ = 0;
  for (int k = 0; k < 4096; ++k) differ += a.route() != b.route() ? 1 : 0;
  EXPECT_GT(differ, 0) << "streams 0 and 1 routed identically";
}

// sample_n must be draw-for-draw the same machine as route(): same RNG
// consumption, same refresh points, regardless of how the batch splits.
TEST(DispatchShard, SampleNMatchesRouteExactly) {
  const auto cluster = model::paper_example_cluster();
  const runtime::Controller ctrl(cluster, quiet_config());
  runtime::DispatchShardConfig cfg;
  cfg.seed = 7;
  cfg.refresh_interval = 64;
  runtime::DispatchShard one(ctrl, cfg);
  runtime::DispatchShard batched(ctrl, cfg);

  std::vector<std::size_t> expected;
  for (int k = 0; k < 3000; ++k) expected.push_back(one.route());

  std::vector<std::size_t> got;
  const std::size_t chunks[] = {1, 7, 64, 128, 300, 2500};
  for (std::size_t c : chunks) {
    std::vector<std::size_t> buf(c);
    batched.sample_n(buf);
    got.insert(got.end(), buf.begin(), buf.end());
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expected[i]) << "i=" << i;
  EXPECT_EQ(batched.routed(), one.routed());
  EXPECT_EQ(batched.refreshes(), one.refreshes());
}

TEST(DispatchShard, RefreshAccountingAmortizes) {
  const auto cluster = model::paper_example_cluster();
  const runtime::Controller ctrl(cluster, quiet_config());
  runtime::DispatchShardConfig cfg;
  cfg.refresh_interval = 64;
  runtime::DispatchShard shard(ctrl, cfg);
  for (int k = 0; k < 1000; ++k) (void)shard.route();
  // ceil(1000 / 64) = 16 snapshot acquisitions for 1000 routes.
  EXPECT_EQ(shard.refreshes(), 16u);
  shard.invalidate_snapshot();
  (void)shard.route();
  EXPECT_EQ(shard.refreshes(), 17u);
}

TEST(DispatchShard, BlackoutRoutesNposThenRecovers) {
  const auto cluster = model::paper_example_cluster();
  runtime::Controller ctrl(cluster, quiet_config());
  double t = 0.0;
  for (std::size_t i = 0; i < cluster.size(); ++i) ctrl.on_failure(t += 1e-3, i);
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Blackout);

  runtime::DispatchShardConfig cfg;
  cfg.refresh_interval = 8;
  runtime::DispatchShard shard(ctrl, cfg);
  for (int k = 0; k < 20; ++k) EXPECT_EQ(shard.route(), runtime::DispatchShard::npos);
  EXPECT_EQ(shard.snapshot(), nullptr);

  ctrl.on_recovery(t += 1e-3, 1);
  shard.invalidate_snapshot();
  for (int k = 0; k < 20; ++k) EXPECT_EQ(shard.route(), 1u);  // only survivor
}

// Degraded-MODE transitions must not wait out the refresh interval: the
// controller bumps its publish epoch on every mode change, and route()
// re-checks the epoch even mid-interval. With a practically-infinite
// refresh interval, a shard that kept serving its pre-blackout snapshot
// would route to dead servers for ~a million draws — the bounded
// staleness contract (staleness <= refresh_interval) only covers
// same-mode republications, never mode flips.
TEST(DispatchShard, ModeTransitionInvalidatesSnapshotImmediately) {
  const auto cluster = model::paper_example_cluster();
  runtime::Controller ctrl(cluster, quiet_config());
  runtime::DispatchShardConfig cfg;
  cfg.refresh_interval = 1u << 20;
  runtime::DispatchShard shard(ctrl, cfg);
  ASSERT_NE(shard.route(), runtime::DispatchShard::npos);  // healthy table cached

  double t = 0.0;
  for (std::size_t i = 0; i < cluster.size(); ++i) ctrl.on_failure(t += 1e-3, i);
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Blackout);
  // No invalidate_snapshot(), no refresh budget spent: the epoch bump
  // alone must retire the stale table on the very next draw.
  EXPECT_EQ(shard.route(), runtime::DispatchShard::npos);

  ctrl.on_recovery(t += 1e-3, 2);  // Blackout -> Fallback mode transition
  for (int k = 0; k < 20; ++k) EXPECT_EQ(shard.route(), 2u);
}

// A republished table reaches the shard within refresh_interval draws.
TEST(DispatchShard, PicksUpRepublishedTable) {
  const auto cluster = model::paper_example_cluster();
  runtime::Controller ctrl(cluster, quiet_config());
  runtime::DispatchShardConfig cfg;
  cfg.refresh_interval = 32;
  runtime::DispatchShard shard(ctrl, cfg);
  (void)shard.route();  // acquire the pre-failure table

  ctrl.on_failure(0.1, 0);  // re-solve + republish without server 0
  std::vector<std::size_t> tail;
  for (int k = 0; k < 512; ++k) tail.push_back(shard.route());
  for (std::size_t k = cfg.refresh_interval; k < tail.size(); ++k) {
    ASSERT_NE(tail[k], 0u) << "stale snapshot outlived the refresh interval";
  }
}

TEST(FastRngUnit, UniformInRangeAndStreamsDiffer) {
  runtime::FastRng a(5, 0);
  runtime::FastRng b(5, 1);
  int differ = 0;
  for (int k = 0; k < 10000; ++k) {
    const double u = a.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    differ += a.next() != b.next() ? 1 : 0;
  }
  EXPECT_GT(differ, 9000);
}

// --- concurrency: K routing threads vs a live publisher -------------------
// Rides the fast label into the TSan preset: every weights() load a shard
// refresh performs races against the control thread's table swaps and
// topology churn; TSan must see the slot's release/acquire edges.
TEST(DispatchShardConcurrency, RoutingThreadsVsPublishingController) {
  const auto cluster = model::paper_example_cluster();
  runtime::Controller ctrl(cluster, quiet_config());
  const std::size_t n = cluster.size();

  constexpr int kThreads = 4;
  constexpr int kRoutesPerThread = 40000;
  std::atomic<std::uint64_t> bad{0};

  std::vector<std::thread> routers;
  routers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    routers.emplace_back([&, w] {
      runtime::DispatchShardConfig cfg;
      cfg.seed = 17;
      cfg.stream = static_cast<std::uint64_t>(w);
      cfg.refresh_interval = 16;  // refresh often: maximize slot contention
      runtime::DispatchShard shard(ctrl, cfg);
      std::vector<std::size_t> buf(128);
      int routed = 0;
      while (routed < kRoutesPerThread) {
        shard.sample_n(buf);
        for (std::size_t idx : buf) {
          if (idx >= n && idx != runtime::DispatchShard::npos) bad.fetch_add(1);
        }
        routed += static_cast<int>(buf.size());
      }
    });
  }

  // Control thread: continuous republishes plus full failure/recovery
  // churn (tables of changing support, occasional blackout).
  double t = 0.0;
  for (int round = 0; round < 60; ++round) {
    ctrl.resolve_now(t += 0.5);
    const std::size_t victim = static_cast<std::size_t>(round) % n;
    ctrl.on_failure(t += 0.5, victim);
    if (round % 7 == 0) {
      for (std::size_t i = 0; i < n; ++i) ctrl.on_failure(t += 1e-3, i);  // blackout
    }
    for (std::size_t i = 0; i < n; ++i) ctrl.on_recovery(t += 1e-3, i);
  }
  for (auto& th : routers) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
}

}  // namespace
