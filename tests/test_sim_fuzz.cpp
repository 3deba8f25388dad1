// Fuzz/stress tests of the simulation substrate: randomized event-queue
// workloads (time ordering under heavy cancellation, and a differential
// check against a reference model), thread-pool load, and conservation
// invariants of full cluster runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/random_cluster.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace blade;

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, PopsAreTimeOrderedUnderRandomCancellation) {
  sim::RngStream rng(GetParam(), 0);
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  std::vector<double> times;
  for (int i = 0; i < 3000; ++i) {
    const double t = rng.uniform() * 1000.0;
    times.push_back(t);
    ids.push_back(q.push(t, [] {}));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (rng.uniform() < 0.33) {
      q.cancel(ids[i]);
      ++cancelled;
    }
  }
  ASSERT_EQ(q.size(), ids.size() - cancelled);
  double prev = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    EXPECT_GE(t, prev);
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, ids.size() - cancelled);
}

TEST_P(EventQueueFuzz, InterleavedPushPopKeepsOrdering) {
  sim::RngStream rng(GetParam(), 1);
  sim::EventQueue q;
  double clock = 0.0;  // popped events may only move time forward
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < pushes; ++i) {
      (void)q.push(clock + rng.uniform() * 10.0, [] {});
    }
    const int pops = static_cast<int>(rng.below(4));
    for (int i = 0; i < pops && !q.empty(); ++i) {
      auto [t, fn] = q.pop();
      EXPECT_GE(t, clock);
      clock = t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz, ::testing::Values(1u, 7u, 42u, 1234u),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

// Drives an EventQueue and a reference model side by side: a std::map
// keyed by (time, push index), whose first entry is by definition the
// next event, ties in push order. Times come from a grid of eight values
// plus +inf, so most pops break a tie. Popped callbacks push and cancel
// in turn. After every operation the popped sequence, size(), empty()
// and next_time() must equal the model's.
class QueueModelHarness {
 public:
  /// The ids cancel() is called with: pending, already popped, already
  /// cancelled, never issued, and popped or cancelled ids whose arena
  /// slot a pending event now occupies.
  enum Kind : std::size_t { kLive, kPopped, kCancelled, kNeverIssued, kSlotReused, kKinds };

  explicit QueueModelHarness(std::uint64_t seed) : rng_(seed, 2) {}

  void step() {
    const auto r = rng_.below(10);
    if (r < 4) {
      push();
    } else if (r < 7) {
      pop();
    } else {
      cancel();
    }
    check();
  }

  void drain() {
    while (!model_.empty()) {
      pop();
      check();
    }
    pop();  // empty: both queries throw
  }

  void check() {
    ASSERT_EQ(queue_.size(), model_.size());
    ASSERT_EQ(queue_.empty(), model_.empty());
    if (!model_.empty()) {
      ASSERT_EQ(queue_.next_time(), model_.begin()->first.first);
    }
    ASSERT_EQ(fired_, expected_);
  }

  std::array<std::size_t, kKinds> cancels{};  ///< cancel() calls by kind
  std::size_t nested_pushes = 0;
  std::size_t nested_cancels = 0;
  std::size_t tied_pops = 0;  ///< pops that left an equal-time event pending

 private:
  enum class State : std::uint8_t { Pending, Popped, Cancelled };
  struct Pushed {
    sim::EventId id;
    double time;
    State state;
  };
  static constexpr sim::EventId kSlotMask = sim::EventQueue::kMaxPending - 1;

  void push() {
    const std::size_t idx = pushed_.size();
    const double t = rng_.below(9) == 0 ? std::numeric_limits<double>::infinity()
                                        : 0.5 * static_cast<double>(rng_.below(8));
    const sim::EventId id = queue_.push(t, [this, idx] { fire(idx); });
    pushed_.push_back({id, t, State::Pending});
    model_.emplace(std::pair{t, idx}, idx);
    by_id_.emplace(id, idx);
    live_slots_[id & kSlotMask] = idx;
  }

  void fire(std::size_t idx) {
    fired_.push_back(idx);
    if (rng_.below(3) == 0) {
      ++nested_pushes;
      push();
    }
    if (rng_.below(3) == 0) {
      ++nested_cancels;
      cancel();
    }
    check();
  }

  void pop() {
    if (model_.empty()) {
      EXPECT_THROW((void)queue_.next_time(), std::logic_error);
      EXPECT_THROW((void)queue_.pop(), std::logic_error);
      return;
    }
    const auto [key, idx] = *model_.begin();
    model_.erase(model_.begin());
    if (!model_.empty() && model_.begin()->first.first == key.first) ++tied_pops;
    retire(idx, State::Popped);
    expected_.push_back(idx);
    auto [t, fn] = queue_.pop();
    ASSERT_EQ(t, key.first);
    fn();
  }

  void cancel() {
    const auto kind = static_cast<Kind>(rng_.below(kKinds));
    const std::optional<sim::EventId> id = pick(kind);
    if (!id) return;
    ++cancels[kind];
    if (const auto it = by_id_.find(*id); it != by_id_.end()) {
      const std::size_t idx = it->second;
      if (pushed_[idx].state == State::Pending) {
        model_.erase({pushed_[idx].time, idx});
        retire(idx, State::Cancelled);
      }
    }
    queue_.cancel(*id);
  }

  void retire(std::size_t idx, State state) {
    pushed_[idx].state = state;
    live_slots_.erase(pushed_[idx].id & kSlotMask);
  }

  /// An id of the given kind, or none when no candidate turned up.
  std::optional<sim::EventId> pick(Kind kind) {
    switch (kind) {
      case kLive:
        return pick_where([](const Pushed& p) { return p.state == State::Pending; });
      case kPopped:
        return pick_where([](const Pushed& p) { return p.state == State::Popped; });
      case kCancelled:
        return pick_where([](const Pushed& p) { return p.state == State::Cancelled; });
      case kSlotReused:
        return pick_where([this](const Pushed& p) {
          return p.state != State::Pending && live_slots_.count(p.id & kSlotMask) > 0;
        });
      case kNeverIssued: {
        // 0 (the "none" id), a random word, or the next sequence number
        // in the last push's slot.
        const auto r = rng_.below(3);
        sim::EventId id = 0;
        if (r == 1) id = rng_.engine()();
        if (r == 2 && !pushed_.empty()) {
          id = pushed_.back().id + (sim::EventId{1} << sim::EventQueue::kSlotBits);
        }
        if (by_id_.count(id) > 0) return std::nullopt;
        return id;
      }
      case kKinds:
        break;
    }
    return std::nullopt;
  }

  template <class Pred>
  std::optional<sim::EventId> pick_where(Pred pred) {
    if (pushed_.empty()) return std::nullopt;
    for (int probe = 0; probe < 64; ++probe) {
      const Pushed& p = pushed_[rng_.below(pushed_.size())];
      if (pred(p)) return p.id;
    }
    return std::nullopt;
  }

  sim::RngStream rng_;
  sim::EventQueue queue_;
  std::map<std::pair<double, std::size_t>, std::size_t> model_;
  std::vector<Pushed> pushed_;
  std::unordered_map<sim::EventId, std::size_t> by_id_;
  std::unordered_map<sim::EventId, std::size_t> live_slots_;  ///< slot -> pending push
  std::vector<std::size_t> fired_;     ///< push indices in the order callbacks ran
  std::vector<std::size_t> expected_;  ///< push indices in the model's pop order
};

class EventQueueDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDifferential, MatchesOrderedMapModel) {
  QueueModelHarness h(GetParam());
  for (int op = 0; op < 6000; ++op) {
    h.step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.drain();
  if (::testing::Test::HasFatalFailure()) return;
  // Every kind of cancel, nesting and tie really happened.
  for (std::size_t k = 0; k < QueueModelHarness::kKinds; ++k) {
    EXPECT_GE(h.cancels[k], 250u) << "cancel kind " << k;
  }
  EXPECT_GE(h.nested_pushes, 500u);
  EXPECT_GE(h.nested_cancels, 500u);
  EXPECT_GE(h.tied_pops, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential, ::testing::Values(1u, 7u, 42u, 1234u),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

TEST(ThreadPoolStress, ThousandsOfTinyTasks) {
  par::ThreadPool pool(8);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(20000);
  for (long i = 0; i < 20000; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 20000L * 19999L / 2);
}

TEST(ThreadPoolStress, NestedSubmitsFromWorkers) {
  par::ThreadPool pool(4);
  std::atomic<int> leaf{0};
  std::vector<std::future<void>> outer;
  for (int i = 0; i < 16; ++i) {
    outer.push_back(pool.submit([&pool, &leaf] {
      // Submitting from a worker must not deadlock (queue, not join).
      auto inner = pool.submit([&leaf] { leaf.fetch_add(1); });
      (void)inner;  // completion is awaited via wait_idle below
    }));
  }
  for (auto& f : outer) f.get();
  pool.wait_idle();
  EXPECT_EQ(leaf.load(), 16);
}

class ClusterSimFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterSimFuzz, ConservationOnRandomClusters) {
  // For random clusters at moderate random loads: completions+in-system
  // ~= emitted arrivals, utilization in [0,1), samples positive.
  model::RandomClusterSpec spec;
  spec.seed = GetParam();
  spec.max_servers = 5;
  spec.max_blades = 8;
  const auto cluster = model::random_cluster(spec);
  const double lambda = model::random_feasible_rate(cluster, spec.seed, 0.2, 0.7);

  // Split proportional to free capacity (always feasible at these loads).
  std::vector<double> rates;
  double cap = 0.0;
  for (const auto& s : cluster.servers()) cap += s.max_generic_rate(cluster.rbar());
  for (const auto& s : cluster.servers()) {
    rates.push_back(lambda * s.max_generic_rate(cluster.rbar()) / cap);
  }

  sim::SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.warmup = 500.0;
  cfg.seed = spec.seed;
  const auto res = sim::simulate_split(cluster, rates, sim::SchedulingMode::Fcfs, cfg);
  EXPECT_GT(res.generic_samples, 0u);
  EXPECT_GT(res.events, res.generic_samples);
  for (const auto& obs : res.servers) {
    EXPECT_GE(obs.utilization, 0.0);
    EXPECT_LT(obs.utilization, 1.0);
    EXPECT_GE(obs.time_avg_tasks, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterSimFuzz, ::testing::Range<std::uint64_t>(100, 112),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
