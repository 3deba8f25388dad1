// Fuzz/stress tests of the simulation substrate: randomized event-queue
// workloads (time ordering under heavy cancellation, and a differential
// check against a reference model), thread-pool load, and conservation
// invariants of full cluster runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
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
//
// Hold steps are shaped for the queue's deferred removal: the popped
// callback pushes 0, 1 or 2 events at once, before, at or after its own
// time, and between the pop and its pushes it may cancel its own id,
// another live id or the event that would surface next, and may ask
// next_time(). Until the callback returns only size(), empty() and the
// popped sequence are checked, so no next_time() completes the removal
// early; the hold ends with the full check.
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
      push(random_time());
    } else if (r < 7) {
      pop();
    } else {
      cancel();
    }
    check();
  }

  void hold() {
    // Keep 100 to 200 events pending, so holds run on a heap four or
    // more levels deep.
    if (model_.size() < 100) {
      while (model_.size() < 200) push(random_time());
    }
    if (rng_.below(16) == 0) {
      // Leave one live event, so this hold pops the last of them over a
      // heap of stale entries.
      while (model_.size() > 1) cancel_push(std::prev(model_.end())->second);
    }
    holding_ = true;
    pop();
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
    check_counts();
    if (!model_.empty()) {
      ASSERT_EQ(queue_.next_time(), model_.begin()->first.first);
    }
  }

  /// The checks that leave a pending removal pending.
  void check_counts() {
    ASSERT_EQ(queue_.size(), model_.size());
    ASSERT_EQ(queue_.empty(), model_.empty());
    ASSERT_EQ(fired_, expected_);
  }

  /// Hold-step pushes relative to the popped time.
  enum When : std::size_t { kBefore, kAt, kAfter, kWhens };
  /// Hold-step cancels before the first push, and of that push's id.
  enum HoldCancel : std::size_t { kOwnId, kOtherLive, kWouldSurface, kReplacingPush, kHoldCancels };

  std::array<std::size_t, kKinds> cancels{};  ///< cancel() calls by kind
  std::size_t nested_pushes = 0;
  std::size_t nested_cancels = 0;
  std::size_t tied_pops = 0;  ///< pops that left an equal-time event pending

  std::array<std::size_t, 3> holds_by_pushes{};  ///< hold steps by push count
  std::array<std::size_t, kWhens> hold_pushes{};
  std::array<std::size_t, kHoldCancels> hold_cancels{};
  std::size_t hold_queries = 0;     ///< next_time() between a pop and its push
  std::size_t last_live_holds = 0;  ///< holds that popped the last live event, then pushed
  std::size_t push_cancel_push = 0;

 private:
  enum class State : std::uint8_t { Pending, Popped, Cancelled };
  struct Pushed {
    sim::EventId id;
    double time;
    State state;
  };
  static constexpr sim::EventId kSlotMask = sim::EventQueue::kMaxPending - 1;

  double random_time() {
    return rng_.below(9) == 0 ? std::numeric_limits<double>::infinity()
                              : 0.5 * static_cast<double>(rng_.below(8));
  }

  /// Pushes at `t`; returns the push index.
  std::size_t push(double t) {
    const std::size_t idx = pushed_.size();
    const sim::EventId id = queue_.push(t, [this, idx] { fire(idx); });
    pushed_.push_back({id, t, State::Pending});
    model_.emplace(std::pair{t, idx}, idx);
    by_id_.emplace(id, idx);
    live_slots_[id & kSlotMask] = idx;
    return idx;
  }

  void fire(std::size_t idx) {
    fired_.push_back(idx);
    if (holding_) {
      holding_ = false;
      hold_body(idx);
      return;
    }
    if (rng_.below(3) == 0) {
      ++nested_pushes;
      push(random_time());
    }
    if (rng_.below(3) == 0) {
      ++nested_cancels;
      cancel();
    }
    check();
  }

  /// The popped callback of a hold step.
  void hold_body(std::size_t idx) {
    check_counts();
    const bool was_last = model_.empty();
    switch (rng_.below(5)) {
      case 0:
        ++hold_cancels[kOwnId];
        queue_.cancel(pushed_[idx].id);  // already popped: a no-op
        break;
      case 1:
        if (model_.size() > 1) {
          ++hold_cancels[kOtherLive];
          const auto at = static_cast<std::ptrdiff_t>(1 + rng_.below(model_.size() - 1));
          cancel_push(std::next(model_.begin(), at)->second);
        }
        break;
      case 2:
        if (!model_.empty()) {
          ++hold_cancels[kWouldSurface];
          cancel_push(model_.begin()->second);
        }
        break;
      default:
        break;
    }
    check_counts();
    if (rng_.below(4) == 0) {
      ++hold_queries;
      if (model_.empty()) {
        EXPECT_THROW((void)queue_.next_time(), std::logic_error);
      } else {
        check();
      }
    }
    const auto pushes = rng_.below(3);
    ++holds_by_pushes[pushes];
    if (was_last && pushes > 0) ++last_live_holds;
    const double now = pushed_[idx].time;
    for (std::uint64_t k = 0; k < pushes; ++k) {
      const auto when = static_cast<When>(rng_.below(kWhens));
      ++hold_pushes[when];
      const std::size_t j = push(when == kBefore ? now - 0.5 : when == kAt ? now : now + 0.5);
      check_counts();
      if (k == 0 && rng_.below(4) == 0) {
        ++hold_cancels[kReplacingPush];
        cancel_push(j);
        check_counts();
      }
    }
    if (rng_.below(8) == 0) {
      ++push_cancel_push;
      cancel_push(push(random_time()));
      check_counts();
      push(random_time());
    }
  }

  /// Cancels push `idx` in the queue and, if it is pending, the model.
  void cancel_push(std::size_t idx) {
    if (pushed_[idx].state == State::Pending) {
      model_.erase({pushed_[idx].time, idx});
      retire(idx, State::Cancelled);
    }
    queue_.cancel(pushed_[idx].id);
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
      cancel_push(it->second);
    } else {
      queue_.cancel(*id);
    }
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
  bool holding_ = false;               ///< the next callback runs hold_body()
};

class EventQueueDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDifferential, MatchesOrderedMapModel) {
  QueueModelHarness h(GetParam());
  for (int op = 0; op < 6000; ++op) {
    h.step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Then hold steps between more of the same, on the heap those left.
  for (int op = 0; op < 6000; ++op) {
    if (op % 2 == 0) {
      h.hold();
    } else {
      h.step();
    }
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
  // Every shape of hold step really happened.
  for (std::size_t n = 0; n < h.holds_by_pushes.size(); ++n) {
    EXPECT_GE(h.holds_by_pushes[n], 800u) << "holds with " << n << " pushes";
  }
  for (std::size_t w = 0; w < QueueModelHarness::kWhens; ++w) {
    EXPECT_GE(h.hold_pushes[w], 800u) << "hold push kind " << w;
  }
  for (std::size_t k = 0; k < QueueModelHarness::kHoldCancels; ++k) {
    EXPECT_GE(h.hold_cancels[k], 400u) << "hold cancel kind " << k;
  }
  EXPECT_GE(h.hold_queries, 500u);
  EXPECT_GE(h.last_live_holds, 50u);
  EXPECT_GE(h.push_cancel_push, 250u);
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
