// Simulator substrate: RNG streams, the event queue, and the engine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace blade::sim;

TEST(Rng, DeterministicPerSeedAndStream) {
  RngStream a(42, 0), b(42, 0), c(42, 1), d(43, 0);
  const double va = a.uniform();
  EXPECT_DOUBLE_EQ(va, b.uniform());
  EXPECT_NE(va, c.uniform());
  EXPECT_NE(va, d.uniform());
}

TEST(Rng, UniformInOpenUnitInterval) {
  RngStream r(7, 0);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMatchesMoments) {
  RngStream r(11, 3);
  blade::util::RunningStats rs;
  const double mean = 2.5;
  for (int i = 0; i < 200000; ++i) rs.add(r.exponential(mean));
  EXPECT_NEAR(rs.mean(), mean, 0.03);
  // Exponential: stddev == mean.
  EXPECT_NEAR(rs.stddev(), mean, 0.05);
  EXPECT_THROW((void)r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, BelowCoversRange) {
  RngStream r(5, 0);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[static_cast<std::size_t>(r.below(7))];
  for (int h : hits) EXPECT_GT(h, 700);
  EXPECT_THROW((void)r.below(0), std::invalid_argument);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(3.0, [&] { order.push_back(3); });
  (void)q.push(1.0, [&] { order.push_back(1); });
  (void)q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(1.0, [&] { order.push_back(1); });
  (void)q.push(1.0, [&] { order.push_back(2); });
  (void)q.push(1.0, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue q;
  bool ran = false;
  const auto id = q.push(1.0, [&] { ran = true; });
  (void)q.push(2.0, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancellingUnknownOrSpentIdsIsANoop) {
  EventQueue q;
  q.cancel(0);    // id 0 is never issued (ids start at 1)
  q.cancel(999);  // never issued
  const auto id = q.push(1.0, [] {});
  (void)q.pop().second;
  q.cancel(id);  // already popped
  EXPECT_TRUE(q.empty());
  // A fresh push after all that still works.
  (void)q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EmptyQueriesThrow) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

// A NaN time compares false against every other time, so once in the
// heap it fires out of order. push() refuses it and leaves the queue as
// it was; +inf stays a legal time.
TEST(EventQueue, RejectsNaNTime) {
  EventQueue q;
  std::vector<double> order;
  const auto push = [&](double t) { (void)q.push(t, [&order, t] { order.push_back(t); }); };
  push(3.0);
  push(1.0);
  EXPECT_THROW((void)q.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_EQ(q.size(), 2u);
  const double inf = std::numeric_limits<double>::infinity();
  push(inf);
  push(2.0);
  push(0.5);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<double>{0.5, 1.0, 2.0, 3.0, inf}));
}

TEST(Engine, ClockAdvancesWithEvents) {
  Engine e;
  std::vector<double> times;
  (void)e.schedule(5.0, [&] { times.push_back(e.now()); });
  (void)e.schedule(1.0, [&] {
    times.push_back(e.now());
    (void)e.schedule(1.5, [&] { times.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5, 5.0}));
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    (void)e.schedule(static_cast<double>(i), [&] { ++fired; });
  }
  e.run_until(4.5);
  EXPECT_EQ(fired, 4);
  EXPECT_DOUBLE_EQ(e.now(), 4.5);
  e.run_until(10.0);
  EXPECT_EQ(fired, 10);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const auto id = e.schedule(1.0, [&] { ran = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  (void)e.schedule(2.0, [] {});
  e.run();
  EXPECT_THROW((void)e.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW((void)e.schedule_at(1.0, [] {}), std::invalid_argument);
}

// schedule_at's past-time check is false for NaN, so the queue must
// refuse it: a NaN at the top would end run_until early and skip every
// later event.
TEST(Engine, ScheduleAtRejectsNaN) {
  Engine e;
  std::vector<double> fired;
  const auto at = [&](double t) { (void)e.schedule_at(t, [&] { fired.push_back(e.now()); }); };
  at(3.0);
  at(1.0);
  EXPECT_THROW((void)e.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  at(2.0);
  at(0.5);
  at(2.5);
  e.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{0.5, 1.0, 2.0, 2.5, 3.0}));
  EXPECT_EQ(e.events_processed(), 5u);
}

// run_until stops with the last popped entry still at the root when
// that event cancels the only other one and pushes nothing. The next
// schedule takes the root's place; the cancelled entry under it
// surfaces and is dropped, and never fires.
TEST(Engine, RunUntilStopsWithThePoppedTopUnreplaced) {
  Engine e;
  std::vector<double> fired;
  const auto record = [&] { fired.push_back(e.now()); };
  EventId later = 0;
  (void)e.schedule_at(1.0, [&] {
    record();
    e.cancel(later);
  });
  later = e.schedule_at(5.0, record);
  e.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  (void)e.schedule_at(6.0, record);
  (void)e.schedule_at(4.0, record);
  e.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 4.0, 6.0}));
  EXPECT_EQ(e.events_processed(), 3u);
}

// A callback cancels the event that would be popped next, then pushes
// (its push takes the popped root's place) or pushes nothing (the next
// pop completes the removal). Either way the cancelled event never runs.
TEST(Engine, CallbackCancelsTheEventThatWouldBeNext) {
  for (const bool pushes : {true, false}) {
    Engine e;
    std::vector<double> fired;
    const auto record = [&] { fired.push_back(e.now()); };
    EventId next = 0;
    (void)e.schedule_at(1.0, [&] {
      record();
      e.cancel(next);
      if (pushes) (void)e.schedule_at(3.0, record);
    });
    next = e.schedule_at(2.0, record);
    (void)e.schedule_at(2.0, record);
    (void)e.schedule_at(4.0, record);
    e.run();
    const std::vector<double> want =
        pushes ? std::vector<double>{1.0, 2.0, 3.0, 4.0} : std::vector<double>{1.0, 2.0, 4.0};
    EXPECT_EQ(fired, want) << "pushes " << pushes;
  }
}

}  // namespace
