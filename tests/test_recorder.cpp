// Flight-recorder unit and contention tests: event round-trips through
// the per-thread seqlock rings, wrap/drop accounting, both dump
// serializations, auto-dump plumbing, the BLADE_OBS_EVENT toggle
// contract, and the SLO burn-rate monitors (obs/slo.hpp).
//
// The contention suites ride the `fast` label into the TSan preset:
// K writer threads hammer record() while the main thread dumps, which
// is exactly the claimed-safe concurrent schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded.hpp"
#include "model/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "util/json.hpp"

namespace {

using blade::obs::Cause;
using blade::obs::Dump;
using blade::obs::Event;
using blade::obs::EventType;
using blade::obs::recorder;
using blade::util::JsonValue;

/// Restores default capacity and clears all rings around each test so
/// suites cannot leak events into each other (the recorder is a
/// process-global).
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    recorder().set_dump_sink(nullptr);
    recorder().set_capacity(4096);
    recorder().reset();
  }
  void TearDown() override {
    recorder().set_dump_sink(nullptr);
    recorder().set_capacity(4096);
    recorder().reset();
  }
};

TEST_F(RecorderTest, EventRoundTripsThroughRing) {
  recorder().record(EventType::ShedDecision, 0, 3.5, 4.25, 0.125);
  recorder().record(EventType::ModeTransition, static_cast<std::uint32_t>(Cause::SolverError),
                    0.0, 2.0, 17.0);
  const Dump dump = recorder().dump("test");
  EXPECT_EQ(dump.reason, "test");
  const std::vector<Event> events = dump.merged();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::ShedDecision);
  EXPECT_DOUBLE_EQ(events[0].a, 3.5);
  EXPECT_DOUBLE_EQ(events[0].b, 4.25);
  EXPECT_DOUBLE_EQ(events[0].c, 0.125);
  EXPECT_EQ(events[1].type, EventType::ModeTransition);
  EXPECT_EQ(static_cast<Cause>(events[1].id), Cause::SolverError);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(events[0].seq + 1, events[1].seq);
}

TEST_F(RecorderTest, WrapKeepsNewestAndCountsDropped) {
  recorder().set_capacity(64);
  recorder().reset();
  constexpr int kExtra = 37;
  for (int i = 0; i < 64 + kExtra; ++i) {
    recorder().record(EventType::Dispatch, static_cast<std::uint32_t>(i), i, 0.0, 0.0);
  }
  const Dump dump = recorder().dump();
  ASSERT_EQ(dump.rings.size(), 1u);
  EXPECT_EQ(dump.rings[0].recorded, 64u + kExtra);
  EXPECT_EQ(dump.rings[0].events.size(), 64u);
  EXPECT_EQ(dump.rings[0].dropped, static_cast<std::uint64_t>(kExtra));
  EXPECT_EQ(dump.total_dropped(), static_cast<std::uint64_t>(kExtra));
  // The survivors are the newest 64, in order.
  const std::vector<Event> events = dump.merged();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, static_cast<std::uint32_t>(kExtra + i));
  }
}

TEST_F(RecorderTest, CapacityRoundsUpToPowerOfTwoMinimum64) {
  recorder().set_capacity(1);
  EXPECT_EQ(recorder().capacity(), 64u);
  recorder().set_capacity(65);
  EXPECT_EQ(recorder().capacity(), 128u);
  recorder().set_capacity(512);
  EXPECT_EQ(recorder().capacity(), 512u);
}

TEST_F(RecorderTest, ResetDropsEverything) {
  recorder().record(EventType::Dispatch, 1, 0.0, 0.0, 0.0);
  recorder().reset();
  EXPECT_EQ(recorder().dump().total_events(), 0u);
}

TEST_F(RecorderTest, MacroRespectsBuildToggle) {
  BLADE_OBS_EVENT(EpochMark, 9, 1.0, 2.0, 3.0);
  const Dump dump = recorder().dump();
#if BLADE_OBS_ENABLED
  ASSERT_EQ(dump.total_events(), 1u);
  EXPECT_EQ(dump.merged()[0].type, EventType::EpochMark);
  EXPECT_EQ(dump.merged()[0].id, 9u);
#else
  EXPECT_EQ(dump.total_events(), 0u);
#endif
}

// Every solve records solve_start, and solve_end on every exit, the
// invalid and infeasible ones included; the start's id is the cell count
// of a multi-cell solve and 0 for one cell. A one-cell solve counts
// under optimizer.solves, a multi-cell one under solver.shard.solves.
TEST_F(RecorderTest, SolvesRecordStartAndEndOnEveryExit) {
  const std::vector<unsigned> sizes = {4, 2, 1, 3, 2, 1, 4, 2};
  const std::vector<double> speeds = {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.6, 1.1};
  const auto cluster = blade::model::make_cluster(sizes, speeds, 1.0, 0.2);
  const double lambda_max = cluster.max_generic_rate();
  auto count = [](const char* name) -> std::uint64_t {
    const blade::obs::Snapshot snap = blade::obs::registry().snapshot();
    const blade::obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->count : 0;
  };
  for (const std::size_t cells : {std::size_t{1}, std::size_t{4}}) {
    recorder().reset();
    const std::uint64_t one_cell_before = count("optimizer.solves");
    const std::uint64_t multi_cell_before = count("solver.shard.solves");
    blade::opt::ShardOptions shard;
    shard.cells = cells;
    const blade::opt::ShardedOptimizer solver(cluster, blade::queue::Discipline::Fcfs, {}, shard);
    EXPECT_TRUE(solver.try_optimize(0.5 * lambda_max).has_value());
    EXPECT_FALSE(solver.try_optimize(-1.0).has_value());
    EXPECT_FALSE(solver.try_optimize(2.0 * lambda_max).has_value());
    std::vector<Event> starts;
    std::vector<Event> ends;
    for (const Event& e : recorder().dump().merged()) {
      if (e.type == EventType::SolveStart) starts.push_back(e);
      if (e.type == EventType::SolveEnd) ends.push_back(e);
    }
#if BLADE_OBS_ENABLED
    ASSERT_EQ(starts.size(), 3u) << "cells=" << cells;
    ASSERT_EQ(ends.size(), 3u) << "cells=" << cells;
    for (const Event& e : starts) EXPECT_EQ(e.id, cells == 1 ? 0u : cells);
    EXPECT_EQ(ends[0].id, static_cast<std::uint32_t>(blade::ErrorCode::Ok));
    EXPECT_EQ(ends[1].id, static_cast<std::uint32_t>(blade::ErrorCode::InvalidArgument));
    EXPECT_EQ(ends[2].id, static_cast<std::uint32_t>(blade::ErrorCode::Infeasible));
    EXPECT_EQ(count("optimizer.solves") - one_cell_before, cells == 1 ? 1u : 0u);
    EXPECT_EQ(count("solver.shard.solves") - multi_cell_before, cells == 1 ? 0u : 1u);
#else
    EXPECT_TRUE(starts.empty() && ends.empty());
    EXPECT_EQ(count("optimizer.solves") + count("solver.shard.solves"),
              one_cell_before + multi_cell_before);
#endif
  }
}

TEST_F(RecorderTest, JsonlParsesLineByLine) {
  const std::uint32_t label = recorder().intern_label("solver/outer");
  recorder().record(EventType::SolveStart, 0, 5.0, 9.0, 0.0);
  recorder().record(EventType::ResolveTrigger, static_cast<std::uint32_t>(Cause::Drift), 0.05,
                    0.02, 11.0);
  recorder().record(EventType::SpanEnd, label, 0.001, 0.0, 0.0);
  const std::string jsonl = blade::obs::to_jsonl(recorder().dump("jsonl-test"));

  std::istringstream in(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue header = blade::util::parse_json(line);
  ASSERT_NE(header.find("schema"), nullptr);
  EXPECT_EQ(header.find("schema")->string, "blade.recorder.v1");
  EXPECT_EQ(header.find("reason")->string, "jsonl-test");

  std::vector<JsonValue> events;
  while (std::getline(in, line)) {
    if (!line.empty()) events.push_back(blade::util::parse_json(line));
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].find("type")->string, "solve_start");
  EXPECT_EQ(events[1].find("type")->string, "resolve_trigger");
  ASSERT_NE(events[1].find("cause"), nullptr);
  EXPECT_EQ(events[1].find("cause")->string, "drift");
  EXPECT_DOUBLE_EQ(events[1].find("a")->number, 0.05);
  ASSERT_NE(events[2].find("label"), nullptr);
  EXPECT_EQ(events[2].find("label")->string, "solver/outer");
}

TEST_F(RecorderTest, ChromeTracePairsSolvesAndEmitsInstants) {
  recorder().record(EventType::SolveStart, 0, 5.0, 9.0, 0.0);
  recorder().record(EventType::SolveEnd, 0, 1.25, 7.0, 120.0);
  recorder().record(EventType::ModeTransition, static_cast<std::uint32_t>(Cause::Infeasible),
                    0.0, 3.0, 20.0);
  const std::string trace = blade::obs::to_chrome_trace(recorder().dump());
  const JsonValue doc = blade::util::parse_json(trace);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_solve_span = false;
  bool saw_mode_instant = false;
  bool saw_thread_meta = false;
  for (const JsonValue& e : events->array) {
    const std::string ph = e.find("ph")->string;
    const std::string name = e.find("name")->string;
    if (ph == "X" && name == "solve") {
      saw_solve_span = true;
      EXPECT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->number, 0.0);
    }
    if (ph == "i" && name == "mode_transition:infeasible") saw_mode_instant = true;
    if (ph == "M" && name == "thread_name") saw_thread_meta = true;
  }
  EXPECT_TRUE(saw_solve_span);
  EXPECT_TRUE(saw_mode_instant);
  EXPECT_TRUE(saw_thread_meta);
}

TEST_F(RecorderTest, WriteDumpFileSelectsFormatBySuffix) {
  recorder().record(EventType::EpochMark, 1, 0.5, 2.0, 0.0);
  const Dump dump = recorder().dump();
  const std::string jsonl_path = ::testing::TempDir() + "recorder_test_dump.jsonl";
  const std::string chrome_path = ::testing::TempDir() + "recorder_test_dump.json";
  blade::obs::write_dump_file(dump, jsonl_path);
  blade::obs::write_dump_file(dump, chrome_path);

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_NE(slurp(jsonl_path).find("blade.recorder.v1"), std::string::npos);
  const JsonValue chrome = blade::util::parse_json(slurp(chrome_path));
  EXPECT_NE(chrome.find("traceEvents"), nullptr);
  std::remove(jsonl_path.c_str());
  std::remove(chrome_path.c_str());
}

TEST_F(RecorderTest, AutoDumpRemembersAndForwardsToSink) {
  std::vector<std::string> reasons;
  recorder().set_dump_sink([&](const Dump& d) { reasons.push_back(d.reason); });
  const std::uint64_t before = recorder().auto_dumps();
  recorder().record(EventType::WatchdogTrip, 6, 0.0, 0.0, 0.0);
  recorder().auto_dump("watchdog");
  EXPECT_EQ(recorder().auto_dumps(), before + 1);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "watchdog");
  const Dump last = recorder().last_auto_dump();
  EXPECT_EQ(last.reason, "watchdog");
  EXPECT_EQ(last.total_events(), 1u);
}

TEST_F(RecorderTest, ConcurrentWritersAndDumperAccountExactly) {
  // K writers record while the main thread dumps continuously. Seqlock
  // validation may discard torn slots (counted as dropped), but
  // recorded == retained-at-end + dropped-at-end must hold exactly and
  // every surviving event must be internally consistent.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  recorder().set_capacity(256);
  recorder().reset();
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([w, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        recorder().record(EventType::Dispatch, static_cast<std::uint32_t>(w),
                          static_cast<double>(i), 0.0, 0.0);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int d = 0; d < 50; ++d) {
    const Dump mid = recorder().dump("mid-flight");
    for (const auto& ring : mid.rings) {
      EXPECT_EQ(ring.recorded, ring.dropped + ring.events.size());
    }
  }
  for (auto& t : writers) t.join();

  const Dump final_dump = recorder().dump("final");
  std::uint64_t recorded_total = 0;
  for (const auto& ring : final_dump.rings) {
    EXPECT_EQ(ring.recorded, ring.dropped + ring.events.size());
    recorded_total += ring.recorded;
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const Event& e : ring.events) {
      EXPECT_EQ(e.type, EventType::Dispatch);
      EXPECT_LT(e.id, static_cast<std::uint32_t>(kThreads));
      if (!first) {
        EXPECT_GT(e.seq, prev_seq);
      }
      prev_seq = e.seq;
      first = false;
    }
  }
  EXPECT_EQ(recorded_total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(RecorderTest, ConcurrentAutoDumpsDoNotLoseCount) {
  constexpr int kThreads = 4;
  constexpr int kDumpsPerThread = 25;
  const std::uint64_t before = recorder().auto_dumps();
  std::atomic<int> sink_calls{0};
  recorder().set_dump_sink([&](const Dump&) { sink_calls.fetch_add(1); });
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([w] {
      for (int i = 0; i < kDumpsPerThread; ++i) {
        recorder().record(EventType::EpochMark, static_cast<std::uint32_t>(w), i, 0.0, 0.0);
        recorder().auto_dump("stress");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorder().auto_dumps() - before,
            static_cast<std::uint64_t>(kThreads) * kDumpsPerThread);
  EXPECT_EQ(sink_calls.load(), kThreads * kDumpsPerThread);
}

// ---------------------------------------------------------------------------
// SLO burn-rate monitors.

TEST(BurnRateMonitor, BurnRateIsBadFractionOverErrorBudget) {
  // objective 0.9 => error budget 0.1. 2 bad of 10 => burn 2.0.
  blade::obs::BurnRateMonitor m("test", 0.9, 100.0);
  for (int i = 0; i < 8; ++i) m.observe(static_cast<double>(i), true);
  m.observe(8.0, false);
  m.observe(9.0, false);
  EXPECT_NEAR(m.burn_rate(), 2.0, 1e-12);
  EXPECT_EQ(m.breaches(), 2u);
  EXPECT_EQ(m.samples(), 10u);
}

TEST(BurnRateMonitor, WindowForgetsOldObservations) {
  blade::obs::BurnRateMonitor m("test", 0.5, 10.0);
  m.observe(0.0, false);
  EXPECT_NEAR(m.burn_rate(), 2.0, 1e-12);  // 1 bad of 1 over budget 0.5
  for (int i = 1; i <= 20; ++i) m.observe(static_cast<double>(i), true);
  // The bad sample at t=0 fell out of the trailing window.
  EXPECT_NEAR(m.burn_rate(), 0.0, 1e-12);
  EXPECT_EQ(m.breaches(), 1u);  // breaches are cumulative, not windowed
}

TEST(SloSet, EvaluatesEpochsAndFormatsLines) {
  blade::obs::SloTargets targets;
  targets.response_time = 2.0;
  targets.max_shed_fraction = 0.1;
  targets.window = 40.0;
  blade::obs::SloSet set(targets);

  blade::obs::SloEpoch good;
  good.index = 1;
  good.total = 2;
  good.t0 = 0.0;
  good.t1 = 10.0;
  good.mean_response = 1.5;
  good.response_samples = 100;
  good.shed_fraction = 0.0;
  const auto ok = set.observe(good);
  EXPECT_TRUE(ok.ok);
  EXPECT_NE(ok.line.find("slo epoch 1/2"), std::string::npos);
  EXPECT_NE(ok.line.find("OK"), std::string::npos);

  blade::obs::SloEpoch bad = good;
  bad.index = 2;
  bad.t0 = 10.0;
  bad.t1 = 20.0;
  bad.mean_response = 3.0;  // violates the T' target
  const auto breach = set.observe(bad);
  EXPECT_FALSE(breach.ok);
  EXPECT_NE(breach.line.find("BREACH"), std::string::npos);
  EXPECT_GT(breach.worst_burn, 0.0);
  EXPECT_EQ(set.total_breaches(), 1u);
}

TEST(SloSet, EmptyEpochsCountGood) {
  blade::obs::SloTargets targets;
  targets.response_time = 1.0;
  targets.resolve_latency = 0.5;
  targets.window = 10.0;
  blade::obs::SloSet set(targets);
  blade::obs::SloEpoch idle;  // zero samples, zero resolves
  idle.index = 1;
  idle.total = 1;
  idle.t1 = 1.0;
  EXPECT_TRUE(set.observe(idle).ok);
  EXPECT_EQ(set.total_breaches(), 0u);
}

TEST(SloTargets, ValidationRejectsBadDomains) {
  blade::obs::SloTargets t;
  t.objective = 1.0;  // must be in (0, 1)
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.objective = 0.99;
  t.response_time = -1.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.response_time = 1.0;
  t.window = 10.0;
  EXPECT_NO_THROW(t.validate());
}

}  // namespace
