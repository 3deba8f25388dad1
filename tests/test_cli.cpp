// CLI layer: spec parsing (round trips, defaults, error reporting) and
// the command functions including the argv driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/app.hpp"
#include "cli/bench_gate.hpp"
#include "cli/spec.hpp"
#include "obs/build_info.hpp"
#include "util/json.hpp"

namespace {

using namespace blade;
using cli::parse_cluster_spec;
using cli::SpecError;

constexpr const char* kSpec = R"(
# demo cluster
rbar = 1.0
preload = 0.3
server 2 1.6
server 4 1.5
server 6 1.4 2.52   # explicit special rate
)";

TEST(Spec, ParsesServersAndDefaults) {
  const auto c = parse_cluster_spec(kSpec);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c.rbar(), 1.0);
  EXPECT_EQ(c.server(0).size(), 2u);
  EXPECT_DOUBLE_EQ(c.server(0).speed(), 1.6);
  // preload 0.3: lambda'' = 0.3 * 2 * 1.6 = 0.96.
  EXPECT_NEAR(c.server(0).special_rate(), 0.96, 1e-12);
  // Explicit rate wins over the preload default.
  EXPECT_NEAR(c.server(2).special_rate(), 2.52, 1e-12);
}

TEST(Spec, RbarDirective) {
  const auto c = parse_cluster_spec("rbar = 2.0\npreload = 0\nserver 1 1.0\n");
  EXPECT_DOUBLE_EQ(c.rbar(), 2.0);
  EXPECT_DOUBLE_EQ(c.server(0).special_rate(), 0.0);
}

TEST(Spec, CommentsAndBlankLinesIgnored) {
  const auto c = parse_cluster_spec("\n# hi\n  \nserver 1 1.0 0.1  # tail comment\n");
  EXPECT_EQ(c.size(), 1u);
}

TEST(Spec, ErrorsNameTheLine) {
  try {
    (void)parse_cluster_spec("rbar = 1.0\nserver 2\n");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Spec, RejectsBadInput) {
  EXPECT_THROW((void)parse_cluster_spec(""), SpecError);
  EXPECT_THROW((void)parse_cluster_spec("frobnicate 1 2\n"), SpecError);
  EXPECT_THROW((void)parse_cluster_spec("server 0 1.0 0.0\n"), SpecError);
  EXPECT_THROW((void)parse_cluster_spec("server 2 -1.0 0.0\n"), SpecError);
  EXPECT_THROW((void)parse_cluster_spec("server 2 1.0 -0.5\n"), SpecError);
  EXPECT_THROW((void)parse_cluster_spec("server 2 1.0\n"), SpecError);  // no preload default
  EXPECT_THROW((void)parse_cluster_spec("preload = 1.5\nserver 2 1.0\n"), SpecError);
  EXPECT_THROW((void)parse_cluster_spec("rbar = x\nserver 1 1 0\n"), SpecError);
  EXPECT_THROW((void)parse_cluster_spec("server 2.5 1.0 0.0\n"), SpecError);
}

TEST(Spec, RoundTripsThroughToSpec) {
  const auto c = parse_cluster_spec(kSpec);
  const auto again = parse_cluster_spec(cli::to_spec(c));
  ASSERT_EQ(again.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(again.server(i).size(), c.server(i).size());
    EXPECT_DOUBLE_EQ(again.server(i).speed(), c.server(i).speed());
    EXPECT_NEAR(again.server(i).special_rate(), c.server(i).special_rate(), 1e-12);
  }
}

TEST(Spec, LoadFromMissingFileFails) {
  EXPECT_THROW((void)cli::load_cluster_spec("/nonexistent/path.spec"), SpecError);
}

TEST(App, OptimizeReportContainsSolution) {
  const auto c = parse_cluster_spec(kSpec);
  const auto out = cli::run_optimize(c, 8.0, {});
  EXPECT_NE(out.find("minimized T'"), std::string::npos);
  EXPECT_NE(out.find("fcfs"), std::string::npos);
  const cli::CommonOptions prio{queue::Discipline::SpecialPriority, 1.0};
  EXPECT_NE(cli::run_optimize(c, 8.0, prio).find("priority"), std::string::npos);
}

TEST(App, OptimizeRejectsInfeasibleLambda) {
  const auto c = parse_cluster_spec(kSpec);
  EXPECT_THROW((void)cli::run_optimize(c, 1000.0, {}), std::invalid_argument);
  EXPECT_THROW((void)cli::run_optimize(c, 0.0, {}), std::invalid_argument);
}

TEST(App, SweepEmitsCsvRows) {
  const auto c = parse_cluster_spec(kSpec);
  const auto out = cli::run_sweep(c, 2.0, 10.0, 5, {});
  EXPECT_NE(out.find("lambda,T"), std::string::npos);
  // Header + 5 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
  EXPECT_THROW((void)cli::run_sweep(c, 5.0, 2.0, 5, {}), std::invalid_argument);
  EXPECT_THROW((void)cli::run_sweep(c, 2.0, 10.0, 1, {}), std::invalid_argument);
}

TEST(App, ValidateReportsCi) {
  const auto c = parse_cluster_spec(kSpec);
  const auto out = cli::run_validate(c, 6.0, 3, 1, {});
  EXPECT_NE(out.find("simulated T'"), std::string::npos);
  EXPECT_NE(out.find("95% CI"), std::string::npos);
  cli::CommonOptions scv;
  scv.service_scv = 2.0;
  EXPECT_THROW((void)cli::run_validate(c, 6.0, 3, 1, scv), std::invalid_argument);
}

TEST(App, SensitivityReportHasAllKnobs) {
  const auto c = parse_cluster_spec(kSpec);
  const auto out = cli::run_sensitivity(c, 6.0, {});
  EXPECT_NE(out.find("dT'/dlambda'"), std::string::npos);
  EXPECT_NE(out.find("one extra blade"), std::string::npos);
}

TEST(App, PercentilesReportPerServerQuantiles) {
  const auto c = parse_cluster_spec(kSpec);
  const auto out = cli::run_percentiles(c, 8.0, {});
  EXPECT_NE(out.find("p99 T"), std::string::npos);
  EXPECT_NE(out.find("P(wait)"), std::string::npos);
  cli::CommonOptions prio{queue::Discipline::SpecialPriority, 1.0};
  EXPECT_THROW((void)cli::run_percentiles(c, 8.0, prio), std::invalid_argument);
}

TEST(App, AllocateRepacksBlades) {
  const auto c = parse_cluster_spec(kSpec);
  const auto out = cli::run_allocate(c, 6.0, {});
  EXPECT_NE(out.find("redesigned blades per chassis"), std::string::npos);
  EXPECT_NE(out.find("current layout"), std::string::npos);
}

TEST(App, TraceComparesAdaptiveAndStatic) {
  const auto c = parse_cluster_spec(kSpec);
  const auto out = cli::run_trace(c, 3.0, 9.0, {});
  EXPECT_NE(out.find("adaptive"), std::string::npos);
  EXPECT_NE(out.find("static split"), std::string::npos);
}

TEST(App, ScvChangesTheAnswer) {
  const auto c = parse_cluster_spec(kSpec);
  cli::CommonOptions det;
  det.service_scv = 0.0;
  const auto exp_out = cli::run_optimize(c, 8.0, {});
  const auto det_out = cli::run_optimize(c, 8.0, det);
  EXPECT_NE(exp_out, det_out);
}

/// A scratch file name unique to the running test. ctest runs every test
/// as its own process, in parallel: a name shared between tests lets one
/// test's TearDown delete the file another test is reading.
std::string test_file(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "." + info->name() + suffix;
}

class CliDriver : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test_file(".spec");
    std::ofstream(path_) << kSpec;
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CliDriver, DispatchesOptimize) {
  const auto out = cli::run_cli({"optimize", path_, "8.0"});
  EXPECT_NE(out.find("minimized T'"), std::string::npos);
}

TEST_F(CliDriver, DispatchesSweepWithPriorityFlag) {
  const auto out = cli::run_cli({"sweep", path_, "2", "9", "4", "--priority"});
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST_F(CliDriver, FlagsParsed) {
  const auto out = cli::run_cli({"validate", path_, "6.0", "--reps", "3", "--seed", "42"});
  EXPECT_NE(out.find("3 replications"), std::string::npos);
}

TEST(App, FiguresCommandFormats) {
  const auto csv = cli::run_figure(12, "csv", 6);
  EXPECT_NE(csv.find("series,lambda',T'"), std::string::npos);
  const auto json = cli::run_figure(12, "json", 6);
  EXPECT_NE(json.find("\"id\":\"fig12\""), std::string::npos);
  const auto art = cli::run_figure(12, "ascii", 6);
  EXPECT_NE(art.find("legend:"), std::string::npos);
  EXPECT_THROW((void)cli::run_figure(12, "xml", 6), std::invalid_argument);
  EXPECT_THROW((void)cli::run_figure(3, "csv", 6), std::invalid_argument);
}

TEST_F(CliDriver, DispatchesPercentilesAllocateTrace) {
  EXPECT_NE(cli::run_cli({"percentiles", path_, "6.0"}).find("p99"), std::string::npos);
  EXPECT_NE(cli::run_cli({"allocate", path_, "6.0"}).find("redesigned"), std::string::npos);
  EXPECT_NE(cli::run_cli({"trace", path_, "3", "9"}).find("adaptive"), std::string::npos);
}

TEST_F(CliDriver, DispatchesConsolidate) {
  const auto out = cli::run_cli({"consolidate", path_, "3", "8", "1.5"});
  EXPECT_NE(out.find("blade-time switched off"), std::string::npos);
  EXPECT_NE(out.find("active blades"), std::string::npos);
}

TEST_F(CliDriver, BadInvocationsThrowWithUsage) {
  EXPECT_THROW((void)cli::run_cli({}), std::invalid_argument);
  EXPECT_THROW((void)cli::run_cli({"bogus", path_, "1"}), std::invalid_argument);
  EXPECT_THROW((void)cli::run_cli({"optimize", path_}), std::invalid_argument);
  EXPECT_THROW((void)cli::run_cli({"optimize", path_, "8.0", "--wat"}), std::invalid_argument);
  EXPECT_THROW((void)cli::run_cli({"optimize", "/missing.spec", "8.0"}), cli::SpecError);
}

TEST(App, VersionFlagPrintsBuildInfo) {
  // --version short-circuits the command dispatch entirely.
  const auto out = cli::run_cli({"--version"});
  EXPECT_NE(out.find("bladecloud"), std::string::npos);
  EXPECT_NE(out.find("BLADE_OBS"), std::string::npos);
  EXPECT_NE(out.find(obs::build_info().git_hash), std::string::npos);
}

TEST_F(CliDriver, MetricsOutWritesParseableJson) {
  const std::string mpath = ::testing::TempDir() + "cli_metrics.json";
  const auto out = cli::run_cli({"optimize", path_, "8.0", "--metrics-out", mpath});
  EXPECT_NE(out.find("minimized T'"), std::string::npos);
  std::ifstream in(mpath);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = util::parse_json(buf.str());
  EXPECT_EQ(doc.at("build").at("obs").boolean, obs::build_info().obs_enabled);
  if (obs::build_info().obs_enabled) {
    bool saw_solves = false;
    for (const auto& m : doc.at("metrics").array) {
      if (m.at("name").string == "optimizer.solves") saw_solves = true;
    }
    EXPECT_TRUE(saw_solves);
  }
  std::remove(mpath.c_str());
}

TEST_F(CliDriver, MetricsFormatSelectsRenderer) {
  const std::string mpath = ::testing::TempDir() + "cli_metrics.csv";
  (void)cli::run_cli({"optimize", path_, "8.0", "--metrics-out", mpath, "--metrics-format",
                      "csv"});
  std::ifstream in(mpath);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "name,kind,count,value,sum,mean,p50,p90,p99");
  std::remove(mpath.c_str());
  EXPECT_THROW((void)cli::run_cli({"optimize", path_, "8.0", "--metrics-out", mpath,
                                   "--metrics-format", "yaml"}),
               std::invalid_argument);
}

TEST_F(CliDriver, VerboseFlagStillReturnsTheReport) {
  // --verbose routes solver summaries to stderr; the report is unchanged.
  const auto quiet = cli::run_cli({"optimize", path_, "8.0"});
  const auto loud = cli::run_cli({"optimize", path_, "8.0", "--verbose"});
  EXPECT_EQ(quiet, loud);
}

TEST_F(CliDriver, MetricsOutDashAppendsToReport) {
  const auto out = cli::run_cli({"optimize", path_, "8.0", "--metrics-out", "-"});
  EXPECT_NE(out.find("minimized T'"), std::string::npos);
  // The JSON rendering rides the report itself instead of a file.
  const std::size_t json_at = out.find("{\"build\":");
  ASSERT_NE(json_at, std::string::npos);
  const auto doc = util::parse_json(out.substr(json_at));
  EXPECT_EQ(doc.at("build").at("obs").boolean, obs::build_info().obs_enabled);
}

class CliServeReplay : public CliDriver {
 protected:
  void SetUp() override {
    CliDriver::SetUp();
    trace_path_ = test_file(".trace");
    std::ofstream(trace_path_) << "horizon 300\nseed 7\nrate 0 4.0\nrate 100 7.0\n"
                                  "fail 150 2\nrecover 200 2\n";
  }
  void TearDown() override {
    std::remove(trace_path_.c_str());
    CliDriver::TearDown();
  }
  std::string trace_path_;
};

TEST_F(CliServeReplay, SloTargetPrintsEpochLinesAndSummary) {
  const auto out = cli::run_cli(
      {"serve-replay", path_, trace_path_, "--slo-target", "5.0", "--slo-epochs", "4"});
  std::size_t epoch_lines = 0;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("slo epoch ", 0) == 0) ++epoch_lines;
  }
  EXPECT_EQ(epoch_lines, 4u);
  EXPECT_NE(out.find("slo epoch 1/4"), std::string::npos);
  EXPECT_NE(out.find("objective breach"), std::string::npos);
}

TEST_F(CliServeReplay, RecorderOutWritesJsonlDump) {
  const std::string dump_path = ::testing::TempDir() + "cli_serve.jsonl";
  const auto out = cli::run_cli({"serve-replay", path_, trace_path_, "--recorder-out", dump_path,
                                 "--recorder-capacity", "2048"});
  EXPECT_NE(out.find("flight recorder"), std::string::npos);
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const auto doc = util::parse_json(header);
  EXPECT_EQ(doc.at("schema").string, "blade.recorder.v1");
  std::size_t events = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    (void)util::parse_json(line);  // every event line is valid JSON
    ++events;
  }
  if (obs::build_info().obs_enabled) {
    // The controller publishes at least once per rate epoch, so an
    // instrumented build always captures events.
    EXPECT_GT(events, 0u);
  }
  std::remove(dump_path.c_str());
}

TEST_F(CliServeReplay, RecorderOutJsonWritesChromeTrace) {
  const std::string dump_path = ::testing::TempDir() + "cli_serve_trace.json";
  (void)cli::run_cli({"serve-replay", path_, trace_path_, "--recorder-out", dump_path});
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = util::parse_json(buf.str());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  // Track metadata is always present; in instrumented builds the solves
  // and mode transitions ride the same array.
  EXPECT_FALSE(doc.at("traceEvents").array.empty());
  std::remove(dump_path.c_str());
}

TEST_F(CliServeReplay, SloFlagValidation) {
  EXPECT_THROW((void)cli::run_cli({"serve-replay", path_, trace_path_, "--slo-target", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)cli::run_cli({"serve-replay", path_, trace_path_, "--slo-epochs", "0"}),
               std::invalid_argument);
}

std::string measured_t_line(const std::string& report) {
  const std::size_t at = report.find("measured T'");
  return at == std::string::npos ? "" : report.substr(at, report.find('\n', at) - at);
}

TEST_F(CliDriver, SimRunsTheNamedPolicy) {
  const auto out = cli::run_cli({"sim", path_, "6.0", "--policy", "jsq-d", "--probe-d", "3"});
  EXPECT_NE(out.find("policy jsq-d (d = 3)"), std::string::npos);
  EXPECT_NE(out.find("measured split"), std::string::npos);
  EXPECT_NE(out.find("= 3.000 per task"), std::string::npos) << out;
}

TEST_F(CliDriver, SimPriorityQueuesByPriority) {
  const auto fcfs = cli::run_cli({"sim", path_, "6.0"});
  const auto priority = cli::run_cli({"sim", path_, "6.0", "--priority"});
  EXPECT_NE(priority.find("policy opt-split"), std::string::npos);
  EXPECT_NE(measured_t_line(priority), "");
  EXPECT_NE(measured_t_line(priority), measured_t_line(fcfs));
}

TEST_F(CliServeReplay, PolicyReplayHonoursPriority) {
  const auto fcfs = cli::run_cli({"serve-replay", path_, trace_path_, "--policy", "opt-split"});
  const auto priority = cli::run_cli(
      {"serve-replay", path_, trace_path_, "--policy", "opt-split", "--priority"});
  EXPECT_NE(priority.find("through policy opt-split"), std::string::npos);
  EXPECT_NE(measured_t_line(priority), "");
  EXPECT_NE(measured_t_line(priority), measured_t_line(fcfs));
}

TEST_F(CliServeReplay, PolicyReplayRejectsControllerFlags) {
  const std::vector<std::vector<std::string>> flags = {
      {"--half-life", "3"},
      {"--ceiling", "0.9"},
      {"--loss-threshold", "0.05"},
      {"--health"},
      {"--health-suspect", "0.6"},
      {"--checkpoint-out", "x.ckpt"},
      {"--checkpoint-every", "10"},
      {"--checkpoint-in", "x.ckpt"},
      {"--shards", "2"},
      {"--prune-k", "1"},
      {"--slo-target", "5"},
      {"--slo-epochs", "4"},
      {"--recorder-out", "x.jsonl"},
      {"--recorder-capacity", "64"},
  };
  for (const auto& flag : flags) {
    std::vector<std::string> args = {"serve-replay", path_, trace_path_, "--policy", "jsq-d"};
    args.insert(args.end(), flag.begin(), flag.end());
    try {
      (void)cli::run_cli(args);
      ADD_FAILURE() << flag[0] << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag[0]), std::string::npos) << e.what();
    }
  }
}

// --drift set the old estimate-movement threshold; it is rejected rather
// than read as the predicted-loss threshold, which measures something
// else, and the error names the flag that replaced it.
TEST_F(CliServeReplay, DriftFlagIsRejectedNamingLossThreshold) {
  try {
    (void)cli::run_cli({"serve-replay", path_, trace_path_, "--drift", "0.02"});
    ADD_FAILURE() << "--drift was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--loss-threshold"), std::string::npos) << e.what();
  }
}

// The controller report splits the drift checks by the test that fired
// them, and --loss-threshold moves the split between fired and skipped.
TEST_F(CliServeReplay, LossThresholdIsHonoured) {
  auto checks_line = [&](const char* threshold) {
    const auto out = cli::run_cli(
        {"serve-replay", path_, trace_path_, "--loss-threshold", threshold});
    const std::size_t at = out.find("drift checks");
    EXPECT_NE(at, std::string::npos) << out;
    return at == std::string::npos ? "" : out.substr(at, out.find('\n', at) - at);
  };
  const std::string eager = checks_line("0");
  const std::string lazy = checks_line("0.5");
  EXPECT_NE(eager.find("predicted loss"), std::string::npos) << eager;
  EXPECT_NE(lazy.find("(threshold 0.5)"), std::string::npos) << lazy;
  EXPECT_NE(lazy.find(" evaluations each "), std::string::npos) << lazy;
  EXPECT_NE(eager, lazy);
}

// Every flag in usage() is honoured or rejected with an error naming the
// flag and the command, never ignored; `serve-replay --policy` counts as a
// command of its own. An honoured pair is shown by a missing spec (for
// figures, a malformed figure number): the flag check passes and the
// command then fails with that error instead. A flag that needs another
// (--prune-k needs --shards, the --health-* knobs need --health, ...) is
// rejected without it, naming both.
TEST_F(CliServeReplay, SolverFlagsAreHonouredOrRejected) {
  const std::string spec = ::testing::TempDir() + "no-such-file.spec";
  const std::vector<std::pair<std::string, std::vector<std::string>>> commands = {
      {"optimize", {"optimize", spec, "8.0"}},
      {"sweep", {"sweep", spec, "2", "9", "3"}},
      {"validate", {"validate", spec, "6.0"}},
      {"sensitivity", {"sensitivity", spec, "6.0"}},
      {"percentiles", {"percentiles", spec, "6.0"}},
      {"allocate", {"allocate", spec, "6.0"}},
      {"trace", {"trace", spec, "3", "9"}},
      {"sim", {"sim", spec, "6.0"}},
      {"serve-replay", {"serve-replay", spec, trace_path_}},
      {"serve-replay --policy", {"serve-replay", spec, trace_path_, "--policy", "jsq-d"}},
      {"figures", {"figures", "x", "csv"}},
      {"consolidate", {"consolidate", spec, "3", "8", "1.5"}},
  };
  std::vector<std::string> every;
  for (const auto& command : commands) every.push_back(command.first);
  std::vector<std::string> modelled = every;  // every command but figures
  std::erase(modelled, "figures");
  const std::vector<std::string> replay = {"serve-replay"};
  const std::vector<std::string> replays = {"serve-replay", "serve-replay --policy"};
  const std::vector<std::string> policies = {"sim", "serve-replay --policy"};
  struct Flag {
    std::vector<std::string> given;    ///< the flag and its value
    std::vector<std::string> read_by;  ///< the commands that honour it
    std::vector<std::string> needs;    ///< given with it where it is honoured
  };
  const std::vector<Flag> flags = {
      {{"--priority"}, modelled, {}},
      {{"--scv", "1"}, modelled, {}},
      {{"--reps", "2"}, {"validate"}, {}},
      // --policy turns serve-replay into serve-replay --policy.
      {{"--policy", "jsq"}, {"sim", "serve-replay", "serve-replay --policy"}, {}},
      {{"--probe-d", "3"}, policies, {}},
      {{"--seed", "3"}, {"validate", "sim", "serve-replay", "serve-replay --policy"}, {}},
      {{"--half-life", "3"}, replay, {}},
      {{"--ceiling", "0.9"}, replay, {}},
      {{"--loss-threshold", "0.05"}, replay, {}},
      {{"--chaos-seed", "3"}, replays, {}},
      {{"--chaos-profile", "heavy"}, replays, {"--chaos-seed", "3"}},
      {{"--slo-target", "5"}, replay, {}},
      {{"--slo-max-shed", "0.1"}, replay, {"--slo-target", "5"}},
      {{"--slo-epochs", "4"}, replay, {"--slo-target", "5"}},
      {{"--recorder-out", "x.jsonl"}, replay, {}},
      {{"--recorder-capacity", "64"}, replay, {"--recorder-out", "x.jsonl"}},
      {{"--health"}, replay, {}},
      {{"--health-suspect", "0.5"}, replay, {"--health"}},
      {{"--health-quarantine", "0.4"}, replay, {"--health"}},
      {{"--health-recover", "0.95"}, replay, {"--health"}},
      {{"--health-suspect-dwell", "4"}, replay, {"--health"}},
      {{"--health-quarantine-dwell", "10"}, replay, {"--health"}},
      {{"--health-probation-dwell", "10"}, replay, {"--health"}},
      {{"--health-half-life", "5"}, replay, {"--health"}},
      {{"--checkpoint-out", "x.ckpt"}, replay, {}},
      {{"--checkpoint-every", "10"}, replay, {"--checkpoint-out", "x.ckpt"}},
      {{"--checkpoint-in", "/nonexistent"}, replay, {}},
      {{"--verbose"},
       {"optimize", "sweep", "validate", "percentiles", "allocate", "sim", "serve-replay --policy"},
       {}},
      // optimize reads --threads only with --shards >= 2 (checked below).
      {{"--threads", "2"}, {"sweep", "optimize"}, {}},
      {{"--shards", "2"}, {"optimize", "serve-replay"}, {}},
      {{"--prune-k", "1"}, {"optimize", "serve-replay"}, {"--shards", "2"}},
      {{"--metrics-out", "x.json"}, every, {}},
      {{"--metrics-format", "csv"}, every, {"--metrics-out", "x.json"}},
  };

  // The table covers usage(); --version prints the build instead of
  // running any command.
  const std::string text = cli::usage();
  for (std::size_t at = text.find("--"); at != std::string::npos; at = text.find("--", at + 2)) {
    const std::size_t end = text.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at + 2);
    const std::string flag = text.substr(at, end - at);
    const bool listed = std::any_of(flags.begin(), flags.end(),
                                    [&](const Flag& f) { return f.given[0] == flag; });
    EXPECT_TRUE(listed || flag == "--version") << flag << " is in usage() but not checked";
  }

  auto error_of = [](const std::vector<std::string>& args) -> std::string {
    try {
      (void)cli::run_cli(args);
    } catch (const cli::SpecError& e) {
      return std::string("spec: ") + e.what();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  auto names = [](const std::string& err, const std::vector<std::string>& words) {
    return std::all_of(words.begin(), words.end(),
                       [&](const std::string& w) { return err.find(w) != std::string::npos; });
  };
  for (const auto& [command, base] : commands) {
    for (const Flag& flag : flags) {
      std::vector<std::string> args = base;
      args.insert(args.end(), flag.given.begin(), flag.given.end());
      const std::string what = command + " " + flag.given[0];
      if (std::find(flag.read_by.begin(), flag.read_by.end(), command) == flag.read_by.end()) {
        const std::string err = error_of(args);
        EXPECT_TRUE(names(err, {flag.given[0], command})) << what << ": " << err;
        continue;
      }
      args.insert(args.end(), flag.needs.begin(), flag.needs.end());
      if (command == "optimize" && flag.given[0] == "--threads") {
        args.insert(args.end(), {"--shards", "2"});
      }
      const std::string err = error_of(args);
      EXPECT_TRUE(err.rfind("spec: ", 0) == 0 || err.find("<number>") != std::string::npos)
          << what << ": " << err;
      if (flag.needs.empty()) continue;
      args.resize(base.size() + flag.given.size());
      const std::string bare = error_of(args);
      EXPECT_TRUE(names(bare, {flag.given[0], flag.needs[0], command})) << what << ": " << bare;
    }
  }
  for (const char* shards : {"0", "1"}) {
    const std::string err =
        error_of({"optimize", spec, "8.0", "--threads", "2", "--shards", shards});
    EXPECT_TRUE(names(err, {"--threads", "--shards >= 2", "optimize"})) << err;
  }

  // Honoured pairs run for real.
  const std::vector<std::vector<std::string>> combined = {
      {"optimize", path_, "4.0", "--shards", "2", "--prune-k", "1"},
      {"optimize", path_, "8.0", "--shards", "2", "--threads", "2"},
      {"serve-replay", path_, trace_path_, "--shards", "2", "--prune-k", "1"},
  };
  for (const auto& args : combined) {
    EXPECT_NO_THROW((void)cli::run_cli(args)) << args[0] << " " << args[3] << " " << args[5];
  }
}

// A numeric value is parsed whole: trailing junk is rejected, and an
// unsigned value takes no sign (a minus sign would wrap it around). The
// error names the flag, or the positional argument as usage() names it,
// and quotes the token. One case per numeric flag.
TEST_F(CliServeReplay, NumericValuesAreParsedWhole) {
  const std::vector<std::string> counts = {"--seed", "--chaos-seed", "--shards", "--prune-k",
                                           "--recorder-capacity"};
  std::vector<std::string> flags = {
      "--scv",
      "--half-life",
      "--ceiling",
      "--loss-threshold",
      "--slo-target",
      "--slo-max-shed",
      "--health-suspect",
      "--health-quarantine",
      "--health-recover",
      "--health-suspect-dwell",
      "--health-quarantine-dwell",
      "--health-probation-dwell",
      "--health-half-life",
      "--checkpoint-every",
      "--reps",
      "--slo-epochs",
      "--threads",
      "--probe-d",
  };
  flags.insert(flags.end(), counts.begin(), counts.end());
  auto rejected = [](const std::vector<std::string>& args, const std::string& name,
                     const std::string& token) {
    try {
      (void)cli::run_cli(args);
      ADD_FAILURE() << name << " " << token << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string err = e.what();
      EXPECT_NE(err.find(name), std::string::npos) << err;
      EXPECT_NE(err.find("'" + token + "'"), std::string::npos) << err;
    }
  };
  for (const std::string& flag : flags) {
    rejected({"serve-replay", path_, trace_path_, flag, "2x"}, flag, "2x");
  }
  for (const std::string& flag : counts) {
    rejected({"serve-replay", path_, trace_path_, flag, "-1"}, flag, "-1");
  }
  rejected({"sweep", path_, "2", "9", "-1"}, "<points>", "-1");
  rejected({"sweep", path_, "2", "9", "4x"}, "<points>", "4x");
  rejected({"optimize", path_, "8x"}, "<lambda>", "8x");
  rejected({"figures", "12x", "csv"}, "<number>", "12x");
}

// An explicit --seed 0 replays seed 0, with the controller and with
// --policy, instead of falling back to the trace file's seed (7 here);
// --chaos-seed 0 turns fault injection on with seed 0.
TEST_F(CliServeReplay, SeedZeroIsHonoured) {
  for (const bool policy : {false, true}) {
    std::vector<std::string> args = {"serve-replay", path_, trace_path_};
    if (policy) args.insert(args.end(), {"--policy", "jsq-d"});
    EXPECT_NE(cli::run_cli(args).find("(seed 7"), std::string::npos) << policy;
    args.insert(args.end(), {"--seed", "0", "--chaos-seed", "0"});
    const std::string out = cli::run_cli(args);
    EXPECT_NE(out.find("(seed 0"), std::string::npos) << out;
    EXPECT_NE(out.find("chaos             profile moderate (seed 0)"), std::string::npos) << out;
  }
}

// --- the bench_check gate (cli/bench_gate.hpp) ----------------------------

class BenchGate : public ::testing::Test {
 protected:
  /// Writes a minimal BENCH_*.json export with one counter and one timer.
  std::string write_export(const char* name, double routed, double seconds) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << R"({"metrics":[{"name":"runtime.shard.routed","count":)" << routed
        << R"(},{"name":"runtime.shard.bench.route_seconds","count":3,"sum":)" << seconds
        << "}]}";
    return path;
  }

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return cli::run_bench_check(args, out_, err_);
  }

  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(BenchGate, MaxRatioModePassesAndFails) {
  const std::string base = write_export("gate_base.json", 100.0, 1.0);
  const std::string good = write_export("gate_good.json", 150.0, 1.0);  // 1.5x <= 2x
  const std::string bad = write_export("gate_bad.json", 300.0, 1.0);    // 3x > 2x
  EXPECT_EQ(run({base, good, "runtime.shard.routed",
                 "runtime.shard.bench.route_seconds:sum", "2.0"}),
            0);
  EXPECT_NE(out_.str().find("limit"), std::string::npos);
  EXPECT_NE(out_.str().find("bench_check: OK"), std::string::npos);
  EXPECT_EQ(run({base, bad, "runtime.shard.routed",
                 "runtime.shard.bench.route_seconds:sum", "2.0"}),
            1);
  EXPECT_NE(err_.str().find("regressed beyond"), std::string::npos);
  std::remove(base.c_str());
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST_F(BenchGate, MinRatioModeIsAThroughputFloor) {
  const std::string base = write_export("gate_floor_base.json", 1000.0, 1.0);
  const std::string fast = write_export("gate_floor_fast.json", 900.0, 1.0);  // 0.9x >= 0.4x
  const std::string slow = write_export("gate_floor_slow.json", 100.0, 1.0);  // 0.1x < 0.4x
  EXPECT_EQ(run({"--min-ratio", base, fast, "runtime.shard.routed",
                 "runtime.shard.bench.route_seconds:sum", "0.4"}),
            0);
  EXPECT_NE(out_.str().find("floor"), std::string::npos);
  EXPECT_EQ(run({"--min-ratio", base, slow, "runtime.shard.routed",
                 "runtime.shard.bench.route_seconds:sum", "0.4"}),
            1);
  EXPECT_NE(err_.str().find("fell below"), std::string::npos);
  // The same inputs pass the default (cost-ceiling) direction: the modes
  // really gate opposite tails.
  EXPECT_EQ(run({base, slow, "runtime.shard.routed",
                 "runtime.shard.bench.route_seconds:sum", "2.0"}),
            0);
  std::remove(base.c_str());
  std::remove(fast.c_str());
  std::remove(slow.c_str());
}

TEST_F(BenchGate, UsageAndMissingCounterContracts) {
  const std::string base = write_export("gate_u_base.json", 10.0, 1.0);
  EXPECT_EQ(run({}), 2);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(run({"--min-ratio", base}), 2);
  EXPECT_EQ(run({base, base, "a", "b", "not-a-number"}), 2);
  EXPECT_EQ(run({base, base, "a", "b", "0"}), 2);
  EXPECT_EQ(run({"/nonexistent.json", base, "a", "b", "1.0"}), 2);
  // A counter missing from the CURRENT export is a regression (1), not a
  // usage error: the bench silently stopped recording it. Missing from
  // the BASELINE means the gate itself is misconfigured (2).
  const std::string cur = ::testing::TempDir() + "gate_u_cur.json";
  {
    std::ofstream o(cur);
    o << R"({"metrics":[{"name":"runtime.shard.routed","count":10}]})";
  }
  EXPECT_EQ(run({base, cur, "runtime.shard.routed",
                 "runtime.shard.bench.route_seconds:sum", "1.0"}),
            1);
  EXPECT_NE(err_.str().find("missing counter"), std::string::npos);
  EXPECT_EQ(run({cur, base, "runtime.shard.routed",
                 "runtime.shard.bench.route_seconds:sum", "1.0"}),
            2);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

}  // namespace
