// Tests of the benchmark's own code: workload generation, the metric
// catalogue and its manifest, and the traced replay's fidelity and
// re-solve classification. Replays run on shortened horizons.
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;
namespace br = blade::runtime;

constexpr Kind kAllKinds[] = {Kind::Churn, Kind::Fleet, Kind::Static};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Same workload on a horizon short enough for a unit test.
Prepared shortened(Kind kind, std::uint64_t seed) {
  Workload w = make_workload(kind, seed);
  const double horizon = w.trace.horizon / 20.0;
  if (kind == Kind::Static) {
    w.trace.horizon = horizon;
  } else {
    w.trace = br::reference_failure_trace(w.cluster, horizon);
    w.trace.seed = seed;
  }
  return prepare(std::move(w));
}

void expect_same(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.cluster.size(), b.cluster.size());
  EXPECT_EQ(bits(a.cluster.rbar()), bits(b.cluster.rbar()));
  for (std::size_t i = 0; i < a.cluster.size(); ++i) {
    EXPECT_EQ(a.cluster.server(i).size(), b.cluster.server(i).size());
    EXPECT_EQ(bits(a.cluster.server(i).speed()), bits(b.cluster.server(i).speed()));
    EXPECT_EQ(bits(a.cluster.server(i).special_rate()), bits(b.cluster.server(i).special_rate()));
  }
  EXPECT_EQ(br::to_text(a.trace), br::to_text(b.trace));
  EXPECT_EQ(bits(a.controller.half_life), bits(b.controller.half_life));
  EXPECT_EQ(a.controller.shard_cells, b.controller.shard_cells);
  EXPECT_EQ(a.controller.health.enabled, b.controller.health.enabled);
  EXPECT_EQ(a.chaos.has_value(), b.chaos.has_value());
  EXPECT_EQ(a.chaos_seed, b.chaos_seed);
  EXPECT_EQ(bits(a.lambda), bits(b.lambda));
}

TEST(Workload, GenerationIsAPureFunctionOfTheSeed) {
  for (const Kind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    expect_same(make_workload(kind, 7), make_workload(kind, 7));
    const Workload a = make_workload(kind, 7);
    const Workload b = make_workload(kind, 8);
    EXPECT_NE(a.trace.seed, b.trace.seed);
    bool cluster_differs = false;
    for (std::size_t i = 0; i < a.cluster.size(); ++i) {
      cluster_differs |= bits(a.cluster.server(i).speed()) != bits(b.cluster.server(i).speed());
    }
    // Only the fleet's layout follows the seed; the 64-server cluster is fixed.
    EXPECT_EQ(cluster_differs, kind == Kind::Fleet);
  }
}

TEST(Workload, ChurnClusterIsStratified) {
  const auto cluster = churn_cluster();
  ASSERT_EQ(cluster.size(), 64u);
  std::vector<int> per_size(9, 0);
  for (const auto& s : cluster.servers()) {
    ASSERT_GE(s.size(), 1u);
    ASSERT_LE(s.size(), 8u);
    ++per_size[s.size()];
    EXPECT_GE(s.speed(), 0.5);
    EXPECT_LE(s.speed(), 2.5);
  }
  for (unsigned m = 1; m <= 8; ++m) EXPECT_EQ(per_size[m], 8) << "m = " << m;
}

TEST(Workload, NamesRoundTrip) {
  for (const Kind kind : kAllKinds) EXPECT_EQ(parse_kind(to_string(kind)), kind);
  EXPECT_FALSE(parse_kind("serve").has_value());
}

TEST(Report, EveryEmittedNameIsValidAndCarriesAUnit) {
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    Report report(*specs);
    std::set<std::string> seen;
    for (const auto& spec : *specs) {
      EXPECT_TRUE(valid_metric_name(spec.name)) << spec.name;
      EXPECT_TRUE(valid_unit(spec.unit)) << spec.name << " [" << spec.unit << "]";
      EXPECT_TRUE(seen.insert(std::string(spec.name)).second) << "duplicate " << spec.name;
      report.set(spec.name, 1.5);
    }
    EXPECT_TRUE(report.missing().empty());
    const auto doc = blade::util::parse_json(report.json(true, 10, 0));
    ASSERT_EQ(doc.object.size(), 4u);
    EXPECT_EQ(doc.object[0].first, "correct");
    EXPECT_EQ(doc.object[1].first, "attempted");
    EXPECT_EQ(doc.object[2].first, "failed");
    const auto& metrics = doc.at("metrics");
    ASSERT_EQ(metrics.object.size(), specs->size());
    for (const auto& [name, m] : metrics.object) {
      EXPECT_TRUE(valid_metric_name(name)) << name;
      EXPECT_EQ(m.at("value").number, 1.5);
      EXPECT_TRUE(valid_unit(m.at("unit").string)) << name;
    }
  }
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_unit(""));
}

TEST(Report, RejectsUnknownNamesAndNonFiniteValues) {
  Report report(end_to_end_metrics());
  EXPECT_THROW(report.set("no_such_metric", 1.0), std::logic_error);
  EXPECT_THROW(report.set("setup_s", std::numeric_limits<double>::quiet_NaN()),
               std::runtime_error);
}

TEST(Report, ManifestListsTheCatalogue) {
  std::ifstream in(SERVEBENCH_MANIFEST);
  ASSERT_TRUE(in) << SERVEBENCH_MANIFEST;
  std::stringstream text;
  text << in.rdbuf();
  const auto manifest = blade::util::parse_json(text.str());
  const auto check = [](const blade::util::JsonValue& listed, const std::vector<MetricSpec>& specs) {
    ASSERT_EQ(listed.array.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(listed.array[i].at("name").string, specs[i].name);
      EXPECT_EQ(listed.array[i].at("unit").string, specs[i].unit);
    }
  };
  check(manifest.at("end_to_end"), end_to_end_metrics());
  check(manifest.at("per_layer"), per_layer_metrics());
  for (const auto& workload : manifest.at("workloads").array) {
    EXPECT_TRUE(parse_kind(workload.at("name").string).has_value()) << workload.at("name").string;
  }
}

TEST(TracedReplay, MatchesTheUntracedReplayBitForBit) {
  for (const Kind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    const Prepared p = shortened(kind, 5);
    const Outcome untraced = replay_untraced(p);
    Trace trace;
    const Outcome traced = replay_traced(p, trace, kind == Kind::Static ? 64 : 1);
    EXPECT_EQ(traced.stats.first_difference(untraced.stats), "");
    EXPECT_GT(untraced.routed, 0u);
    EXPECT_EQ(traced.routed, untraced.routed);
  }
}

TEST(TracedReplay, ResolveClassificationSumsToControllerStats) {
  for (const Kind kind : {Kind::Churn, Kind::Fleet}) {
    SCOPED_TRACE(to_string(kind));
    const Prepared p = shortened(kind, 11);
    Trace trace;
    const Outcome a = replay_traced(p, trace, 1);
    ASSERT_GT(a.resolves, 0u);
    EXPECT_EQ(trace.classified_resolves(), a.resolves);
    EXPECT_FALSE(trace.failover_ns.empty());  // the reference trace's outage
    // Accumulates across replays.
    const Outcome b = replay_traced(p, trace, 1);
    EXPECT_EQ(trace.classified_resolves(), a.resolves + b.resolves);
  }
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
}

}  // namespace
