// The controller's drift check: the first round of the warm solve the
// re-solve would run, taken by the re-solve's own solver at the published
// split under the current estimates, predicts the relative T' loss of
// holding that split, and a check re-solves only when the prediction
// exceeds loss_threshold. This suite holds the check to the truth (T' of
// the held split against a cold optimize() at the same estimates), pins
// the round a fired check hands its re-solve to the solve's own first
// round bit for bit, and pins what a check prices: one evaluation per
// kept class, nothing of a split that is not one rate per class, and no
// pruned server.
//
// The harness drives a controller whose EWMA estimators decay at rate 1/w
// and see every arrival at t = 64 w, where the bias correction
// 1 - e^{-64} rounds to 1: each arrival adds exactly 1/w to its stream's
// estimate, and waiting w ln(1/(1 - delta)) scales every estimate by
// 1 - delta. A test sets the published state and each perturbation
// exactly, through the controller's own event API.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "core/sharded.hpp"
#include "model/cluster.hpp"
#include "model/paper_configs.hpp"
#include "obs/metrics.hpp"
#include "queueing/blade_queue.hpp"
#include "runtime/controller.hpp"
#include "runtime/replay.hpp"
#include "support/generators.hpp"

namespace {

using namespace blade;

const double kCeiling = runtime::ControllerConfig{}.utilization_ceiling;

/// A controller with every estimate an arrival count divided by w at
/// time at(), published at the optimum of those estimates.
class Published {
 public:
  /// Feeds `generic` generic arrivals and round(lambda''_i w) special
  /// arrivals per server at at(), then re-solves (in `shard_cells` cells,
  /// pruned to each cell's top `prune_top_k`). The next drift check comes
  /// with the `next_check`-th generic arrival after that.
  Published(const model::Cluster& c, queue::Discipline d, double w, std::uint64_t generic,
            std::uint64_t next_check, std::size_t shard_cells = 0, std::size_t prune_top_k = 0)
      : w_(w) {
    runtime::ControllerConfig cfg;
    cfg.discipline = d;
    cfg.shard_cells = shard_cells;
    cfg.prune_top_k = prune_top_k;
    cfg.half_life = w * std::numbers::ln2;  // decay rate 1/w
    cfg.min_arrivals = 1;
    cfg.check_interval = generic + next_check;
    ctrl_ = std::make_unique<runtime::Controller>(c, cfg);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const auto count = std::llround(c.server(i).special_rate() * w);
      for (long long k = 0; k < count; ++k) ctrl_->on_special_arrival(at(), i);
    }
    for (std::uint64_t k = 0; k < generic; ++k) ctrl_->on_generic_arrival(at(), 0.5);
    ctrl_->resolve_now(at());
  }

  [[nodiscard]] double at() const { return 64.0 * w_; }
  /// When every estimate has decayed to 1 - delta of its value at at().
  [[nodiscard]] double decayed_by(double delta) const { return at() - w_ * std::log1p(-delta); }
  runtime::Controller& ctrl() { return *ctrl_; }

 private:
  double w_;
  std::unique_ptr<runtime::Controller> ctrl_;
};

std::uint64_t checks_run(const runtime::ControllerStats& s) {
  return s.shedding_checks + s.unevaluated_checks + s.loss_checks + s.skipped_by_hysteresis;
}

/// The instance a re-solve at time t models when every server is up:
/// the controller's special-rate estimates, clamped as it clamps them.
model::Cluster estimated_cluster(const model::Cluster& c, const runtime::Controller& ctrl,
                                 double t) {
  std::vector<model::BladeServer> servers;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto& s = c.server(i);
    const double capacity = s.size() * s.speed() / c.rbar();
    servers.emplace_back(s.size(), s.speed(),
                         std::min(ctrl.estimated_special_rate(i, t), kCeiling * capacity));
  }
  return {std::move(servers), c.rbar()};
}

/// The truth behind one check at time t: the relative T' loss of holding
/// `held` (the fractions published before the check) at the estimates the
/// check saw, against a cold optimize() of that instance; +inf when the
/// held split saturates a server; NaN at or past the admission ceiling,
/// where the check re-solves by its feasibility test.
double true_loss(const model::Cluster& c, queue::Discipline d, const runtime::Controller& ctrl,
                 const std::vector<double>& held, double t) {
  const double lambda = ctrl.estimated_lambda(t);
  const model::Cluster now = estimated_cluster(c, ctrl, t);
  if (!(lambda < kCeiling * now.max_generic_rate())) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<double> x(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    x[i] = held[i] * lambda;
    if (!(x[i] < (1.0 - 1e-9) * now.server(i).max_generic_rate(now.rbar()))) {
      return std::numeric_limits<double>::infinity();
    }
  }
  const double held_t = opt::ResponseTimeObjective(now, d, lambda).value(x);
  const double best_t = opt::LoadDistributionOptimizer(now, d).optimize(lambda).response_time;
  return (held_t - best_t) / best_t;
}

struct Tally {
  int judged = 0;
  int fired = 0;
  double worst_skipped = 0.0;  ///< largest true loss among skipped checks
  double least_fired = std::numeric_limits<double>::infinity();  ///< smallest among fired
};

/// Runs one perturbation's single drift check and judges it against the
/// truth: above 2 theta it must fire, below theta/4 it must not.
template <class Perturb>
void judge(const std::string& what, const model::Cluster& c, queue::Discipline d, Published& p,
           double t, Perturb&& perturb, Tally& tally) {
  runtime::Controller& ctrl = p.ctrl();
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal) << what;
  const std::vector<double> held = ctrl.routing_fractions();
  const auto before = ctrl.stats();
  perturb(ctrl);
  const auto& after = ctrl.stats();
  ASSERT_EQ(checks_run(after), checks_run(before) + 1) << what;
  const bool fired = after.resolves > before.resolves;
  const double loss = true_loss(c, d, ctrl, held, t);
  if (std::isnan(loss)) return;  // past the ceiling: the feasibility test's case
  const double theta = runtime::ControllerConfig{}.loss_threshold;
  ++tally.judged;
  if (fired) {
    ++tally.fired;
    tally.least_fired = std::min(tally.least_fired, loss);
  } else {
    tally.worst_skipped = std::max(tally.worst_skipped, loss);
  }
  if (loss > 2.0 * theta) {
    EXPECT_TRUE(fired) << what << ": true loss " << loss << " skipped";
  }
  if (loss < 0.25 * theta) {
    EXPECT_FALSE(fired) << what << ": true loss " << loss << " fired";
  }
}

/// Every perturbation of one instance at one load, each from the optimum
/// published by a controller of `cells` cells: lambda' steps up by 1% and
/// 5%, every estimate decays by 1% and 5%, and one special arrival at each
/// server.
void judge_instance(const std::string& name, const model::Cluster& c, queue::Discipline d,
                    double load, Tally& tally, std::size_t cells = 0) {
  const double lambda0 = load * c.max_generic_rate();
  std::ostringstream tag;
  tag << name << " (" << queue::to_string(d) << ", " << cells << " cells) at " << load
      << " of lambda'_max";

  // Steps: 2,000 generic arrivals at at(), so lambda' is 2,000 / w and 1%
  // is 20 arrivals.
  constexpr std::uint64_t kStepArrivals = 2000;
  const double w_step = static_cast<double>(kStepArrivals) / lambda0;
  for (const double delta : {0.01, 0.05}) {
    const auto moved = static_cast<std::uint64_t>(std::llround(delta * kStepArrivals));
    {
      Published up(c, d, w_step, kStepArrivals, moved, cells);
      judge(tag.str() + " step +" + std::to_string(delta), c, d, up, up.at(),
            [&](runtime::Controller& ctrl) {
              for (std::uint64_t k = 0; k < moved; ++k) ctrl.on_generic_arrival(up.at(), 0.5);
            },
            tally);
    }
    {
      // An EWMA forgets every stream at once: lambda' and each lambda''_i
      // step down together.
      Published down(c, d, w_step, kStepArrivals, 1, cells);
      const double t = down.decayed_by(delta);
      judge(tag.str() + " step -" + std::to_string(delta), c, d, down, t,
            [&](runtime::Controller& ctrl) { ctrl.on_generic_arrival(t, 0.5); }, tally);
    }
  }

  // Bumps: one special arrival adds 1/w to its server's estimate; w makes
  // that 3.4% of the mean server capacity, as one arrival adds ln 2 /
  // half-life = 0.23 on serve-churn.
  double capacity = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    capacity += c.server(i).size() * c.server(i).speed() / c.rbar();
  }
  const double w_bump = 1.0 / (0.034 * capacity / static_cast<double>(c.size()));
  const auto generic = static_cast<std::uint64_t>(std::max(1LL, std::llround(lambda0 * w_bump)));
  for (std::size_t j = 0; j < c.size(); ++j) {
    Published p(c, d, w_bump, generic, 1, cells);
    judge(tag.str() + " bump at server " + std::to_string(j), c, d, p, p.at(),
          [&](runtime::Controller& ctrl) {
            ctrl.on_special_arrival(p.at(), j);
            ctrl.on_generic_arrival(p.at(), 0.5);
          },
          tally);
  }
}

// No false skip and no pointless fire. Over the differential corpus,
// serve-churn's cluster, and a catalog cluster whose servers coalesce into
// classes (solved in 1 and 3 cells) at 35, 57 and 80% of lambda'_max:
// every check whose true relative loss exceeds 2 loss_threshold re-solves,
// and none whose true loss is below loss_threshold/4 does. (An
// estimate-movement trigger fails the second half: a single special
// arrival moves an estimate by several percent of a server's capacity
// while the held split loses far less than that.)
TEST(DriftCheck, NoFalseSkipsAndNoPointlessFires) {
  Tally tally;
  for (const double load : {0.35, 0.57, 0.80}) {
    for (const auto d : {queue::Discipline::Fcfs, queue::Discipline::SpecialPriority}) {
      judge_instance("churn", testsupport::churn_cluster(), d, load, tally);
      for (const std::size_t cells : {std::size_t{1}, std::size_t{3}}) {
        judge_instance("catalog", testsupport::interleaved_catalog(4, 6), d, load, tally, cells);
      }
      for (const auto& inst : testsupport::instance_corpus(3, d)) {
        judge_instance(inst.name, inst.cluster, d, load, tally);
      }
    }
  }
  // Both sides of the threshold were exercised.
  EXPECT_GT(tally.fired, 0);
  EXPECT_LT(tally.fired, tally.judged);
  RecordProperty("judged", tally.judged);
  RecordProperty("fired", tally.fired);
  std::ostringstream os;
  os << "worst skipped true loss " << tally.worst_skipped << ", least fired " << tally.least_fired;
  RecordProperty("extremes", os.str());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise(const opt::ShardedLoadDistribution& a, const opt::ShardedLoadDistribution& b,
                    const std::string& what) {
  ASSERT_EQ(a.dist.rates.size(), b.dist.rates.size()) << what;
  for (std::size_t i = 0; i < a.dist.rates.size(); ++i) {
    EXPECT_EQ(bits(a.dist.rates[i]), bits(b.dist.rates[i])) << what << " server " << i;
  }
  EXPECT_EQ(bits(a.dist.phi), bits(b.dist.phi)) << what;
  EXPECT_EQ(bits(a.dist.response_time), bits(b.dist.response_time)) << what;
  EXPECT_EQ(a.dist.inner_evaluations, b.dist.inner_evaluations) << what;
  EXPECT_EQ(a.dist.outer_iterations, b.dist.outer_iterations) << what;
}

// The round a drift check takes (ShardedOptimizer::first_round) is the
// solve's own first round: the same rates, phi, T' and evaluation count,
// bit for bit, as a solve that evaluates it from the same start, on one
// cell and on several, with coalesced classes. Its values are the ones
// used, and a round taken at another lambda', or handed to a workspace
// without a previous solve, is ignored.
TEST(DriftCheck, HandedRoundIsTheSolvesOwnFirstRound) {
  const std::vector<std::pair<std::string, model::Cluster>> clusters = {
      {"churn", testsupport::churn_cluster()},
      {"paper", model::paper_example_cluster()},
      {"classes", model::make_cluster({2, 2, 4, 4, 4, 1, 8, 8}, {1.0, 1.0, 2.0, 2.0, 2.0, 0.5,
                                                                 1.5, 1.5},
                                      1.0, 0.2)},
  };
  for (const auto& [name, cluster] : clusters) {
    for (const std::size_t cells : {std::size_t{1}, std::size_t{3}}) {
      const std::string what = name + " cells=" + std::to_string(cells);
      opt::ShardOptions shard;
      shard.cells = cells;
      const opt::ShardedOptimizer solver(cluster, queue::Discipline::Fcfs, {}, shard);
      const double published = 0.55 * cluster.max_generic_rate();
      const double lambda = 0.57 * cluster.max_generic_rate();
      opt::SolverWorkspace base;
      const auto first = solver.optimize(published, base);

      // The check's round: the published split scaled to the new lambda'.
      std::vector<double> x(cluster.size());
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = first.dist.rates[i] / published * lambda;
      opt::FirstRound round;
      ASSERT_TRUE(solver.first_round(lambda, x, round)) << what;
      EXPECT_EQ(bits(round.lambda), bits(lambda)) << what;
      EXPECT_EQ(round.state.x.size(), solver.server_classes()) << what;

      opt::SolverWorkspace own = base;
      own.warm_start(x);
      const auto evaluated = solver.optimize(lambda, own);
      opt::SolverWorkspace handed = base;
      expect_bitwise(evaluated, solver.try_optimize(lambda, handed, &round).value(),
                     what + " handed");

      // The round's values are what the first round uses: a skewed copy
      // changes the iterates.
      opt::FirstRound skewed = round;
      for (double& v : skewed.state.g) v *= 1.01;
      opt::SolverWorkspace poisoned = base;
      const auto taken = solver.try_optimize(lambda, poisoned, &skewed).value();
      bool differs = bits(taken.dist.phi) != bits(evaluated.dist.phi);
      for (std::size_t i = 0; i < x.size(); ++i) {
        differs = differs || bits(taken.dist.rates[i]) != bits(evaluated.dist.rates[i]);
      }
      EXPECT_TRUE(differs) << what << ": the handed round was not taken";

      // Another lambda', or no previous solve: the skewed round is ignored.
      skewed.lambda = std::nextafter(lambda, 0.0);
      opt::SolverWorkspace own_base = base;
      opt::SolverWorkspace other_lambda = base;
      expect_bitwise(solver.optimize(lambda, own_base),
                     solver.try_optimize(lambda, other_lambda, &skewed).value(),
                     what + " other lambda'");
      skewed.lambda = lambda;
      opt::SolverWorkspace fresh;
      expect_bitwise(solver.optimize(lambda), solver.try_optimize(lambda, fresh, &skewed).value(),
                     what + " cold");
    }
  }
}

// first_round takes a round only from a split the warm solve can start
// from, one rate per class: a typed error otherwise, and no round.
TEST(DriftCheck, FirstRoundNeedsASplitTheSolveCanStartFrom) {
  const auto cluster = testsupport::interleaved_catalog(4, 6);
  opt::ShardOptions shard;
  shard.cells = 3;
  shard.prune.top_k = 6;
  const opt::ShardedOptimizer solver(cluster, queue::Discipline::Fcfs, {}, shard);
  ASSERT_GT(solver.pruned_servers(), 0u);
  const double lambda = 0.3 * solver.kept_capacity();
  const auto split = solver.optimize(lambda).dist.rates;
  opt::FirstRound round;
  ASSERT_TRUE(solver.first_round(lambda, split, round));

  auto refused = [&](std::vector<double> rates, const char* what) {
    round.lambda = lambda;
    const auto res = solver.first_round(lambda, rates, round);
    ASSERT_FALSE(res) << what;
    EXPECT_EQ(res.error().code, ErrorCode::InvalidArgument) << what;
    EXPECT_LT(round.lambda, 0.0) << what << ": a refused round is not taken";
  };
  std::size_t loaded = 0;  // a kept server that shares its class
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < split.size(); ++i) {
    if (split[i] > 0.0 && i + 4 < split.size() && split[i + 4] == split[i]) loaded = i;
    if (split[i] == 0.0) pruned = i;
  }
  ASSERT_GT(split[loaded], 0.0);
  auto member = split;
  member[loaded + 4] = std::nextafter(member[loaded + 4], 0.0);
  refused(member, "a class member off its representative's rate");
  auto dark = split;
  dark[pruned] = 1e-3;
  refused(dark, "a pruned server with load");
  auto guard = split;
  for (std::size_t i = loaded; i < guard.size(); i += 4) guard[i] = 1e9;
  refused(guard, "a class past its saturation guard");
  auto nan = split;
  for (std::size_t i = loaded; i < nan.size(); i += 4) {
    nan[i] = std::numeric_limits<double>::quiet_NaN();
  }
  refused(nan, "a non-finite rate");
  refused(std::vector<double>(split.size() - 1, 0.0), "a split of another length");
}

// A check that does not fire costs a fixed count: one evaluation per
// class the re-solve's solver keeps, on serve-churn's pairwise-distinct
// cluster one per modelled server (the dark server is not modelled),
// each one scalar Erlang-C evaluation. It keeps checking over the
// surviving topology after a failover.
TEST(DriftCheck, SkippedCheckCostsTheModelledServerCount) {
  const auto c = testsupport::churn_cluster();
  const double lambda0 = 0.57 * c.max_generic_rate();
  constexpr std::uint64_t kArrivals = 2000;
  Published p(c, queue::Discipline::Fcfs, kArrivals / lambda0, kArrivals, 1);
  runtime::Controller& ctrl = p.ctrl();
  ctrl.on_failure(p.at(), 5);
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  ASSERT_EQ(ctrl.routing_fractions()[5], 0.0);

  const auto before = ctrl.stats();
  obs::Snapshot snap = obs::registry().snapshot();
  auto count = [&](const char* name) {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->count : 0u;
  };
  const auto evals_before = count("numerics.erlang_c_evals");
  ctrl.on_generic_arrival(p.at(), 0.5);  // the check: lambda' moved by one arrival in 2,000
  const auto& after = ctrl.stats();
  snap = obs::registry().snapshot();

  EXPECT_EQ(after.skipped_by_hysteresis, before.skipped_by_hysteresis + 1);
  EXPECT_EQ(after.resolves, before.resolves);
  EXPECT_EQ(after.solver_evaluations, before.solver_evaluations);
  EXPECT_EQ(after.check_evaluations, before.check_evaluations + (c.size() - 1));
#if BLADE_OBS_ENABLED
  EXPECT_EQ(count("numerics.erlang_c_evals"), evals_before + (c.size() - 1));
#else
  EXPECT_EQ(evals_before, 0u);
#endif
}

// The check runs on the re-solve's solver, so on a catalog cluster a
// skipped check costs the solver's kept classes, in 1 and in 3 cells, not
// one evaluation per server.
TEST(DriftCheck, SkippedCheckCostsTheKeptClassCount) {
  const auto c = testsupport::interleaved_catalog(4, 6);
  const double lambda0 = 0.57 * c.max_generic_rate();
  constexpr std::uint64_t kArrivals = 2000;
  for (const std::size_t cells : {std::size_t{1}, std::size_t{3}}) {
    const std::string what = std::to_string(cells) + " cells";
    Published p(c, queue::Discipline::Fcfs, kArrivals / lambda0, kArrivals, 1, cells);
    runtime::Controller& ctrl = p.ctrl();
    const auto before = ctrl.stats();
    ctrl.on_generic_arrival(p.at(), 0.5);
    const auto& after = ctrl.stats();
    ASSERT_EQ(after.skipped_by_hysteresis, before.skipped_by_hysteresis + 1) << what;

    opt::ShardOptions shard;
    shard.cells = cells;
    const opt::ShardedOptimizer solver(estimated_cluster(c, ctrl, p.at()),
                                       queue::Discipline::Fcfs, {}, shard);
    EXPECT_EQ(solver.server_classes(), 4 * cells) << what;
    EXPECT_EQ(after.check_evaluations - before.check_evaluations, solver.server_classes())
        << what;
    EXPECT_EQ(after.solver_evaluations, before.solver_evaluations) << what;
  }
}

// A held split whose class members hold different rates is not a split
// the warm solve starts from (it reads one rate per class), so the check
// fires without evaluating. Servers 3 and 7 share the fastest type: one
// more special arrival at server 3 parts them at a re-solve, and the same
// one at server 7 joins them again in one class that holds two rates.
TEST(DriftCheck, ClassMembersHoldingDifferentRatesFireUnevaluated) {
  const auto c = testsupport::interleaved_catalog(4, 6);
  const double lambda0 = 0.57 * c.max_generic_rate();
  constexpr std::uint64_t kArrivals = 2000;
  Published p(c, queue::Discipline::Fcfs, kArrivals / lambda0, kArrivals, 1);
  runtime::Controller& ctrl = p.ctrl();
  ctrl.on_special_arrival(p.at(), 3);
  ctrl.resolve_now(p.at());
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  const auto held = ctrl.routing_fractions();
  ASSERT_GT(held[7], 0.0);
  ASSERT_NE(bits(held[3]), bits(held[7]));
  ctrl.on_special_arrival(p.at(), 7);
  ASSERT_EQ(bits(ctrl.estimated_special_rate(3, p.at())),
            bits(ctrl.estimated_special_rate(7, p.at())));

  const auto before = ctrl.stats();
  ctrl.on_generic_arrival(p.at(), 0.5);
  const auto& after = ctrl.stats();
  EXPECT_EQ(after.unevaluated_checks, before.unevaluated_checks + 1);
  EXPECT_EQ(after.resolves, before.resolves + 1);
  EXPECT_EQ(after.check_evaluations, before.check_evaluations);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
}

// Pruning: the check prices only the servers a pruned solve can load. At
// a steady state the held split is the pruned optimum, so checks after one
// more arrival each skip; a check that priced every server would see the
// load the pruned servers could take, and re-solve every time to publish
// the same pruned optimum again.
TEST(DriftCheck, PrunedControllerSkipsAtASteadyState) {
  const auto c = testsupport::churn_cluster();
  constexpr std::uint64_t kArrivals = 2000;
  constexpr int kChecks = 200;
  const std::vector<std::pair<std::size_t, double>> cases = {{16, 0.20}, {16, 0.35}, {8, 0.20}};
  for (const auto& [top_k, load] : cases) {
    const std::string what =
        "top " + std::to_string(top_k) + " at " + std::to_string(load) + " of lambda'_max";
    const double lambda0 = load * c.max_generic_rate();
    const double w = kArrivals / lambda0;
    runtime::ControllerConfig cfg;
    cfg.half_life = w * std::numbers::ln2;  // decay rate 1/w
    cfg.min_arrivals = kArrivals;           // nominal preloads; lambda' once warm
    cfg.check_interval = 1;
    cfg.shard_cells = 1;
    cfg.prune_top_k = top_k;
    runtime::Controller ctrl(c, cfg);
    const double t0 = 64.0 * w;
    for (std::uint64_t k = 0; k < kArrivals; ++k) ctrl.on_generic_arrival(t0, 0.5);
    ASSERT_EQ(ctrl.stats().resolves, 1u) << what;  // the warm-up solve
    ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal) << what;

    // Arrivals at the rate the estimate holds: it stays within 1e-6 of it.
    const auto before = ctrl.stats();
    for (int k = 1; k <= kChecks; ++k) ctrl.on_generic_arrival(t0 + k / lambda0, 0.5);
    const auto& after = ctrl.stats();
    EXPECT_EQ(checks_run(after) - checks_run(before), static_cast<std::uint64_t>(kChecks))
        << what;
    const std::uint64_t skipped = after.skipped_by_hysteresis - before.skipped_by_hysteresis;
    EXPECT_GE(skipped, static_cast<std::uint64_t>(kChecks) * 9 / 10) << what;
    RecordProperty("skipped_top" + std::to_string(top_k) + "_load" +
                       std::to_string(std::lround(100 * load)),
                   static_cast<int>(skipped));
    EXPECT_EQ(after.check_evaluations - before.check_evaluations, skipped * top_k)
        << what << ": a skipped check prices the kept servers only";
  }
}

// Admission under pruning. A pruned solve is Infeasible at or above what
// its kept servers carry, so a pruning controller sheds down to the
// ceiling of that capacity, not of every modelled server's. Eight
// four-blade servers at speeds 1.0, 1.2, ..., 2.4 and a 20% preload carry
// lambda'_max = 43.52; the two fastest, kept by top-2 pruning, carry
// 14.72, of which the ceiling admits 0.95 x 14.72 = 13.98.
model::Cluster speed_ladder() {
  std::vector<double> speeds;
  for (int k = 0; k < 8; ++k) speeds.push_back(1.0 + 0.2 * k);
  return model::make_cluster(std::vector<unsigned>(8, 4), speeds, 1.0, 0.2);
}

// At 20 offered, between the two ceilings, every re-solve must shed to the
// kept ceiling and publish the pruned optimum: none fails and falls back
// to a split that also loads the pruned servers.
TEST(DriftCheck, PrunedControllerShedsToItsKeptCapacity) {
  const auto c = speed_ladder();
  runtime::ControllerConfig cfg;
  cfg.shard_cells = 1;
  cfg.prune_top_k = 2;
  cfg.half_life = 1.0;
  runtime::ReplayTrace trace;
  trace.horizon = 100.0;
  trace.seed = 1;
  trace.events.push_back({.time = 0.0, .kind = runtime::ReplayEvent::Kind::Rate, .rate = 20.0});
  const auto r = runtime::replay(c, cfg, trace);

  EXPECT_GT(r.stats.resolves, 10u);
  EXPECT_EQ(r.stats.solver_failures, 0u);
  EXPECT_EQ(r.final_mode, runtime::Mode::Optimal);
  EXPECT_NEAR(r.shed_fraction, 1.0 - kCeiling * 14.72 / 20.0, 0.03);
  ASSERT_EQ(r.final_fractions.size(), c.size());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(r.final_fractions[i], 0.0) << "server " << i;
}

// One check, published at 80% of the kept ceiling, then seeing lambda-hat
// between the kept ceiling and the full one: it counts as a shedding
// check, and its re-solve sheds exactly the excess over the kept ceiling.
TEST(DriftCheck, PrunedCeilingCountsAsShedding) {
  const auto c = speed_ladder();
  const double kept_ceiling = kCeiling * 14.72;
  const double lambda0 = 0.8 * kept_ceiling;
  constexpr std::uint64_t kArrivals = 2000;
  constexpr std::uint64_t kMore = 1600;  // lambda-hat = 1.8 lambda0, about 20
  Published p(c, queue::Discipline::Fcfs, kArrivals / lambda0, kArrivals, kMore, 1, 2);
  runtime::Controller& ctrl = p.ctrl();
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  ASSERT_EQ(ctrl.shed_probability(), 0.0);

  const auto before = ctrl.stats();
  for (std::uint64_t k = 0; k < kMore; ++k) ctrl.on_generic_arrival(p.at(), 0.5);
  const auto& after = ctrl.stats();

  opt::ShardOptions shard;
  shard.cells = 1;
  shard.prune.top_k = 2;
  const model::Cluster now = estimated_cluster(c, ctrl, p.at());
  const opt::ShardedOptimizer solver(now, queue::Discipline::Fcfs, {}, shard);
  const double lam = ctrl.estimated_lambda(p.at());
  ASSERT_GT(lam, kCeiling * solver.kept_capacity());
  ASSERT_LT(lam, kCeiling * now.max_generic_rate());
  EXPECT_EQ(after.shedding_checks, before.shedding_checks + 1);
  EXPECT_EQ(after.resolves, before.resolves + 1);
  EXPECT_EQ(after.solver_failures, before.solver_failures);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  EXPECT_NEAR(ctrl.shed_probability(), 1.0 - kCeiling * solver.kept_capacity() / lam, 1e-12);
}

}  // namespace
