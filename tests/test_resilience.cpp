// Resilience battery for the typed-error taxonomy, solver watchdogs,
// controller failure containment (last-known-good / proportional
// fallback / blackout state machine), checkpoint/restore, and the
// deterministic fault injector — including the seeded chaos sequences
// the acceptance bar requires (labels: chaos;sim, so the sanitizer tiers
// pick the whole file up).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <cstdio>

#include "core/batch.hpp"
#include "core/optimizer.hpp"
#include "model/cluster.hpp"
#include "numerics/roots.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "runtime/chaos.hpp"
#include "runtime/controller.hpp"
#include "runtime/estimator.hpp"
#include "runtime/replay.hpp"
#include "sim/rng.hpp"
#include "util/alias_table.hpp"
#include "util/fileio.hpp"
#include "util/status.hpp"

namespace {

using namespace blade;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

model::Cluster small_cluster() {
  return model::make_cluster({4, 2, 1}, {1.0, 1.5, 2.0}, 1.0, 0.2);
}

#if BLADE_OBS_ENABLED
std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::registry().snapshot();
  const obs::MetricValue* m = snap.find(name);
  return m != nullptr ? m->count : 0;
}
#endif

// --- error taxonomy -------------------------------------------------------

TEST(StatusTaxonomy, ExpectedAndStatusBasics) {
  Expected<int> ok = 7;
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok.value(), 7);
  Expected<int> bad = make_error(ErrorCode::Infeasible, "too much load");
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().code, ErrorCode::Infeasible);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.error().to_string(), "infeasible: too much load");
  EXPECT_THROW((void)bad.value(), std::logic_error);

  Status s;
  EXPECT_TRUE(s.ok());
  Status e = make_error(ErrorCode::ParseError, "line 3");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, ErrorCode::ParseError);
  EXPECT_STREQ(to_string(ErrorCode::BudgetExceeded), "budget_exceeded");
}

// --- alias table edge hardening (satellite) -------------------------------

TEST(AliasTableEdges, TypedRejections) {
  const auto empty = util::AliasTable::try_make(std::vector<double>{});
  ASSERT_FALSE(empty);
  EXPECT_EQ(empty.error().code, ErrorCode::InvalidArgument);

  const auto zeros = util::AliasTable::try_make(std::vector<double>{0.0, 0.0, 0.0});
  ASSERT_FALSE(zeros);
  EXPECT_NE(zeros.error().context.find("all weights are zero"), std::string::npos);

  const auto nan = util::AliasTable::try_make(std::vector<double>{1.0, kNan});
  ASSERT_FALSE(nan);
  EXPECT_NE(nan.error().context.find("finite"), std::string::npos);

  const auto neg = util::AliasTable::try_make(std::vector<double>{1.0, -0.5});
  ASSERT_FALSE(neg);
  EXPECT_EQ(neg.error().code, ErrorCode::InvalidArgument);

  EXPECT_THROW(util::AliasTable(std::vector<double>{0.0, 0.0}), std::invalid_argument);
}

TEST(AliasTableEdges, SingleServerAlwaysRoutesToIt) {
  const auto one = util::AliasTable::try_make(std::vector<double>{5.0});
  ASSERT_TRUE(one.has_value());
  const auto& t = one.value();
  ASSERT_EQ(t.fractions().size(), 1u);
  EXPECT_DOUBLE_EQ(t.fractions()[0], 1.0);
  for (double u : {0.0, 0.3, 0.999}) EXPECT_EQ(t.sample(u, 0.5), 0u);
}

// --- watchdog options (satellite) -----------------------------------------

TEST(WatchdogOptions, ValidateCoversNewFields) {
  opt::OptimizerOptions opts;
  opts.max_marginal_evaluations = -1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.max_marginal_evaluations = 0;
  opts.max_solve_seconds = kNan;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.max_solve_seconds = -1.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.max_solve_seconds = 0.25;
  opts.max_marginal_evaluations = 1000;
  opts.strict_convergence = true;
  EXPECT_NO_THROW(opts.validate());
}

// --- solver no-throw guarantee under injected non-convergence -------------

TEST(SolverContainment, TryOptimizeNeverThrowsOnBudgetExhaustion) {
  const auto cluster = small_cluster();
  opt::OptimizerOptions opts;
  opts.max_marginal_evaluations = 3;  // far below what any solve needs
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs, opts);
  const double lambda = 0.6 * cluster.max_generic_rate();

#if BLADE_OBS_ENABLED
  const std::uint64_t before = counter("solver.budget_exceeded");
#endif
  Expected<opt::LoadDistribution> r = make_error(ErrorCode::Internal, "unset");
  ASSERT_NO_THROW(r = solver.try_optimize(lambda));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::BudgetExceeded);
  EXPECT_NE(r.error().context.find("marginal-evaluation budget"), std::string::npos);
#if BLADE_OBS_ENABLED
  EXPECT_GT(counter("solver.budget_exceeded"), before);
#endif

  // The throwing facade maps the same diagnostic onto the legacy type.
  EXPECT_THROW((void)solver.optimize(lambda), num::RootFindingError);
}

TEST(SolverContainment, StrictConvergenceSurfacesAsTypedError) {
  const auto cluster = small_cluster();
  opt::OptimizerOptions opts;
  opts.strict_convergence = true;
  opts.max_iterations = 1;
  opts.phi_tolerance = 1e-18;   // unreachable in one iteration
  opts.rate_tolerance = 1e-18;
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs, opts);
  Expected<opt::LoadDistribution> r = make_error(ErrorCode::Internal, "unset");
  ASSERT_NO_THROW(r = solver.try_optimize(0.5 * cluster.max_generic_rate()));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::NonConvergence);
}

TEST(SolverContainment, InfeasibleAndInvalidStayTyped) {
  const auto cluster = small_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs);
  const auto infeasible = solver.try_optimize(2.0 * cluster.max_generic_rate());
  ASSERT_FALSE(infeasible);
  EXPECT_EQ(infeasible.error().code, ErrorCode::Infeasible);
  const auto invalid = solver.try_optimize(-1.0);
  ASSERT_FALSE(invalid);
  EXPECT_EQ(invalid.error().code, ErrorCode::InvalidArgument);
}

// --- batched per-item statuses (satellite) --------------------------------

TEST(BatchStatuses, PoisonedInstanceCannotHideTheOthers) {
  const auto cluster = small_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, queue::Discipline::Fcfs);
  const double lam_max = cluster.max_generic_rate();
  const std::vector<double> lambdas = {0.3 * lam_max, 2.0 * lam_max, 0.6 * lam_max, -1.0};

  const auto out = opt::optimize_many_checked(solver, lambdas);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].has_value());
  ASSERT_FALSE(out[1].has_value());
  EXPECT_EQ(out[1].error().code, ErrorCode::Infeasible);
  EXPECT_TRUE(out[2].has_value());
  ASSERT_FALSE(out[3].has_value());
  EXPECT_EQ(out[3].error().code, ErrorCode::InvalidArgument);
  EXPECT_NEAR(out[2].value().total_rate(), 0.6 * lam_max, 1e-6);

  // The throwing wrapper reports the lowest failing index and the count.
  try {
    (void)opt::optimize_many(solver, lambdas);
    FAIL() << "optimize_many should have thrown";
  } catch (const num::RootFindingError&) {
    FAIL() << "infeasible item 1 should map to std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2 of 4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("item 1"), std::string::npos);
  }
}

// --- numerics watchdogs ---------------------------------------------------

TEST(NumericsWatchdogs, NonFiniteObjectiveIsRejected) {
  num::RootOptions opts;
  EXPECT_THROW((void)num::solve_increasing([](double) { return kNan; }, 0.0, 0.0, 1.0,
                                           std::nullopt, opts),
               num::RootFindingError);
}

TEST(NumericsWatchdogs, TimeBudgetAborts) {
  num::RootOptions opts;
  opts.tolerance = 0.0;         // never converge by width
  opts.max_iterations = 1 << 30;
  opts.max_seconds = 1e-9;      // expires immediately
  EXPECT_THROW((void)num::solve_increasing([](double x) { return x - 0.25; }, 0.0, 0.0, 1.0,
                                           std::nullopt, opts),
               num::RootFindingError);
}

// --- estimator hardening --------------------------------------------------

TEST(EstimatorHardening, TryObserveDropsAndRepairs) {
  runtime::EwmaRateEstimator e(1.0);
  EXPECT_TRUE(e.try_observe(1.0));
  EXPECT_FALSE(e.try_observe(kNan));  // dropped
  EXPECT_EQ(e.count(), 1u);
  EXPECT_FALSE(e.try_observe(0.5));  // repaired: still counts as an arrival
  EXPECT_EQ(e.count(), 2u);
  EXPECT_TRUE(std::isfinite(e.rate(2.0)));
}

TEST(EstimatorHardening, StateRoundTripsAndRejectsGarbage) {
  runtime::EwmaRateEstimator e(2.0);
  for (double t = 0.5; t < 10.0; t += 0.5) e.try_observe(t);
  runtime::EwmaRateEstimator fresh(1.0);
  ASSERT_TRUE(fresh.restore(e.state()).ok());
  EXPECT_DOUBLE_EQ(fresh.rate(12.0), e.rate(12.0));
  EXPECT_EQ(fresh.count(), e.count());

  runtime::EwmaState bad = e.state();
  bad.weight = -1.0;
  const Status s = fresh.restore(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::InvalidArgument);
  // The failed restore must not have corrupted the estimator.
  EXPECT_DOUBLE_EQ(fresh.rate(12.0), e.rate(12.0));
}

// --- controller containment state machine ---------------------------------

runtime::ControllerConfig contained_cfg(const model::Cluster& cluster) {
  runtime::ControllerConfig cfg;
  cfg.half_life = 1.0;
  cfg.check_interval = 4;
  cfg.min_arrivals = 8;
  cfg.initial_lambda = 0.5 * cluster.max_generic_rate();
  cfg.lkg_max_age = 5.0;
  return cfg;
}

TEST(Containment, InjectedFaultServesLastKnownGood) {
  const auto cluster = small_cluster();
  runtime::Controller ctrl(cluster, contained_cfg(cluster));
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  const auto before = ctrl.routing_fractions();

  ctrl.arm_solver_fault();
  ctrl.resolve_now(1.0);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::LastKnownGood);
  EXPECT_EQ(ctrl.stats().solver_failures, 1u);
  EXPECT_EQ(ctrl.stats().lkg_publications, 1u);
  EXPECT_EQ(ctrl.stats().fallback_publications, 0u);
  EXPECT_EQ(ctrl.stats().injected_faults, 1u);
  EXPECT_EQ(ctrl.last_solver_error().code, ErrorCode::NonConvergence);
  EXPECT_EQ(ctrl.last_solver_error().context, "injected solver fault");

  // The served split is exactly the last good one.
  const auto after = ctrl.routing_fractions();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) EXPECT_DOUBLE_EQ(after[i], before[i]);

  // A clean re-solve exits degraded mode.
  ctrl.resolve_now(2.0);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  EXPECT_EQ(ctrl.last_solver_error().code, ErrorCode::Ok);
}

TEST(Containment, StaleLkgDegradesToProportionalFallback) {
  const auto cluster = small_cluster();
  runtime::Controller ctrl(cluster, contained_cfg(cluster));
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal);  // LKG solved at t = 0

  ctrl.arm_solver_fault();
  ctrl.resolve_now(100.0);  // far beyond lkg_max_age = 5
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Fallback);
  EXPECT_EQ(ctrl.stats().lkg_publications, 0u);
  EXPECT_EQ(ctrl.stats().fallback_publications, 1u);
  const auto f = ctrl.routing_fractions();
  ASSERT_EQ(f.size(), cluster.size());
  double sum = 0.0;
  for (double x : f) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Containment, BladeLossInvalidatesLkg) {
  const auto cluster = small_cluster();
  runtime::Controller ctrl(cluster, contained_cfg(cluster));
  ASSERT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  ASSERT_TRUE(ctrl.lkg_servable(1.0));

  // The failure event itself triggers a (faulted) re-solve; the LKG
  // assumed more blades on server 0 than survive, so it is unservable.
  ctrl.arm_solver_fault();
  ctrl.on_failure(1.0, 0, 2);
  EXPECT_FALSE(ctrl.lkg_servable(1.0));
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Fallback);

  // Recovery restores the blades and (cleanly) re-solves back to optimal.
  ctrl.on_recovery(2.0, 0);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
}

TEST(Containment, DegradedModeRetriesEveryDriftCheck) {
  const auto cluster = small_cluster();
  auto cfg = contained_cfg(cluster);
  runtime::Controller ctrl(cluster, cfg);
  ctrl.arm_solver_fault();
  ctrl.resolve_now(0.5);
  ASSERT_NE(ctrl.mode(), runtime::Mode::Optimal);

  // No explicit resolve_now: the next drift check (every check_interval
  // arrivals, hysteresis bypassed while degraded) must recover on its own.
  sim::RngStream rng(7, 3);
  double t = 0.5;
  const double gap = 1.0 / cfg.initial_lambda;
  for (int k = 0; k < 64 && ctrl.mode() != runtime::Mode::Optimal; ++k) {
    ctrl.on_generic_arrival(t += gap, rng.uniform());
  }
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
}

TEST(Containment, CorruptTimestampsAreRepairedNotFatal) {
  const auto cluster = small_cluster();
  runtime::Controller ctrl(cluster, contained_cfg(cluster));
  sim::RngStream rng(11, 5);
  double t = 0.0;
  for (int k = 0; k < 40; ++k) ctrl.on_generic_arrival(t += 0.1, rng.uniform());
  const std::uint64_t rejected_before = ctrl.stats().rejected_observations;
  ASSERT_NO_THROW(ctrl.on_generic_arrival(kNan, rng.uniform()));
  ASSERT_NO_THROW(ctrl.on_generic_arrival(-5.0, rng.uniform()));
  ASSERT_NO_THROW(ctrl.on_special_arrival(kNan, 0));
  EXPECT_EQ(ctrl.stats().rejected_observations, rejected_before + 3);
  ctrl.resolve_now(t + 0.1);
  EXPECT_EQ(ctrl.mode(), runtime::Mode::Optimal);
  EXPECT_TRUE(std::isfinite(ctrl.estimated_lambda(t + 0.2)));
}

// --- checkpoint / restore -------------------------------------------------

void feed_identically(runtime::Controller& a, runtime::Controller& b, std::uint64_t seed,
                      double t0, int count) {
  sim::RngStream ra(seed, 21), rb(seed, 21);
  double ta = t0, tb = t0;
  for (int k = 0; k < count; ++k) {
    const double u_a = ra.uniform(), u_b = rb.uniform();
    a.on_generic_arrival(ta += 0.05, u_a);
    b.on_generic_arrival(tb += 0.05, u_b);
    if (k % 7 == 0) {
      a.on_special_arrival(ta, k % 3);
      b.on_special_arrival(tb, k % 3);
    }
  }
}

TEST(Checkpoint, KillAndRestoreMatchesUninterruptedRun) {
  const auto cluster = small_cluster();
  const auto cfg = contained_cfg(cluster);

  runtime::Controller a(cluster, cfg);  // runs straight through
  sim::RngStream rng(3, 21);
  double t = 0.0;
  for (int k = 0; k < 120; ++k) a.on_generic_arrival(t += 0.05, rng.uniform());
  a.resolve_now(t);

  // "Kill" here: serialize, then bring up a cold controller and restore.
  const std::string ckpt = a.checkpoint_json();
  runtime::Controller b(cluster, cfg);
  const Status restored = b.restore_checkpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.to_string();
  EXPECT_EQ(b.stats().restores, 1u);
  EXPECT_EQ(b.mode(), a.mode());
  // The checkpoint serializes doubles at 12 significant digits, so the
  // restored state matches to ~1e-12 relative, not bit-for-bit.
  EXPECT_NEAR(b.shed_probability(), a.shed_probability(), 1e-9);
  EXPECT_NEAR(b.estimated_lambda(t + 1.0), a.estimated_lambda(t + 1.0), 1e-9);

  // Both keep ingesting the identical tail; the restored run must stay
  // within estimator tolerance of the uninterrupted one.
  feed_identically(a, b, 77, t, 240);
  a.resolve_now(t + 240 * 0.05);
  b.resolve_now(t + 240 * 0.05);
  EXPECT_NEAR(b.last_solved_lambda(), a.last_solved_lambda(), 1e-9);
  const auto fa = a.routing_fractions();
  const auto fb = b.routing_fractions();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_NEAR(fa[i], fb[i], 1e-9);
}

// A restore clears the solver workspace: restoring one checkpoint into a
// live controller, whose workspace holds solves made after the
// checkpoint, and into a fresh one must publish the same split, at one
// cell and at four.
TEST(Checkpoint, RestoreInPlaceMatchesFreshRestore) {
  std::vector<unsigned> sizes(32);
  std::vector<double> speeds(32);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = 1 + static_cast<unsigned>(i % 8);
    speeds[i] = 0.5 + 2.0 * static_cast<double>(i) / 31.0;
  }
  const auto cluster = model::make_cluster(sizes, speeds, 1.0, 0.2);
  for (const std::size_t cells : {std::size_t{0}, std::size_t{4}}) {
    const std::string what = "shard_cells=" + std::to_string(cells);
    auto cfg = contained_cfg(cluster);
    cfg.shard_cells = cells;
    runtime::Controller live(cluster, cfg);
    sim::RngStream rng(9, 31);
    double t = 0.0;
    auto feed_until = [&](double end, double rate) {
      for (int k = 0; t + 1.0 / rate < end; ++k) {
        live.on_generic_arrival(t += 1.0 / rate, rng.uniform());
        if (k % 5 == 0) live.on_special_arrival(t, static_cast<std::size_t>(k) % sizes.size());
      }
    };
    feed_until(10.0, cfg.initial_lambda);
    const std::string ckpt = live.checkpoint_json();
    feed_until(20.0, 1.3 * cfg.initial_lambda);

    runtime::Controller fresh(cluster, cfg);
    ASSERT_TRUE(live.restore_checkpoint(ckpt).ok()) << what;
    ASSERT_TRUE(fresh.restore_checkpoint(ckpt).ok()) << what;
    const std::uint64_t live_evals = live.stats().solver_evaluations;
    const std::uint64_t fresh_evals = fresh.stats().solver_evaluations;
    live.resolve_now(10.0);
    fresh.resolve_now(10.0);
    EXPECT_EQ(live.mode(), runtime::Mode::Optimal) << what;
    EXPECT_EQ(live.stats().solver_evaluations - live_evals,
              fresh.stats().solver_evaluations - fresh_evals)
        << what;
    EXPECT_EQ(live.routing_fractions(), fresh.routing_fractions()) << what;
  }
}

TEST(Checkpoint, RestoreRejectsGarbageWithoutMutating) {
  const auto cluster = small_cluster();
  runtime::Controller ctrl(cluster, contained_cfg(cluster));
  const auto fractions_before = ctrl.routing_fractions();
  const std::string good = ctrl.checkpoint_json();

  // Not JSON at all.
  Status s = ctrl.restore_checkpoint("not json {");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::ParseError);

  // Topology mismatch: snapshot for a different server count.
  const auto other = model::make_cluster({2, 2}, {1.0, 1.0}, 1.0, 0.1);
  runtime::ControllerConfig ocfg;
  ocfg.half_life = 1.0;
  ocfg.initial_lambda = 0.3 * other.max_generic_rate();
  runtime::Controller octrl(other, ocfg);
  s = ctrl.restore_checkpoint(octrl.checkpoint_json());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::StaleState);

  // Estimator-kind mismatch: an older build's sliding-window snapshot is
  // stale, any other kind is malformed.
  std::string kind = good;
  auto pos = kind.find("\"ewma\"");
  ASSERT_NE(pos, std::string::npos);
  kind.replace(pos, 6, "\"window\"");
  s = ctrl.restore_checkpoint(kind);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::StaleState);
  kind.replace(pos, 8, "\"boxcar\"");
  s = ctrl.restore_checkpoint(kind);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::ParseError);

  // Valid JSON, wrong schema version.
  std::string corrupt = good;
  pos = corrupt.find("\"version\"");
  ASSERT_NE(pos, std::string::npos);
  pos = corrupt.find_first_of("0123456789", pos);
  ASSERT_NE(pos, std::string::npos);
  corrupt[pos] = '7';
  s = ctrl.restore_checkpoint(corrupt);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::ParseError);

  // Valid JSON, corrupt estimator snapshot (negative half-life).
  std::string bad_est = good;
  pos = bad_est.find("\"half_life\"");
  ASSERT_NE(pos, std::string::npos);
  pos = bad_est.find_first_of("0123456789", pos);
  ASSERT_NE(pos, std::string::npos);
  bad_est.insert(pos, "-");
  s = ctrl.restore_checkpoint(bad_est);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::InvalidArgument);

  // None of the failures touched the serving state.
  const auto fractions_after = ctrl.routing_fractions();
  ASSERT_EQ(fractions_after.size(), fractions_before.size());
  for (std::size_t i = 0; i < fractions_after.size(); ++i) {
    EXPECT_DOUBLE_EQ(fractions_after[i], fractions_before[i]);
  }
  EXPECT_EQ(ctrl.stats().restores, 0u);

  // And the original document still restores fine.
  EXPECT_TRUE(ctrl.restore_checkpoint(good).ok());
}

// Corruption battery over the on-disk shapes a crashed or bit-rotted
// checkpoint actually takes: every payload must be rejected with a typed
// error and must never be partially applied (the controller keeps
// serving its pre-restore table).
TEST(Checkpoint, CorruptionBatteryRejectsWithoutPartialApply) {
  const auto cluster = small_cluster();
  runtime::Controller ctrl(cluster, contained_cfg(cluster));
  const auto fractions_before = ctrl.routing_fractions();
  const std::string good = ctrl.checkpoint_json();

  // Torn write: a truncated prefix (the exact artifact write_file_atomic
  // exists to prevent) is not a parseable document.
  Status s = ctrl.restore_checkpoint(good.substr(0, good.size() / 2));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::ParseError);

  // Bit flip inside a key: "fractions" -> "Fractions" parses as JSON but
  // the required field is gone.
  std::string flipped = good;
  auto pos = flipped.find("\"fractions\"");
  ASSERT_NE(pos, std::string::npos);
  flipped[pos + 1] = static_cast<char>(flipped[pos + 1] ^ 0x20);
  s = ctrl.restore_checkpoint(flipped);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::ParseError);

  // NaN smuggled into the fractions array: JSON has no NaN literal, so
  // the document stops being JSON at all.
  std::string nan_doc = good;
  pos = nan_doc.find("\"fractions\"");
  pos = nan_doc.find_first_of("0123456789", pos);
  ASSERT_NE(pos, std::string::npos);
  auto end = nan_doc.find_first_of(",]", pos);
  ASSERT_NE(end, std::string::npos);
  nan_doc.replace(pos, end - pos, "NaN");
  s = ctrl.restore_checkpoint(nan_doc);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::ParseError);

  // Negative routing weight: valid JSON, but not a publishable table.
  std::string negative = good;
  pos = negative.find("\"fractions\"");
  pos = negative.find_first_of("0123456789", pos);
  ASSERT_NE(pos, std::string::npos);
  negative.insert(pos, "-");
  s = ctrl.restore_checkpoint(negative);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::ParseError);
  EXPECT_NE(s.error().context.find("not publishable"), std::string::npos);

  // Impossible topology claim: avail[0] above the server's blade count is
  // a stale snapshot, not a parse problem.
  std::string inflated = good;
  pos = inflated.find("\"avail\"");
  pos = inflated.find_first_of("0123456789", pos);
  ASSERT_NE(pos, std::string::npos);
  inflated.replace(pos, 1, "9");
  s = ctrl.restore_checkpoint(inflated);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::StaleState);

  // Nothing was partially applied by any rejection.
  const auto fractions_after = ctrl.routing_fractions();
  ASSERT_EQ(fractions_after.size(), fractions_before.size());
  for (std::size_t i = 0; i < fractions_after.size(); ++i) {
    EXPECT_DOUBLE_EQ(fractions_after[i], fractions_before[i]);
  }
  EXPECT_EQ(ctrl.stats().restores, 0u);
  EXPECT_TRUE(ctrl.restore_checkpoint(good).ok());
}

// --- crash-safe persistence (satellite) -----------------------------------

TEST(AtomicFile, WriteReadOverwriteRoundTrip) {
  const std::string path = "ATOMIC_roundtrip_test.json";
  ASSERT_TRUE(util::write_file_atomic(path, "first\n").ok());
  auto body = util::read_file(path);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body.value(), "first\n");

  // Overwrite replaces the whole content (rename over the old inode).
  ASSERT_TRUE(util::write_file_atomic(path, "second, longer body\n").ok());
  body = util::read_file(path);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body.value(), "second, longer body\n");

  // The temp file never outlives a successful write.
  EXPECT_FALSE(util::read_file(path + ".tmp").has_value());
  std::remove(path.c_str());
}

TEST(AtomicFile, FailureIsTypedAndLeavesNoDebris) {
  const std::string path = "no_such_dir_for_atomic_test/ckpt.json";
  const Status s = util::write_file_atomic(path, "body");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::Internal);
  EXPECT_FALSE(util::read_file(path).has_value());
  EXPECT_FALSE(util::read_file(path + ".tmp").has_value());

  auto missing = util::read_file("definitely_missing_file.json");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::Internal);
}

// Replay-level persistence: periodic checkpoints land on schedule, the
// final document restores into a fresh replay, and a corrupted document
// refuses the whole run up front.
TEST(Checkpoint, ReplayPersistsPeriodicallyAndRestores) {
  const auto cluster = small_cluster();
  runtime::ControllerConfig cfg;
  cfg.half_life = 2.0;
  cfg.initial_lambda = 0.4 * cluster.max_generic_rate();

  runtime::ReplayTrace trace;
  trace.horizon = 80.0;
  trace.seed = 7;
  trace.events.push_back({.time = 0.0,
                          .kind = runtime::ReplayEvent::Kind::Rate,
                          .rate = 0.4 * cluster.max_generic_rate()});

  const std::string path = "CKPT_replay_test.json";
  runtime::ReplayOptions opts;
  opts.checkpoint_out = path;
  opts.checkpoint_every = 20.0;
  const auto first = runtime::replay(cluster, cfg, trace, opts);
  // Periodic writes at 20/40/60(/80) plus the final horizon snapshot.
  EXPECT_GE(first.checkpoints_written, 4u);

  const auto doc = util::read_file(path);
  ASSERT_TRUE(doc.has_value());

  runtime::ReplayOptions restore;
  restore.checkpoint_in = doc.value();
  const auto resumed = runtime::replay(cluster, cfg, trace, restore);
  EXPECT_EQ(resumed.stats.restores, 1u);
  EXPECT_EQ(resumed.final_fractions.size(), cluster.size());

  restore.checkpoint_in = doc.value().substr(0, doc.value().size() / 3);
  EXPECT_THROW((void)runtime::replay(cluster, cfg, trace, restore), std::invalid_argument);
  std::remove(path.c_str());
}

// --- replay trace parser (satellite) --------------------------------------

TEST(ReplayParser, TypedErrorsNameTheLine) {
  auto r = runtime::try_parse_replay_trace("horizon 10\nrate 1 -5\n");
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::ParseError);
  EXPECT_NE(r.error().context.find("line 2"), std::string::npos);

  r = runtime::try_parse_replay_trace("horizon 10\nrate 5 1\nrate 1 2\n");
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().context.find("line 3"), std::string::npos);
  EXPECT_NE(r.error().context.find("non-decreasing"), std::string::npos);

  r = runtime::try_parse_replay_trace("horizon 10\nfail 1 0\nfail 2 0\n");
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().context.find("already fully failed"), std::string::npos);

  // recover resets the failed state; partial failures never set it.
  EXPECT_TRUE(runtime::try_parse_replay_trace(
                  "horizon 10\nfail 1 0\nrecover 2 0\nfail 3 0\n")
                  .has_value());
  EXPECT_TRUE(
      runtime::try_parse_replay_trace("horizon 10\nfail 1 0 2\nfail 2 0 2\n").has_value());

  EXPECT_THROW((void)runtime::parse_replay_trace("horizon 10\nrate 1 -5\n"),
               std::invalid_argument);
}

// Seeds, server indices and blade counts are unsigned: a minus sign is a
// line-numbered ParseError instead of a value wrapped around to 2^64 - 1
// (a seed or a server) or 4,294,967,294 (blades).
TEST(ReplayParser, SignedIndicesAreRejected) {
  for (const char* line : {"seed -1", "fail 1 0 -2", "fail 1 -1", "recover 1 -1 2",
                           "slow 1 -1 0.5", "stall 1 -1", "unstall 1 -1", "fail 1 0 +2"}) {
    const auto r = runtime::try_parse_replay_trace(std::string("horizon 10\n") + line + "\n");
    ASSERT_FALSE(r) << line;
    EXPECT_EQ(r.error().code, ErrorCode::ParseError) << line;
    EXPECT_NE(r.error().context.find("line 2"), std::string::npos) << r.error().context;
  }
  const auto ok = runtime::try_parse_replay_trace(
      "horizon 10\nseed 18446744073709551615\nfail 1 3 2\nrecover 2 3\nslow 3 4 0.5\n");
  ASSERT_TRUE(ok) << ok.error().to_string();
  EXPECT_EQ(ok.value().seed, 18446744073709551615ULL);
  EXPECT_EQ(ok.value().events[0].server, 3u);
  EXPECT_EQ(ok.value().events[0].blades, 2u);
  EXPECT_EQ(ok.value().events[1].blades, 0u);
  EXPECT_EQ(ok.value().events[2].server, 4u);
}

TEST(ReplayParser, ReferenceTraceRoundTrips) {
  const auto cluster = small_cluster();
  const auto trace = runtime::reference_failure_trace(cluster, 120.0);
  const auto reparsed = runtime::try_parse_replay_trace(runtime::to_text(trace));
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed.value().events.size(), trace.events.size());
}

// --- fault injector -------------------------------------------------------

TEST(FaultInjector, ProfilesAndDeterminism) {
  ASSERT_FALSE(runtime::chaos_profile("bogus"));
  const auto heavy = runtime::chaos_profile("heavy");
  ASSERT_TRUE(heavy.has_value());

  runtime::FaultInjector a(42, heavy.value());
  runtime::FaultInjector b(42, heavy.value());
  for (int k = 0; k < 500; ++k) {
    const auto fa = a.corrupt_observation(0.1 * k);
    const auto fb = b.corrupt_observation(0.1 * k);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.phantoms, fb.phantoms);
    // NaN != NaN, so compare bit-for-bit through isnan.
    EXPECT_TRUE((std::isnan(fa.time) && std::isnan(fb.time)) || fa.time == fb.time);
    EXPECT_EQ(a.should_fault_solver(), b.should_fault_solver());
  }
  const auto flaps_a = a.flap_events(50.0, 3);
  const auto flaps_b = b.flap_events(50.0, 3);
  ASSERT_EQ(flaps_a.size(), flaps_b.size());
  for (std::size_t i = 0; i < flaps_a.size(); ++i) {
    EXPECT_EQ(flaps_a[i].time, flaps_b[i].time);
    EXPECT_EQ(flaps_a[i].server, flaps_b[i].server);
    EXPECT_EQ(flaps_a[i].kind, flaps_b[i].kind);
  }
  // Sorted, and strictly alternating fail/recover per server.
  std::vector<int> down(3, 0);
  double prev = 0.0;
  for (const auto& e : flaps_a) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
    if (e.kind == runtime::ReplayEvent::Kind::Fail) {
      EXPECT_EQ(down[e.server], 0) << "duplicate failure";
      down[e.server] = 1;
    } else {
      EXPECT_EQ(down[e.server], 1) << "recovery without failure";
      down[e.server] = 0;
    }
  }
}

// --- the chaos battery ----------------------------------------------------

struct ChaosHarness {
  model::Cluster cluster;
  runtime::Controller ctrl;
  std::vector<unsigned> avail;
  double t = 0.0;
  double lambda;

  ChaosHarness(model::Cluster c, runtime::ControllerConfig cfg, double lam)
      : cluster(c), ctrl(std::move(c), cfg), avail(cluster.size()), lambda(lam) {
    for (std::size_t i = 0; i < cluster.size(); ++i) avail[i] = cluster.server(i).size();
  }
};

/// Structural invariants that must hold after EVERY event, no matter what
/// the chaos injector did: published table valid or properly blacked out,
/// shed probability in range, degraded mode consistent with the table,
/// and containment accounting closed (every failure served from LKG or
/// proportional fallback).
void check_chaos_invariants(const ChaosHarness& h, std::uint64_t seed, int step) {
  const double shed = h.ctrl.shed_probability();
  ASSERT_TRUE(std::isfinite(shed)) << "seed " << seed << " step " << step;
  ASSERT_GE(shed, 0.0) << "seed " << seed << " step " << step;
  ASSERT_LE(shed, 1.0) << "seed " << seed << " step " << step;

  bool any_alive = false;
  for (std::size_t i = 0; i < h.avail.size(); ++i) {
    ASSERT_EQ(h.ctrl.available_blades(i), h.avail[i]) << "seed " << seed << " step " << step;
    if (h.avail[i] > 0) any_alive = true;
  }

  const auto f = h.ctrl.routing_fractions();
  const runtime::Mode mode = h.ctrl.mode();
  if (f.empty()) {
    ASSERT_EQ(mode, runtime::Mode::Blackout) << "seed " << seed << " step " << step;
    ASSERT_FALSE(any_alive) << "seed " << seed << " step " << step;
    ASSERT_EQ(shed, 1.0) << "seed " << seed << " step " << step;
  } else {
    ASSERT_NE(mode, runtime::Mode::Blackout) << "seed " << seed << " step " << step;
    ASSERT_EQ(f.size(), h.avail.size()) << "seed " << seed << " step " << step;
    double sum = 0.0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      ASSERT_TRUE(std::isfinite(f[i])) << "seed " << seed << " step " << step << " i " << i;
      ASSERT_GE(f[i], 0.0) << "seed " << seed << " step " << step << " i " << i;
      sum += f[i];
    }
    ASSERT_NEAR(sum, 1.0, 1e-9) << "seed " << seed << " step " << step;
  }

  // Containment accounting: every contained failure was served somehow.
  const auto& st = h.ctrl.stats();
  ASSERT_EQ(st.solver_failures, st.lkg_publications + st.fallback_publications)
      << "seed " << seed << " step " << step;
  if (mode == runtime::Mode::LastKnownGood) {
    ASSERT_GT(st.lkg_publications, 0u) << "seed " << seed << " step " << step;
  }
}

void run_chaos_sequence(std::uint64_t seed, std::uint64_t* mode_transitions_out = nullptr) {
  sim::RngStream rng(seed, 13);
  static const char* kProfiles[] = {"light", "moderate", "heavy"};
  runtime::FaultInjector chaos(seed,
                               runtime::chaos_profile(kProfiles[seed % 3]).value());

  const std::size_t n = 2 + rng.below(3);
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = 1 + static_cast<unsigned>(rng.below(4));
    speeds[i] = 0.5 + 1.5 * rng.uniform();
  }
  const auto cluster = model::make_cluster(sizes, speeds, 1.0, 0.1 + 0.3 * rng.uniform());
  const double lam_max = cluster.max_generic_rate();

  runtime::ControllerConfig cfg;
  cfg.half_life = 32.0 / lam_max;
  cfg.check_interval = 4;
  cfg.min_arrivals = 8;
  cfg.initial_lambda = 0.5 * lam_max;
  ChaosHarness h(cluster, cfg, (0.3 + 0.5 * rng.uniform()) * 0.95 * lam_max);
  check_chaos_invariants(h, seed, -1);

  // Arrivals routed through the injector: drops, phantom spikes, and
  // timewarped stamps all hit the controller exactly as replay() with
  // ReplayOptions::chaos set would deliver them.
  auto feed = [&](int count) {
    const double gap = 1.0 / h.lambda;
    for (int k = 0; k < count; ++k) {
      h.t += gap;
      const auto f = chaos.corrupt_observation(h.t);
      if (!f.drop) {
        h.ctrl.on_generic_arrival(f.time, rng.uniform());
        for (unsigned p = 0; p < f.phantoms; ++p) h.ctrl.on_generic_arrival(f.time, 2.0);
      }
      if (chaos.should_fault_solver()) h.ctrl.arm_solver_fault();
    }
  };

  const int events = 16;
  for (int step = 0; step < events; ++step) {
    const std::uint64_t kind = rng.below(5);
    if (kind == 0) {
      h.lambda = (0.2 + 0.9 * rng.uniform()) * lam_max;
    } else if (kind == 1) {
      const std::size_t i = rng.below(n);
      const unsigned blades = static_cast<unsigned>(rng.below(sizes[i] + 1));
      h.ctrl.on_failure(h.t += 1e-3, i, blades);
      const unsigned lost = blades == 0 ? h.avail[i] : std::min(h.avail[i], blades);
      h.avail[i] -= lost;
    } else if (kind == 2) {
      const std::size_t i = rng.below(n);
      const unsigned blades = static_cast<unsigned>(rng.below(sizes[i] + 1));
      h.ctrl.on_recovery(h.t += 1e-3, i, blades);
      const unsigned missing = sizes[i] - h.avail[i];
      h.avail[i] += blades == 0 ? missing : std::min(missing, blades);
    } else if (kind == 3) {
      h.ctrl.on_special_arrival(h.t += 1e-3, rng.below(n));
    } else {
      // A burst of forced solver failures right before a re-solve.
      h.ctrl.arm_solver_fault(1 + rng.below(3));
      h.ctrl.resolve_now(h.t += 1e-3);
    }
    feed(48);
    check_chaos_invariants(h, seed, step);
  }

  // Faults cease: full topology back, stationary feasible load, armed
  // faults drained, estimators settled. The controller must reconverge.
  for (std::size_t i = 0; i < n; ++i) {
    if (h.avail[i] < sizes[i]) {
      h.ctrl.on_recovery(h.t += 1e-3, i);
      h.avail[i] = sizes[i];
    }
  }
  while (h.ctrl.armed_faults() > 0) h.ctrl.resolve_now(h.t += 1e-3);
  h.lambda = 0.5 * lam_max;
  const double gap = 1.0 / h.lambda;
  const int settle = static_cast<int>(std::ceil(8.0 * cfg.half_life * h.lambda)) + 64;
  for (int k = 0; k < settle; ++k) h.ctrl.on_generic_arrival(h.t += gap, rng.uniform());
  h.ctrl.resolve_now(h.t);
  check_chaos_invariants(h, seed, events);

  ASSERT_EQ(h.ctrl.mode(), runtime::Mode::Optimal) << "seed " << seed;
  ASSERT_EQ(h.ctrl.shed_probability(), 0.0) << "seed " << seed;

  // Within 1% of the static optimum for the inputs the last solve used.
  std::vector<model::BladeServer> eff;
  for (std::size_t i = 0; i < n; ++i) {
    const double cap = sizes[i] * speeds[i] / cluster.rbar();
    const double special = std::min(h.ctrl.estimated_special_rate(i, h.t),
                                    cfg.utilization_ceiling * cap);
    eff.emplace_back(sizes[i], speeds[i], special);
  }
  const auto sol = opt::LoadDistributionOptimizer(model::Cluster(std::move(eff), cluster.rbar()),
                                                  queue::Discipline::Fcfs)
                       .optimize(h.ctrl.last_solved_lambda());
  const auto f = h.ctrl.routing_fractions();
  ASSERT_EQ(f.size(), cluster.size()) << "seed " << seed;
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_NEAR(f[i], sol.rates[i] / h.ctrl.last_solved_lambda(), 1e-2) << "seed " << seed;
  }

  if (mode_transitions_out != nullptr) *mode_transitions_out += h.ctrl.stats().mode_transitions;
}

TEST(ChaosBattery, SeededFaultSequences) {
  // >= 300 sequences per the acceptance bar; profiles rotate per seed.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) run_chaos_sequence(seed);
}

TEST(ChaosBattery, ReplayChaoticIsDeterministicAndContained) {
  const auto cluster = small_cluster();
  const auto trace = runtime::reference_failure_trace(cluster, 120.0);
  runtime::ControllerConfig cfg;
  cfg.half_life = 1.2;

  for (const char* profile : {"light", "heavy"}) {
    const auto p = runtime::chaos_profile(profile).value();
    runtime::FaultInjector c1(9, p);
    runtime::FaultInjector c2(9, p);
    runtime::ReplayOptions o1;
    o1.chaos = &c1;
    runtime::ReplayOptions o2;
    o2.chaos = &c2;
    const auto r1 = runtime::replay(cluster, cfg, trace, o1);
    const auto r2 = runtime::replay(cluster, cfg, trace, o2);

    EXPECT_EQ(r1.stats.publications, r2.stats.publications) << profile;
    EXPECT_EQ(r1.stats.solver_failures, r2.stats.solver_failures) << profile;
    EXPECT_EQ(r1.stats.rejected_observations, r2.stats.rejected_observations) << profile;
    EXPECT_EQ(r1.final_mode, r2.final_mode) << profile;
    ASSERT_EQ(r1.final_fractions.size(), r2.final_fractions.size()) << profile;
    for (std::size_t i = 0; i < r1.final_fractions.size(); ++i) {
      EXPECT_DOUBLE_EQ(r1.final_fractions[i], r2.final_fractions[i]) << profile;
    }

    // Containment accounting holds at the horizon too.
    EXPECT_EQ(r1.stats.solver_failures,
              r1.stats.lkg_publications + r1.stats.fallback_publications)
        << profile;
    if (!r1.final_fractions.empty()) {
      double sum = 0.0;
      for (double x : r1.final_fractions) {
        EXPECT_TRUE(std::isfinite(x)) << profile;
        EXPECT_GE(x, 0.0) << profile;
        sum += x;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << profile;
    }
  }
}

#if BLADE_OBS_ENABLED
TEST(ChaosBattery, ContainmentCountersAreObservable) {
  const auto cluster = small_cluster();
  runtime::Controller ctrl(cluster, contained_cfg(cluster));
  const std::uint64_t failures_before = counter("runtime.solver_failures");
  const std::uint64_t lkg_before = counter("runtime.fallback_lkg");
  ctrl.arm_solver_fault();
  ctrl.resolve_now(1.0);
  obs::registry().flush_this_thread();
  EXPECT_EQ(counter("runtime.solver_failures"), failures_before + 1);
  EXPECT_EQ(counter("runtime.fallback_lkg"), lkg_before + 1);
}

// Acceptance bar: every degraded-mode transition across the 300-seed
// corpus must auto-dump the flight recorder, and the dump's timeline has
// to explain the transition — a trigger event (resolve trigger, failed
// solve, blade failure, watchdog trip, or chaos injection) recorded
// BEFORE the mode-transition event it caused.
TEST(ChaosBattery, EveryDegradedTransitionAutoDumpsWithCausalPrefix) {
  auto& rec = obs::recorder();
  rec.set_capacity(512);
  rec.reset();

  struct SinkTally {
    std::uint64_t mode_dumps = 0;      ///< auto-dumps with a "mode:" reason
    std::uint64_t other_dumps = 0;     ///< watchdog or other auto-dump reasons
    std::uint64_t degraded_dumps = 0;  ///< mode:fallback / mode:blackout
    std::uint64_t missing_transition = 0;
    std::uint64_t empty_prefix = 0;
    std::uint64_t missing_trigger = 0;
  } tally;
  std::string first_bad_reason;
  rec.set_dump_sink([&](const obs::Dump& d) {
    if (d.reason.rfind("mode:", 0) != 0) {
      ++tally.other_dumps;
      return;
    }
    ++tally.mode_dumps;
    if (d.reason != "mode:fallback" && d.reason != "mode:blackout") return;
    ++tally.degraded_dumps;

    // The transition that fired this dump is the newest ModeTransition in
    // the merged timeline; everything before it is the causal prefix.
    const auto events = d.merged();
    std::size_t ti = events.size();
    for (std::size_t i = events.size(); i-- > 0;) {
      if (events[i].type == obs::EventType::ModeTransition) {
        ti = i;
        break;
      }
    }
    if (ti == events.size()) {
      ++tally.missing_transition;
      if (first_bad_reason.empty()) first_bad_reason = d.reason + " (no transition)";
      return;
    }
    if (ti == 0) {
      ++tally.empty_prefix;
      if (first_bad_reason.empty()) first_bad_reason = d.reason + " (empty prefix)";
      return;
    }
    bool trigger = false;
    for (std::size_t i = 0; i < ti && !trigger; ++i) {
      switch (events[i].type) {
        case obs::EventType::ResolveTrigger:
        case obs::EventType::SolveEnd:
        case obs::EventType::BladeFail:
        case obs::EventType::BladeRecover:
        case obs::EventType::WatchdogTrip:
        case obs::EventType::ChaosInject:
          trigger = true;
          break;
        default:
          break;
      }
    }
    if (!trigger) {
      ++tally.missing_trigger;
      if (first_bad_reason.empty()) first_bad_reason = d.reason + " (no trigger event)";
    }
  });

  const std::uint64_t dumps_before = rec.auto_dumps();
  std::uint64_t transitions = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) run_chaos_sequence(seed, &transitions);
  rec.set_dump_sink(nullptr);

  // One auto-dump per mode transition — no transition escapes the
  // recorder, and nothing dumps twice.
  EXPECT_EQ(rec.auto_dumps() - dumps_before, tally.mode_dumps + tally.other_dumps);
  EXPECT_EQ(tally.mode_dumps, transitions);
  EXPECT_GT(transitions, 0u);
  // The corpus genuinely exercises degradation, and every degraded dump
  // carries an explanatory causal prefix.
  EXPECT_GT(tally.degraded_dumps, 0u);
  EXPECT_EQ(tally.missing_transition, 0u) << first_bad_reason;
  EXPECT_EQ(tally.empty_prefix, 0u) << first_bad_reason;
  EXPECT_EQ(tally.missing_trigger, 0u) << first_bad_reason;

  // Persist the corpus tail for the CI artifact upload (chaos jobs attach
  // RECORDER_*.jsonl from the build tree).
  obs::write_dump_file(rec.dump("chaos_battery"), "RECORDER_chaos_battery.jsonl");
  rec.set_capacity(4096);
  rec.reset();
}
#endif

}  // namespace
