// Sharded hierarchical solver: the one implementation of the paper's
// solve, from a 7-server example (LoadDistributionOptimizer runs it as
// one cell) to fleets of n ~ 100,000.
//
// The paper's outer search evaluates every server at every phi probe,
// so solve cost is O(n * inner). The Lagrange structure nests cleanly
// across partitions: the optimality condition is ONE global multiplier
// phi with g_i(lambda'_i) = phi for every active server, so
//
//   F(phi) = sum_i lambda'_i(phi) = sum_cells F_c(phi)
//
// where F_c is the cell's aggregate rate curve at the SAME phi. Each
// F_c is increasing (a sum of increasing per-server curves), hence F is
// too, and every cell count runs the same outer search
// (detail::run_phi_search and, warm, detail::joint_newton) and solves the
// IDENTICAL fixed point; the shard differential battery
// (tests/test_sharded_differential.cpp) pins cell-count invariance down.
//
// What makes it fast:
//   * class coalescing — servers in a cell with identical (m, speed,
//     special rate, discipline) share one inner solve per probe; a
//     catalog fleet of 100,000 blades built from dozens of SKUs costs a
//     few hundred inner solves per probe instead of 100,000;
//   * warm state — per cell, the class rates at both ends of the outer
//     bracket, so inner searches start bracketed, and across solves the
//     previous split: a re-solve runs the joint Newton iteration over the
//     classes, each weighted by its member count (SolverWorkspace);
//   * pool parallelism — several cells are evaluated concurrently over a
//     ThreadPool with cost-weighted deterministic chunking
//     (par::for_each_weighted_chunk), so chunk boundaries never depend
//     on the pool's thread count; one cell runs on the caller's thread;
//   * optional rate-matrix pruning (PruneOptions) — each cell routes to
//     only its top-k most attractive servers, with a weak-duality
//     optimality-loss bound computed from the converged multiplier and
//     surfaced in the result (Zhao & Mukherjee, PAPERS.md).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/optimizer.hpp"
#include "model/cluster.hpp"
#include "parallel/thread_pool.hpp"
#include "queueing/blade_queue.hpp"
#include "util/status.hpp"

namespace blade::opt {

/// Rate-matrix pruning: restrict each cell's dispatcher to its k most
/// attractive servers (ranked by empty-system response time T'_i(0),
/// ties broken by server index). Pruned servers receive zero generic
/// load; the solve reports a bound on the resulting optimality loss.
struct PruneOptions {
  /// Keep at most this many servers per cell; 0 (default) keeps all.
  std::size_t top_k = 0;
};

struct ShardOptions {
  /// Number of cells, clamped to [1, n]: 0 (default) is one cell.
  std::size_t cells = 0;
  /// Fill per-server utilizations / response times in the result. The
  /// minimized T', rates, and phi are always produced; the runtime
  /// controller turns this off to keep re-solves O(classes) except for
  /// the final rate expansion.
  bool finalize_metrics = true;
  PruneOptions prune;
};

/// A per-server LoadDistribution plus shard-layer diagnostics.
struct ShardedLoadDistribution {
  LoadDistribution dist;
  std::size_t cells = 0;              ///< cells the cluster was split into
  std::size_t server_classes = 0;     ///< kept equivalence classes (solve width)
  std::size_t coalesced_servers = 0;  ///< servers riding a class representative
  std::size_t pruned_servers = 0;     ///< servers excluded by PruneOptions
  /// Upper bound on T'(returned) - T'(unpruned optimum), from the
  /// weak-duality certificate at the converged multiplier. 0 when
  /// nothing was pruned; +inf when the certificate could not be
  /// evaluated (never observed in practice).
  double prune_loss_bound = 0.0;
};

/// The solver's workspace (one type for every cell count).
using ShardedWorkspace = SolverWorkspace;

/// The warm solve's first round at a caller's split (first_round): owned
/// by the caller and passed to the one solve that may start from it.
struct FirstRound {
  double lambda = -1.0;  ///< the lambda' it was taken at; < 0 when there is none
  /// Per kept class: x, weight, g and g' (as the water-fill capped it).
  detail::NewtonState state;
};

/// The solver: same options and error taxonomy as
/// LoadDistributionOptimizer (plus an Infeasible specific to pruned
/// capacity), a LoadDistribution inside the result. Construction
/// partitions the cluster into contiguous cells and builds the class
/// structure once; solves only touch class representatives until the
/// final O(n) rate expansion.
///
/// Budget semantics: OptimizerOptions::max_marginal_evaluations /
/// max_solve_seconds are charged at every marginal evaluation when there
/// is one cell. Several cells run concurrently, so a mid-probe global
/// trip would be racy: the budget is checked BETWEEN outer probes, and a
/// solve fails with BudgetExceeded after the first probe that crosses
/// it. The two can differ in exactly when — never whether — a
/// pathological solve is cut off.
class ShardedOptimizer {
 public:
  ShardedOptimizer(model::Cluster cluster, queue::Discipline d, OptimizerOptions opts = {},
                   ShardOptions shard = {});

  /// Heterogeneous disciplines: ds[i] applies to server i.
  ShardedOptimizer(model::Cluster cluster, std::vector<queue::Discipline> ds,
                   OptimizerOptions opts = {}, ShardOptions shard = {});

  [[nodiscard]] const model::Cluster& cluster() const noexcept { return cluster_; }
  [[nodiscard]] const std::vector<queue::Discipline>& disciplines() const noexcept {
    return discs_;
  }
  [[nodiscard]] const OptimizerOptions& options() const noexcept { return opts_; }
  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }
  [[nodiscard]] std::size_t server_classes() const noexcept { return kept_.size(); }
  [[nodiscard]] std::size_t coalesced_servers() const noexcept {
    return cluster_.size() - kept_.size() - pruned_.size();
  }
  [[nodiscard]] std::size_t pruned_servers() const noexcept { return pruned_.members.size(); }
  /// Saturation point of the kept (non-pruned) servers; equals the
  /// cluster's lambda'_max when nothing is pruned.
  [[nodiscard]] double kept_capacity() const noexcept { return kept_capacity_; }

  /// Solve with a fresh workspace / the caller's workspace (several cells
  /// on the global pool) / an explicit pool. One cell always runs on the
  /// calling thread. Throws like LoadDistributionOptimizer::optimize().
  [[nodiscard]] ShardedLoadDistribution optimize(double lambda_total) const;
  ShardedLoadDistribution optimize(double lambda_total, ShardedWorkspace& ws) const;
  ShardedLoadDistribution optimize(double lambda_total, par::ThreadPool& pool,
                                   ShardedWorkspace& ws) const;

  /// Non-throwing counterparts; the same containment contract as
  /// LoadDistributionOptimizer::try_optimize (typed errors, never
  /// exceptions). A warm solve takes `round` (first_round's) as its start
  /// and first round when it was taken at lambda_total, bit for bit, over
  /// as many classes: the same bits, evaluations and budget charge as
  /// evaluating it. Otherwise the round is ignored.
  [[nodiscard]] Expected<ShardedLoadDistribution> try_optimize(double lambda_total) const;
  Expected<ShardedLoadDistribution> try_optimize(double lambda_total, ShardedWorkspace& ws,
                                                 const FirstRound* round = nullptr) const;
  Expected<ShardedLoadDistribution> try_optimize(double lambda_total, par::ThreadPool& pool,
                                                 ShardedWorkspace& ws) const;

  /// The warm solve's first round at `rates` (one per server, a split of
  /// lambda_total) into `round`: each kept class reads its representative's
  /// rate, as a warm start does, and is evaluated once. Returns the T'
  /// decrease the round's model predicts (detail::water_fill, then
  /// detail::model_decrease). A typed error, and no round, when a rate is
  /// not in [0, its class's saturation guard), a class member's rate is
  /// not its representative's bit for bit, a pruned server holds load, or
  /// the water-fill fails.
  Expected<double> first_round(double lambda_total, std::span<const double> rates,
                               FirstRound& round) const;

 private:
  /// Server classes, every cell's in cell order: servers of one cell
  /// sharing identical queueing behavior, solved once per probe through
  /// their representative (the first member, the lowest global index).
  /// Class k's members, global indices ascending, are
  /// members[offset[k], offset[k + 1]); queues[k] is the representative's.
  struct Classes {
    std::vector<std::size_t> members;
    std::vector<std::size_t> offset{0};
    std::vector<queue::BladeQueue> queues;

    [[nodiscard]] std::size_t size() const noexcept { return offset.size() - 1; }
    [[nodiscard]] std::span<const std::size_t> of(std::size_t k) const {
      return std::span(members).subspan(offset[k], offset[k + 1] - offset[k]);
    }
    /// Member count, the class's weight in every sum over servers.
    [[nodiscard]] double count(std::size_t k) const {
      return static_cast<double>(offset[k + 1] - offset[k]);
    }
  };

  struct Cell {
    std::size_t begin = 0;  ///< contiguous global range [begin, end)
    std::size_t end = 0;
    /// The cell's kept classes are kept_ classes [first_class, first_class
    /// + classes); those cut by PruneOptions are pruned_ classes
    /// [first_pruned, first_pruned + pruned).
    std::size_t first_class = 0;
    std::size_t classes = 0;
    std::size_t first_pruned = 0;
    std::size_t pruned = 0;
  };

  void build_cells();
  void prepare_workspace(SolverWorkspace& ws) const;
  Expected<ShardedLoadDistribution> optimize_core(double lambda_total, par::ThreadPool* pool,
                                                  SolverWorkspace& ws,
                                                  const FirstRound* round = nullptr) const;
  Expected<ShardedLoadDistribution> solve(double lambda_total, double lambda_max,
                                          par::ThreadPool* pool, SolverWorkspace& ws,
                                          const FirstRound* round) const;
  void finalize(ShardedLoadDistribution& out, double lambda_total) const;
  [[nodiscard]] double prune_bound(const std::vector<double>& class_rates, double phi,
                                   double lambda_total, double t_prime, long* evals) const;

  model::Cluster cluster_;
  std::vector<queue::Discipline> discs_;  // one per server
  OptimizerOptions opts_;
  ShardOptions shard_;
  std::vector<Cell> cells_;
  Classes kept_;
  Classes pruned_;
  std::vector<double> cell_cost_;  ///< kept classes per cell (chunking weights)
  std::size_t cell_chunk_ = 1;
  double kept_capacity_ = 0.0;
};

}  // namespace blade::opt
