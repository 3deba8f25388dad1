// Sharded hierarchical solver for fleet-scale instances (n ~ 100,000).
//
// The paper's flat optimizer evaluates every server in every outer
// phi-iteration, so solve cost is O(n * inner) and the reproduction is
// effectively capped near n = 1,000. The Lagrange structure nests
// cleanly across partitions: the optimality condition is ONE global
// multiplier phi with g_i(lambda'_i) = phi for every active server, so
//
//   F(phi) = sum_i lambda'_i(phi) = sum_cells F_c(phi)
//
// where F_c is the cell's aggregate rate curve at the SAME phi. Each
// F_c is increasing (a sum of increasing per-server curves), hence F is
// too, and the outer search over phi is exactly the flat one — the
// sharded solver reuses detail::run_phi_search (and, warm,
// detail::joint_newton) verbatim and solves the IDENTICAL fixed point.
// Sharded-vs-flat agreement is therefore an exact mathematical claim,
// which is what the shard-vs-flat differential battery
// (tests/test_sharded_differential.cpp) pins down; with a single cell and
// coalescing disabled the call sequence is bitwise the flat one.
//
// What makes it fast:
//   * class coalescing — servers in a cell with identical (m, speed,
//     special rate, discipline) share one inner solve per probe; a
//     catalog fleet of 100,000 blades built from dozens of SKUs costs a
//     few hundred inner solves per probe instead of 100,000;
//   * warm state — the same monotone [rates_lo, rates_hi] brackets the
//     flat workspace keeps across outer probes, held per cell, and the
//     same cross-solve warm start: a re-solve runs the flat path's joint
//     Newton iteration over the classes, each weighted by its member
//     count, from the previous solve's split;
//   * pool parallelism — cells are evaluated concurrently over a
//     ThreadPool with cost-weighted deterministic chunking
//     (par::for_each_weighted_chunk), so chunk boundaries never depend
//     on the pool's thread count;
//   * optional rate-matrix pruning (PruneOptions) — each cell routes to
//     only its top-k most attractive servers, with a weak-duality
//     optimality-loss bound computed from the converged multiplier and
//     surfaced in the result (Zhao & Mukherjee, PAPERS.md).
#pragma once

#include <cstddef>
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
  /// Number of cells; 0 (default) picks n / min_cell_size clamped to
  /// [1, 64]. Always clamped to at most n.
  std::size_t cells = 0;
  /// Target lower bound on cell size used by the automatic cell count.
  std::size_t min_cell_size = 64;
  /// Coalesce servers with identical (size, speed, special rate,
  /// discipline) within a cell into one equivalence class solved once
  /// per probe. Exact for the shared global multiplier (identical
  /// marginal curves have identical roots); disable to force one class
  /// per server, e.g. for the bitwise flat-identity tests.
  bool coalesce_identical = true;
  /// Fill per-server utilizations / response times in the result. The
  /// minimized T', rates, and phi are always produced; the runtime
  /// controller turns this off to keep re-solves O(classes) except for
  /// the final rate expansion.
  bool finalize_metrics = true;
  PruneOptions prune;

  /// Throws std::invalid_argument when min_cell_size is 0.
  void validate() const;
};

/// A flat LoadDistribution plus shard-layer diagnostics.
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

/// Per-cell bracket state reused across outer probes and, when the
/// caller keeps one alive, the previous solve across solves — the sharded
/// analogue of SolverWorkspace (same monotone-bracket caching, and the
/// same warm start from the previous solve's split). NOT thread-safe: one
/// workspace per concurrent solve. The solver resizes it as needed; a
/// default-constructed workspace fits any instance.
class ShardedWorkspace {
 public:
  ShardedWorkspace() = default;

  /// Drops every cached value, including the previous solve's phi and
  /// rates: the next solve runs cold.
  void clear();

  /// The converged phi of the last solve on this workspace (< 0 when
  /// the workspace has not completed a solve yet). Exposed for tests.
  [[nodiscard]] double seed_phi() const noexcept { return seed_phi_; }

 private:
  friend class ShardedOptimizer;

  struct CellState {
    std::vector<double> rates_lo;  ///< per-class rates at phi_lo
    std::vector<double> rates_hi;  ///< per-class rates at phi_hi
    std::vector<double> scratch;   ///< per-class rates at the probe phi
    double total = 0.0;            ///< F_c at the probe phi
    long evals = 0;                ///< marginal evaluations in this cell
    Error err{ErrorCode::Ok, {}};  ///< first inner failure, if any
  };

  std::vector<CellState> cells_;
  /// The warm solve's state over every kept class, cell after cell.
  detail::NewtonState newton_;
  std::vector<double> rates_;  ///< the last solve's split, per server
  double seed_phi_ = -1.0;
};

/// Drop-in hierarchical counterpart of LoadDistributionOptimizer: same
/// options, same error taxonomy (plus an Infeasible specific to pruned
/// capacity), a LoadDistribution inside the result. Construction
/// partitions the cluster into contiguous cells and builds the class
/// structure once; solves only touch class representatives until the
/// final O(n) rate expansion.
///
/// Budget semantics: OptimizerOptions::max_marginal_evaluations /
/// max_solve_seconds are enforced BETWEEN outer probes (cells run
/// concurrently, so a mid-probe global trip would be racy); a solve
/// fails with BudgetExceeded after the first probe that crosses the
/// budget. The flat solver trips mid-probe, so the two paths can differ
/// in exactly when — never whether — a pathological solve is cut off.
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
  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }
  [[nodiscard]] std::size_t server_classes() const noexcept { return server_classes_; }
  [[nodiscard]] std::size_t coalesced_servers() const noexcept { return coalesced_servers_; }
  [[nodiscard]] std::size_t pruned_servers() const noexcept { return pruned_servers_; }
  /// Saturation point of the kept (non-pruned) servers; equals the
  /// cluster's lambda'_max when nothing is pruned.
  [[nodiscard]] double kept_capacity() const noexcept { return kept_capacity_; }

  /// Solve on the global pool with a fresh workspace / the caller's
  /// workspace / an explicit pool. Throws like the flat optimize().
  [[nodiscard]] ShardedLoadDistribution optimize(double lambda_total) const;
  ShardedLoadDistribution optimize(double lambda_total, ShardedWorkspace& ws) const;
  ShardedLoadDistribution optimize(double lambda_total, par::ThreadPool& pool,
                                   ShardedWorkspace& ws) const;

  /// Non-throwing counterparts; the same containment contract as the
  /// flat try_optimize (typed errors, never exceptions).
  [[nodiscard]] Expected<ShardedLoadDistribution> try_optimize(double lambda_total) const;
  Expected<ShardedLoadDistribution> try_optimize(double lambda_total,
                                                 ShardedWorkspace& ws) const;
  Expected<ShardedLoadDistribution> try_optimize(double lambda_total, par::ThreadPool& pool,
                                                 ShardedWorkspace& ws) const;

 private:
  /// Servers of one cell sharing identical queueing behavior; the class
  /// is solved once per probe through its representative
  /// (members.front(), the lowest global index).
  struct ServerClass {
    std::vector<std::size_t> members;  ///< global indices, ascending
  };

  struct Cell {
    std::size_t begin = 0;  ///< contiguous global range [begin, end)
    std::size_t end = 0;
    std::size_t first_class = 0;  ///< index of classes[0] among all cells' kept classes
    std::vector<ServerClass> classes;        ///< kept, in first-occurrence order
    std::vector<queue::BladeQueue> queues;   ///< one per kept class (representative's)
    std::vector<ServerClass> pruned;         ///< classes cut by PruneOptions
    std::vector<queue::BladeQueue> pruned_queues;
  };

  void build_cells();
  void prepare_workspace(ShardedWorkspace& ws) const;
  Expected<ShardedLoadDistribution> optimize_core(double lambda_total, par::ThreadPool& pool,
                                                  ShardedWorkspace& ws) const;
  void finalize(ShardedLoadDistribution& out, double lambda_total) const;
  [[nodiscard]] double prune_bound(const std::vector<double>& class_rates, double phi,
                                   double lambda_total, double t_prime, long* evals) const;

  model::Cluster cluster_;
  std::vector<queue::Discipline> discs_;  // one per server
  OptimizerOptions opts_;
  ShardOptions shard_;
  std::vector<Cell> cells_;
  std::vector<double> cell_cost_;  ///< classes per cell (chunking weights)
  std::size_t cell_chunk_ = 1;
  std::size_t server_classes_ = 0;
  std::size_t coalesced_servers_ = 0;
  std::size_t pruned_servers_ = 0;
  double kept_capacity_ = 0.0;
};

}  // namespace blade::opt
