#include "core/sharded.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/objective.hpp"
#include "core/solver_core.hpp"
#include "numerics/special.hpp"
#include "obs/obs.hpp"
#include "parallel/sweep.hpp"

namespace blade::opt {

namespace {

/// Per-cell objective over the cell's class-representative queues with
/// the GLOBAL lambda' in the marginal scaling. It scales through the same
/// detail::scaled_marginal functions as ResponseTimeObjective — the class
/// exists only because the flat objective's constructor (correctly)
/// rejects lambda' at or above the saturation point of the cluster it is
/// given, and a cell sub-cluster saturates far below the global lambda'
/// it must price against.
class CellObjective {
 public:
  CellObjective(const std::vector<queue::BladeQueue>& queues, double lambda_total)
      : queues_(&queues), inv_lambda_(1.0 / lambda_total) {}

  [[nodiscard]] double rate_bound(std::size_t i) const {
    return (*queues_)[i].max_generic_rate();
  }
  [[nodiscard]] double marginal(std::size_t i, double rate) const {
    return detail::scaled_marginal((*queues_)[i], rate, inv_lambda_);
  }
  [[nodiscard]] std::pair<double, double> marginal_with_derivative(std::size_t i,
                                                                   double rate) const {
    return detail::scaled_marginal_with_derivative((*queues_)[i], rate, inv_lambda_);
  }

 private:
  const std::vector<queue::BladeQueue>* queues_;
  double inv_lambda_;  ///< 1/lambda'
};

/// Coalescing key: two servers belong to the same class iff every
/// parameter entering their queueing model is bitwise identical.
using ClassKey = std::tuple<unsigned, std::uint64_t, std::uint64_t, int>;

ClassKey class_key(const model::BladeServer& s, queue::Discipline d) {
  return {s.size(), std::bit_cast<std::uint64_t>(s.speed()),
          std::bit_cast<std::uint64_t>(s.special_rate()), static_cast<int>(d)};
}

}  // namespace

void ShardOptions::validate() const {
  if (min_cell_size == 0) {
    throw std::invalid_argument("ShardOptions: min_cell_size must be >= 1");
  }
}

void ShardedWorkspace::clear() {
  cells_.clear();
  newton_ = detail::NewtonState{};
  rates_.clear();
  seed_phi_ = -1.0;
}

ShardedOptimizer::ShardedOptimizer(model::Cluster cluster, queue::Discipline d,
                                   OptimizerOptions opts, ShardOptions shard)
    : ShardedOptimizer(model::Cluster(cluster),
                       std::vector<queue::Discipline>(cluster.size(), d), opts, shard) {}

ShardedOptimizer::ShardedOptimizer(model::Cluster cluster, std::vector<queue::Discipline> ds,
                                   OptimizerOptions opts, ShardOptions shard)
    : cluster_(std::move(cluster)), discs_(std::move(ds)), opts_(opts), shard_(shard) {
  if (discs_.size() != cluster_.size()) {
    throw std::invalid_argument("ShardedOptimizer: discipline vector size mismatch");
  }
  opts_.validate();
  shard_.validate();
  build_cells();
}

void ShardedOptimizer::build_cells() {
  const std::size_t n = cluster_.size();
  std::size_t cell_count = shard_.cells;
  if (cell_count == 0) {
    cell_count = std::clamp<std::size_t>(n / shard_.min_cell_size, 1, 64);
  }
  cell_count = std::min(cell_count, n);
  cells_.assign(cell_count, Cell{});

  const double rbar = cluster_.rbar();
  num::KahanSum capacity;
  for (std::size_t c = 0; c < cell_count; ++c) {
    Cell& cell = cells_[c];
    cell.begin = c * n / cell_count;
    cell.end = (c + 1) * n / cell_count;
    cell.first_class = server_classes_;

    std::map<ClassKey, std::size_t> index;
    for (std::size_t g = cell.begin; g < cell.end; ++g) {
      if (!shard_.coalesce_identical) {
        cell.classes.push_back(ServerClass{{g}});
        continue;
      }
      const auto [it, inserted] =
          index.try_emplace(class_key(cluster_.server(g), discs_[g]), cell.classes.size());
      if (inserted) {
        cell.classes.push_back(ServerClass{{g}});
      } else {
        cell.classes[it->second].members.push_back(g);
      }
    }

    if (shard_.prune.top_k > 0 && shard_.prune.top_k < cell.end - cell.begin) {
      // Attraction of a class = its empty-system response time T'(0):
      // lambda'-independent, so the kept sets for increasing k are
      // nested and the pruned solution's T' is monotone in k. Ties
      // break by global index, keeping the selection total and
      // deterministic.
      std::vector<std::pair<double, std::size_t>> order;  // (T'(0), global index)
      order.reserve(cell.end - cell.begin);
      for (const ServerClass& cls : cell.classes) {
        const std::size_t rep = cls.members.front();
        const double attract = cluster_.server(rep)
                                   .queue(rbar, discs_[rep], opts_.service_scv)
                                   .generic_response_time(0.0);
        for (std::size_t g : cls.members) order.emplace_back(attract, g);
      }
      std::sort(order.begin(), order.end());
      std::vector<bool> keep(cell.end - cell.begin, false);
      for (std::size_t r = 0; r < shard_.prune.top_k; ++r) {
        keep[order[r].second - cell.begin] = true;
      }
      std::vector<ServerClass> kept_classes;
      for (ServerClass& cls : cell.classes) {
        ServerClass kept;
        ServerClass cut;
        for (std::size_t g : cls.members) {
          (keep[g - cell.begin] ? kept : cut).members.push_back(g);
        }
        if (!kept.members.empty()) kept_classes.push_back(std::move(kept));
        if (!cut.members.empty()) cell.pruned.push_back(std::move(cut));
      }
      cell.classes = std::move(kept_classes);
    }

    cell.queues.reserve(cell.classes.size());
    for (const ServerClass& cls : cell.classes) {
      const std::size_t rep = cls.members.front();
      cell.queues.push_back(cluster_.server(rep).queue(rbar, discs_[rep], opts_.service_scv));
      capacity.add(static_cast<double>(cls.members.size()) * cell.queues.back().max_generic_rate());
      server_classes_ += 1;
      coalesced_servers_ += cls.members.size() - 1;
    }
    cell.pruned_queues.reserve(cell.pruned.size());
    for (const ServerClass& cls : cell.pruned) {
      const std::size_t rep = cls.members.front();
      cell.pruned_queues.push_back(
          cluster_.server(rep).queue(rbar, discs_[rep], opts_.service_scv));
      pruned_servers_ += cls.members.size();
      coalesced_servers_ += cls.members.size() - 1;
    }
  }
  kept_capacity_ = capacity.value();

  cell_cost_.resize(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    cell_cost_[c] = static_cast<double>(cells_[c].classes.size());
  }
  cell_chunk_ = std::max<std::size_t>(1, cell_count / 16);
}

void ShardedOptimizer::prepare_workspace(ShardedWorkspace& ws) const {
  ws.cells_.resize(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    auto& st = ws.cells_[c];
    const std::size_t k = cells_[c].classes.size();
    st.rates_lo.assign(k, 0.0);
    st.rates_hi.assign(k, 0.0);
    st.scratch.assign(k, 0.0);
    st.total = 0.0;
    st.evals = 0;
    st.err = Error{ErrorCode::Ok, {}};
  }
}

ShardedLoadDistribution ShardedOptimizer::optimize(double lambda_total) const {
  ShardedWorkspace ws;
  return optimize(lambda_total, ws);
}

ShardedLoadDistribution ShardedOptimizer::optimize(double lambda_total,
                                                   ShardedWorkspace& ws) const {
  return optimize(lambda_total, par::global_pool(), ws);
}

ShardedLoadDistribution ShardedOptimizer::optimize(double lambda_total, par::ThreadPool& pool,
                                                   ShardedWorkspace& ws) const {
  auto res = optimize_core(lambda_total, pool, ws);
  if (!res) throw_solver_error(res.error());
  return std::move(res).value();
}

Expected<ShardedLoadDistribution> ShardedOptimizer::try_optimize(double lambda_total) const {
  ShardedWorkspace ws;
  return try_optimize(lambda_total, ws);
}

Expected<ShardedLoadDistribution> ShardedOptimizer::try_optimize(double lambda_total,
                                                                 ShardedWorkspace& ws) const {
  return try_optimize(lambda_total, par::global_pool(), ws);
}

Expected<ShardedLoadDistribution> ShardedOptimizer::try_optimize(double lambda_total,
                                                                 par::ThreadPool& pool,
                                                                 ShardedWorkspace& ws) const {
  try {
    return optimize_core(lambda_total, pool, ws);
  } catch (const std::exception& e) {
    return detail::make_solver_error(ErrorCode::Internal,
                                     std::string("optimize: unexpected exception: ") + e.what());
  }
}

Expected<ShardedLoadDistribution> ShardedOptimizer::optimize_core(double lambda_total,
                                                                  par::ThreadPool& pool,
                                                                  ShardedWorkspace& ws) const {
  const double lambda_max = cluster_.max_generic_rate();
  if (!(lambda_total > 0.0)) {
    return detail::make_solver_error(ErrorCode::InvalidArgument, "optimize: lambda' must be > 0");
  }
  if (lambda_total >= lambda_max) {
    std::ostringstream os;
    os << std::setprecision(10) << "optimize: lambda'=" << lambda_total
       << " >= lambda'_max=" << lambda_max << " (infeasible)";
    return detail::make_solver_error(ErrorCode::Infeasible, os.str());
  }
  if (pruned_servers_ > 0 && lambda_total >= kept_capacity_) {
    std::ostringstream os;
    os << std::setprecision(10) << "optimize: lambda'=" << lambda_total
       << " >= pruned capacity " << kept_capacity_
       << " (infeasible under prune.top_k=" << shard_.prune.top_k << ")";
    return detail::make_solver_error(ErrorCode::Infeasible, os.str());
  }

  BLADE_OBS_SPAN("shard_optimize");
  BLADE_OBS_TIMER("solver.shard.solve_seconds");
  BLADE_OBS_COUNT("solver.shard.solves");
  BLADE_OBS_COUNT_N("solver.shard.cells", static_cast<long>(cells_.size()));
  BLADE_OBS_EVENT(SolveStart, cells_.size(), lambda_total, lambda_max, 0.0);

  prepare_workspace(ws);
  detail::PhiBracket br;
  const double tol = opts_.rate_tolerance;
  const std::size_t cell_count = cells_.size();

  // User budgets are enforced between probes (see the class comment);
  // each cell evaluation gets an inert per-call budget so the shared
  // inner solve never reads contended state from pool threads.
  const detail::SolveBudget user_budget = detail::SolveBudget::from(opts_);

  // Runs a cell's work, parking any exception in its state like an inner
  // failure: cells run on pool threads and must never throw.
  auto contained = [&](std::size_t c, auto&& work) noexcept {
    auto& st = ws.cells_[c];
    try {
      work(cells_[c], st, CellObjective(cells_[c].queues, lambda_total));
    } catch (const std::exception& e) {
      st.err = Error{ErrorCode::Internal,
                     std::string("optimize: unexpected exception in cell: ") + e.what()};
    } catch (...) {
      st.err = Error{ErrorCode::Internal, "optimize: unknown exception in cell"};
    }
  };
  // Runs `work` on every cell: inline on the calling thread with one cell
  // (and coalescing off, the call sequence is then bitwise the flat
  // solver's), else over the pool.
  auto for_each_cell = [&](auto&& work) {
    if (cell_count == 1) {
      contained(0, work);
      return;
    }
    par::for_each_weighted_chunk(pool, cell_count, cell_chunk_, cell_cost_,
                                 [&](std::size_t lo_c, std::size_t hi_c) {
                                   for (std::size_t c = lo_c; c < hi_c; ++c) contained(c, work);
                                 });
  };
  long spent = 0;  // evaluations of a failed warm attempt, outside the cold budget
  auto evals_so_far = [&] {
    long evals = spent;
    for (const auto& st : ws.cells_) evals += st.evals;
    return evals;
  };
  // After a pass over the cells: the first parked failure (lowest cell
  // index, deterministically), else a tripped user budget.
  auto check_cells = [&]() -> std::optional<Error> {
    for (const auto& st : ws.cells_) {
      if (st.err.code != ErrorCode::Ok) return st.err;
    }
    if (user_budget.max_evals > 0 && evals_so_far() - spent > user_budget.max_evals) {
      std::ostringstream os;
      os << "optimize: marginal-evaluation budget exceeded (max_marginal_evaluations="
         << user_budget.max_evals << ")";
      return detail::make_solver_error(ErrorCode::BudgetExceeded, os.str());
    }
    if (user_budget.timed && std::chrono::steady_clock::now() > user_budget.deadline) {
      std::ostringstream os;
      os << "optimize: wall-time budget exceeded (max_solve_seconds=" << user_budget.max_seconds
         << ")";
      return detail::make_solver_error(ErrorCode::BudgetExceeded, os.str());
    }
    return std::nullopt;
  };

  // F(phi): per cell, a warm-bracketed inner solve per class, class
  // counts folding into a compensated cell total.
  std::optional<Error> err;
  auto total_at = [&](double phi) -> double {
    const bool use_lo = phi >= br.phi_lo;
    const bool use_hi = br.phi_hi >= 0.0 && phi <= br.phi_hi;
    for_each_cell([&](const Cell& cell, auto& st, const CellObjective& obj) {
      detail::SolveBudget inert;
      num::KahanSum f;
      for (std::size_t k = 0; k < cell.classes.size(); ++k) {
        const double lo = use_lo ? st.rates_lo[k] - tol : 0.0;
        const double hi = use_hi ? st.rates_hi[k] + tol : -1.0;
        auto r = detail::find_rate_core(opts_, obj, k, phi, lo, hi, &st.evals, inert);
        if (!r) {
          st.err = r.error();
          return;
        }
        st.scratch[k] = r.value();
        f.add(static_cast<double>(cell.classes[k].members.size()) * r.value());
      }
      st.total = f.value();
    });
    if ((err = check_cells())) return std::numeric_limits<double>::quiet_NaN();
    num::KahanSum f;
    for (const auto& st : ws.cells_) f.add(st.total);
    return f.value();
  };
  auto absorb = [&](double phi, double total) {
    if (total < lambda_total) {
      if (phi >= br.phi_lo) {
        br.phi_lo = phi;
        br.total_lo = total;
        for (auto& st : ws.cells_) st.rates_lo.swap(st.scratch);
      }
    } else if (br.phi_hi < 0.0 || phi <= br.phi_hi) {
      br.phi_hi = phi;
      br.total_hi = total;
      for (auto& st : ws.cells_) st.rates_hi.swap(st.scratch);
    }
  };

  // Warm when the workspace holds a previous solve, as in the flat solver:
  // joint Newton with one entry per kept class, weighted by its members.
  double warm_phi = 0.0;
  detail::NewtonState& ns = ws.newton_;
  auto warm_solve = [&]() -> Expected<int> {
    ns.x.resize(server_classes_);
    ns.weight.resize(server_classes_);
    ns.hub.resize(server_classes_);
    const bool carried = ws.rates_.size() == cluster_.size();
    for (const Cell& cell : cells_) {
      for (std::size_t k = 0; k < cell.classes.size(); ++k) {
        const std::size_t e = cell.first_class + k;
        ns.x[e] = carried ? ws.rates_[cell.classes[k].members.front()]
                          : std::numeric_limits<double>::quiet_NaN();
        ns.weight[e] = static_cast<double>(cell.classes[k].members.size());
        ns.hub[e] = (1.0 - opts_.saturation_margin) * cell.queues[k].max_generic_rate();
      }
    }
    auto eval_at = [&](const std::vector<double>& x, std::vector<double>& g,
                       std::vector<double>& dg) -> std::optional<Error> {
      for_each_cell([&](const Cell& cell, auto& st, const CellObjective& obj) {
        for (std::size_t k = 0; k < cell.classes.size(); ++k) {
          const std::size_t e = cell.first_class + k;
          ++st.evals;
          std::tie(g[e], dg[e]) = obj.marginal_with_derivative(k, x[e]);
        }
      });
      return check_cells();
    };
    auto exact_at = [&](std::size_t e, double phi, double lo, double hi) {
      const auto it = std::upper_bound(cells_.begin(), cells_.end(), e,
                                       [](std::size_t v, const Cell& c) { return v < c.first_class; });
      const std::size_t c = static_cast<std::size_t>(it - cells_.begin()) - 1;
      detail::SolveBudget inert;
      return detail::find_rate_core(opts_, CellObjective(cells_[c].queues, lambda_total),
                                    e - cells_[c].first_class, phi, lo, hi, &ws.cells_[c].evals,
                                    inert);
    };
    return detail::joint_newton(opts_, lambda_total, ns, warm_phi, eval_at, exact_at);
  };
  auto restart = [&] {
    spent = evals_so_far();
    prepare_workspace(ws);
  };
  bool warm = ws.seed_phi_ > 0.0;
  auto search = detail::run_phi_search(opts_, lambda_total, lambda_max, warm, br, err, warm_solve,
                                       total_at, absorb, restart);
  const long inner_evals = evals_so_far();
  if (!search) {
    BLADE_OBS_EVENT(SolveEnd, search.error().code, 0.0, 0.0, inner_evals);
    return search.error();
  }

  // Expand the class-level rates back to full length (pruned servers
  // stay at zero) and finish exactly as the flat path does: the warm
  // solve's rates rescaled onto the constraint, or the cold bracket ends
  // extracted. ns.x keeps the kept classes' rates at the returned
  // multiplier, for the pruning certificate.
  const std::size_t n = cluster_.size();
  ShardedLoadDistribution out;
  std::vector<double> rates_lo(warm ? 0 : n, 0.0);
  out.dist.rates.assign(n, 0.0);
  ns.x.resize(server_classes_);
  for (std::size_t c = 0; c < cell_count; ++c) {
    const auto& st = ws.cells_[c];
    const Cell& cell = cells_[c];
    for (std::size_t k = 0; k < cell.classes.size(); ++k) {
      const std::size_t e = cell.first_class + k;
      if (!warm) ns.x[e] = st.rates_hi[k];
      for (std::size_t g : cell.classes[k].members) {
        out.dist.rates[g] = ns.x[e];
        if (!warm) rates_lo[g] = st.rates_lo[k];
      }
    }
  }
  out.dist.phi = warm ? warm_phi : br.phi_hi;
  if (warm) {
    detail::rescale_to(out.dist.rates, detail::rate_total(out.dist.rates), lambda_total);
  } else {
    detail::extract_rates(br, rates_lo, out.dist.rates, lambda_total, opts_.rate_tolerance);
  }
  // The next solve on this workspace starts from this one, per server, so
  // that a solver with other classes can read it.
  ws.seed_phi_ = out.dist.phi;
  ws.rates_ = out.dist.rates;

  out.dist.outer_iterations = search.value();
  out.dist.inner_evaluations = inner_evals;
  out.cells = cell_count;
  out.server_classes = server_classes_;
  out.coalesced_servers = coalesced_servers_;
  out.pruned_servers = pruned_servers_;

  finalize(out, lambda_total);
  if (pruned_servers_ > 0) {
    out.prune_loss_bound = prune_bound(ns.x, out.dist.phi, lambda_total, out.dist.response_time,
                                       &out.dist.inner_evaluations);
    BLADE_OBS_GAUGE_SET("solver.shard.prune_loss_bound", out.prune_loss_bound);
  }

  BLADE_OBS_COUNT_N("solver.shard.outer_iterations", search.value());
  BLADE_OBS_COUNT_N("solver.shard.inner_evaluations", inner_evals);
  BLADE_OBS_EVENT(SolveEnd, ErrorCode::Ok, out.dist.phi, search.value(), inner_evals);
  if (coalesced_servers_ > 0) {
    BLADE_OBS_COUNT_N("solver.shard.coalesced_servers", static_cast<long>(coalesced_servers_));
  }
  if (pruned_servers_ > 0) {
    BLADE_OBS_COUNT_N("solver.shard.pruned_servers", static_cast<long>(pruned_servers_));
  }

  if (opts_.verbosity >= 1) {
    const std::string line = out.dist.summary();
    if (opts_.diagnostic_sink) {
      opts_.diagnostic_sink(line);
    } else {
      std::clog << line << '\n';
    }
  }
  return out;
}

void ShardedOptimizer::finalize(ShardedLoadDistribution& out, double lambda_total) const {
  const std::size_t n = cluster_.size();
  if (coalesced_servers_ == 0 && pruned_servers_ == 0) {
    // One server per class and nothing cut: run the flat finalization so
    // the single-cell configuration stays bitwise identical to the flat
    // solver all the way through the reported metrics.
    const ResponseTimeObjective obj(cluster_, discs_, lambda_total, opts_.service_scv);
    if (shard_.finalize_metrics) {
      out.dist.utilizations = obj.utilizations(out.dist.rates);
      out.dist.response_times.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.dist.response_times[i] = obj.queue(i).generic_response_time(out.dist.rates[i]);
      }
    }
    out.dist.response_time =
        shard_.finalize_metrics
            ? detail::mean_response_time(out.dist.rates, lambda_total,
                                         [&](std::size_t i) { return out.dist.response_times[i]; })
            : obj.value(out.dist.rates);
    return;
  }

  // Class-structured finalization: one queue evaluation per class,
  // broadcast to the members (extraction preserves within-class
  // equality, so the representative's rate is every member's rate).
  if (shard_.finalize_metrics) {
    out.dist.utilizations.assign(n, 0.0);
    out.dist.response_times.assign(n, 0.0);
  }
  num::KahanSum acc;
  for (const Cell& cell : cells_) {
    for (std::size_t k = 0; k < cell.classes.size(); ++k) {
      const ServerClass& cls = cell.classes[k];
      const double rate = out.dist.rates[cls.members.front()];
      if (shard_.finalize_metrics) {
        const double rt = cell.queues[k].generic_response_time(rate);
        const double rho = cell.queues[k].utilization(rate);
        for (std::size_t g : cls.members) {
          out.dist.response_times[g] = rt;
          out.dist.utilizations[g] = rho;
        }
        if (rate != 0.0) acc.add(static_cast<double>(cls.members.size()) * rate * rt);
      } else if (rate != 0.0) {
        acc.add(static_cast<double>(cls.members.size()) * rate *
                cell.queues[k].generic_response_time(rate));
      }
    }
    if (shard_.finalize_metrics) {
      for (std::size_t k = 0; k < cell.pruned.size(); ++k) {
        const double rt = cell.pruned_queues[k].generic_response_time(0.0);
        const double rho = cell.pruned_queues[k].utilization(0.0);
        for (std::size_t g : cell.pruned[k].members) {
          out.dist.response_times[g] = rt;
          out.dist.utilizations[g] = rho;
        }
      }
    }
  }
  out.dist.response_time = acc.value() / lambda_total;
}

double ShardedOptimizer::prune_bound(const std::vector<double>& class_rates, double phi,
                                     double lambda_total, double t_prime, long* evals) const {
  // Weak-duality certificate: with per-server cost c_i(x) = x T'_i(x) /
  // lambda' (so T' of an assignment is sum_i c_i(x_i)), for ANY phi >= 0
  //
  //   T'_unpruned_opt >= g(phi) = sum_i min_{x>=0} [c_i(x) - phi x] + phi lambda'
  //
  // where the sum runs over ALL servers, pruned included. Hence
  //
  //   loss = T'(returned) - T'_unpruned_opt <= T'(returned) - g(phi).
  //
  // Each min term is 0 when g_i(0) >= phi (the cost is increasing from
  // zero) and otherwise sits at the phi-marginal point — for kept
  // classes exactly the rates the solve settled at phi, for pruned
  // classes one cold inner solve at the converged multiplier. Terms are
  // evaluated at solver-tolerance minimizers, so each carries
  // O(tolerance^2) slack; the additive floor below absorbs it. Taking
  // min(0, term) is always valid (the true min is <= 0). If a pruned
  // class's inner solve fails the certificate is unavailable and the
  // bound degrades to +inf rather than under-reporting.
  num::KahanSum dual;
  detail::SolveBudget inert;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    for (std::size_t k = 0; k < cell.classes.size(); ++k) {
      const double x = class_rates[cell.first_class + k];
      if (x <= 0.0) continue;
      const double cost = x * cell.queues[k].generic_response_time(x) / lambda_total;
      dual.add(static_cast<double>(cell.classes[k].members.size()) *
               std::min(0.0, cost - phi * x));
    }
    const CellObjective pruned_obj(cell.pruned_queues, lambda_total);
    for (std::size_t k = 0; k < cell.pruned.size(); ++k) {
      if (pruned_obj.marginal(k, 0.0) >= phi) continue;  // min at x = 0: term 0
      auto r = detail::find_rate_core(opts_, pruned_obj, k, phi, 0.0, -1.0, evals, inert);
      if (!r) return std::numeric_limits<double>::infinity();
      const double x = r.value();
      if (x <= 0.0) continue;
      const double cost = x * cell.pruned_queues[k].generic_response_time(x) / lambda_total;
      dual.add(static_cast<double>(cell.pruned[k].members.size()) *
               std::min(0.0, cost - phi * x));
    }
  }
  const double certificate = dual.value() + phi * lambda_total;
  const double raw = t_prime - certificate;
  return std::max(0.0, raw) + 1e-9 * (1.0 + std::abs(t_prime));
}

}  // namespace blade::opt
