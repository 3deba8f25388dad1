#include "core/sharded.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
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
/// exists only because that objective's constructor (correctly) rejects
/// lambda' at or above the saturation point of the cluster it is given,
/// and a cell sub-cluster saturates far below the global lambda' it must
/// price against.
class CellObjective {
 public:
  CellObjective(std::span<const queue::BladeQueue> queues, double lambda_total)
      : queues_(queues), inv_lambda_(1.0 / lambda_total) {}

  [[nodiscard]] double rate_bound(std::size_t i) const { return queues_[i].max_generic_rate(); }
  [[nodiscard]] double marginal(std::size_t i, double rate) const {
    return detail::scaled_marginal(queues_[i], rate, inv_lambda_);
  }
  [[nodiscard]] std::pair<double, double> marginal_with_derivative(std::size_t i,
                                                                   double rate) const {
    return detail::scaled_marginal_with_derivative(queues_[i], rate, inv_lambda_);
  }

 private:
  std::span<const queue::BladeQueue> queues_;
  double inv_lambda_;  ///< 1/lambda'
};

/// Coalescing key: two servers belong to the same class iff every
/// parameter entering their queueing model is bitwise identical. Speed
/// leads, so servers of distinct speeds compare on the first field.
using ClassKey = std::tuple<std::uint64_t, std::uint64_t, unsigned, int>;

ClassKey class_key(const model::BladeServer& s, queue::Discipline d) {
  return {std::bit_cast<std::uint64_t>(s.speed()), std::bit_cast<std::uint64_t>(s.special_rate()),
          s.size(), static_cast<int>(d)};
}

}  // namespace

ShardedOptimizer::ShardedOptimizer(model::Cluster cluster, queue::Discipline d,
                                   OptimizerOptions opts, ShardOptions shard)
    : cluster_(std::move(cluster)),
      discs_(cluster_.size(), d),
      opts_(std::move(opts)),
      shard_(shard) {
  opts_.validate();
  build_cells();
}

ShardedOptimizer::ShardedOptimizer(model::Cluster cluster, std::vector<queue::Discipline> ds,
                                   OptimizerOptions opts, ShardOptions shard)
    : cluster_(std::move(cluster)), discs_(std::move(ds)), opts_(std::move(opts)), shard_(shard) {
  if (discs_.size() != cluster_.size()) {
    throw std::invalid_argument("ShardedOptimizer: discipline vector size mismatch");
  }
  opts_.validate();
  build_cells();
}

void ShardedOptimizer::build_cells() {
  const std::size_t n = cluster_.size();
  const std::size_t cell_count = std::clamp<std::size_t>(shard_.cells, 1, n);
  cells_.assign(cell_count, Cell{});

  // Group each cell's servers into classes. Sorting (key, index) makes
  // each class a run of ascending members; a run is emitted when the walk
  // over the cell reaches its first member, so the classes keep their
  // first-occurrence order.
  constexpr std::size_t kNotFirst = std::numeric_limits<std::size_t>::max();
  std::vector<std::pair<ClassKey, std::size_t>> keyed;  // (key, global index)
  // Per server of the cell: the start of its run in keyed if it leads the run.
  std::vector<std::size_t> run_at;
  keyed.reserve(n / cell_count + 1);
  kept_.members.reserve(n);
  kept_.offset.reserve(n + 1);
  for (std::size_t c = 0; c < cell_count; ++c) {
    Cell& cell = cells_[c];
    cell.begin = c * n / cell_count;
    cell.end = (c + 1) * n / cell_count;
    cell.first_class = kept_.size();
    keyed.clear();
    for (std::size_t g = cell.begin; g < cell.end; ++g) {
      keyed.emplace_back(class_key(cluster_.server(g), discs_[g]), g);
    }
    std::sort(keyed.begin(), keyed.end());
    run_at.assign(keyed.size(), kNotFirst);
    for (std::size_t r = 0; r < keyed.size(); ++r) {
      if (r == 0 || keyed[r].first != keyed[r - 1].first) run_at[keyed[r].second - cell.begin] = r;
    }
    for (const std::size_t start : run_at) {
      if (start == kNotFirst) continue;
      for (std::size_t r = start; r < keyed.size() && keyed[r].first == keyed[start].first; ++r) {
        kept_.members.push_back(keyed[r].second);
      }
      kept_.offset.push_back(kept_.members.size());
    }
    cell.classes = kept_.size() - cell.first_class;
  }

  const double rbar = cluster_.rbar();
  auto queue_of = [&](std::size_t g) {
    return cluster_.server(g).queue(rbar, discs_[g], opts_.service_scv);
  };
  if (shard_.prune.top_k > 0) {
    // Attraction of a class = its empty-system response time T'(0):
    // lambda'-independent, so the kept sets for increasing k are nested
    // and the pruned solution's T' is monotone in k. Ties break by global
    // index, keeping the selection total and deterministic. Each class
    // splits into its kept and its pruned members.
    const Classes all = std::move(kept_);
    kept_ = Classes{};
    std::vector<std::pair<double, std::size_t>> order;  // (T'(0), global index)
    std::vector<bool> keep;
    for (Cell& cell : cells_) {
      const std::size_t first = cell.first_class;
      const std::size_t size = cell.end - cell.begin;
      keep.assign(size, true);
      if (shard_.prune.top_k < size) {
        order.clear();
        for (std::size_t k = first; k < first + cell.classes; ++k) {
          const double attract = queue_of(all.of(k).front()).generic_response_time(0.0);
          for (const std::size_t g : all.of(k)) order.emplace_back(attract, g);
        }
        std::sort(order.begin(), order.end());
        keep.assign(size, false);
        for (std::size_t r = 0; r < shard_.prune.top_k; ++r) {
          keep[order[r].second - cell.begin] = true;
        }
      }
      cell.first_class = kept_.size();
      cell.first_pruned = pruned_.size();
      for (std::size_t k = first; k < first + cell.classes; ++k) {
        for (Classes* to : {&kept_, &pruned_}) {
          const std::size_t before = to->members.size();
          for (const std::size_t g : all.of(k)) {
            if (keep[g - cell.begin] == (to == &kept_)) to->members.push_back(g);
          }
          if (to->members.size() > before) to->offset.push_back(to->members.size());
        }
      }
      cell.classes = kept_.size() - cell.first_class;
      cell.pruned = pruned_.size() - cell.first_pruned;
    }
  }

  for (Classes* classes : {&kept_, &pruned_}) {
    classes->queues.reserve(classes->size());
    for (std::size_t k = 0; k < classes->size(); ++k) {
      classes->queues.push_back(queue_of(classes->of(k).front()));
    }
  }
  num::KahanSum capacity;
  for (std::size_t k = 0; k < kept_.size(); ++k) {
    capacity.add(kept_.count(k) * kept_.queues[k].max_generic_rate());
  }
  kept_capacity_ = capacity.value();

  cell_cost_.resize(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    cell_cost_[c] = static_cast<double>(cells_[c].classes);
  }
  cell_chunk_ = std::max<std::size_t>(1, cell_count / 16);
}

void ShardedOptimizer::prepare_workspace(SolverWorkspace& ws) const {
  ws.cells_.resize(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    auto& st = ws.cells_[c];
    const std::size_t k = cells_[c].classes;
    st.rates_lo.assign(k, 0.0);
    st.rates_hi.assign(k, 0.0);
    st.scratch.assign(k, 0.0);
    st.total = 0.0;
    st.evals = 0;
    st.err = Error{ErrorCode::Ok, {}};
  }
}

ShardedLoadDistribution ShardedOptimizer::optimize(double lambda_total) const {
  SolverWorkspace ws;
  return optimize(lambda_total, ws);
}

ShardedLoadDistribution ShardedOptimizer::optimize(double lambda_total,
                                                   SolverWorkspace& ws) const {
  auto res = optimize_core(lambda_total, nullptr, ws);
  if (!res) throw_solver_error(res.error());
  return std::move(res).value();
}

ShardedLoadDistribution ShardedOptimizer::optimize(double lambda_total, par::ThreadPool& pool,
                                                   SolverWorkspace& ws) const {
  auto res = optimize_core(lambda_total, &pool, ws);
  if (!res) throw_solver_error(res.error());
  return std::move(res).value();
}

Expected<ShardedLoadDistribution> ShardedOptimizer::try_optimize(double lambda_total) const {
  SolverWorkspace ws;
  return try_optimize(lambda_total, ws);
}

Expected<ShardedLoadDistribution> ShardedOptimizer::try_optimize(double lambda_total,
                                                                 SolverWorkspace& ws,
                                                                 const FirstRound* round) const {
  try {
    return optimize_core(lambda_total, nullptr, ws, round);
  } catch (const std::exception& e) {
    return detail::make_solver_error(ErrorCode::Internal,
                                     std::string("optimize: unexpected exception: ") + e.what());
  }
}

Expected<ShardedLoadDistribution> ShardedOptimizer::try_optimize(double lambda_total,
                                                                 par::ThreadPool& pool,
                                                                 SolverWorkspace& ws) const {
  try {
    return optimize_core(lambda_total, &pool, ws);
  } catch (const std::exception& e) {
    // The numeric core returns its own failures as typed errors; anything
    // thrown past it is converted here so the no-throw contract holds.
    return detail::make_solver_error(ErrorCode::Internal,
                                     std::string("optimize: unexpected exception: ") + e.what());
  }
}

Expected<ShardedLoadDistribution> ShardedOptimizer::optimize_core(double lambda_total,
                                                                  par::ThreadPool* pool,
                                                                  SolverWorkspace& ws,
                                                                  const FirstRound* round) const {
  const double lambda_max = cluster_.max_generic_rate();
  const bool one_cell = cells_.size() == 1;
  BLADE_OBS_EVENT(SolveStart, one_cell ? 0 : cells_.size(), lambda_total, lambda_max, 0.0);
  auto reject = [](ErrorCode code, std::string context) {
    BLADE_OBS_EVENT(SolveEnd, code, 0.0, 0.0, 0.0);
    return detail::make_solver_error(code, std::move(context));
  };
  if (!(lambda_total > 0.0)) {
    return reject(ErrorCode::InvalidArgument, "optimize: lambda' must be > 0");
  }
  if (lambda_total >= lambda_max) {
    std::ostringstream os;
    os << std::setprecision(10) << "optimize: lambda'=" << lambda_total
       << " >= lambda'_max=" << lambda_max << " (infeasible)";
    return reject(ErrorCode::Infeasible, os.str());
  }
  if (pruned_.size() > 0 && lambda_total >= kept_capacity_) {
    std::ostringstream os;
    os << std::setprecision(10) << "optimize: lambda'=" << lambda_total
       << " >= pruned capacity " << kept_capacity_
       << " (infeasible under prune.top_k=" << shard_.prune.top_k << ")";
    return reject(ErrorCode::Infeasible, os.str());
  }

  if (one_cell) {
    BLADE_OBS_SPAN("optimize");
    BLADE_OBS_TIMER("optimizer.solve_seconds");
    BLADE_OBS_COUNT("optimizer.solves");
    return solve(lambda_total, lambda_max, nullptr, ws, round);
  }
  BLADE_OBS_SPAN("shard_optimize");
  BLADE_OBS_TIMER("solver.shard.solve_seconds");
  BLADE_OBS_COUNT("solver.shard.solves");
  BLADE_OBS_COUNT_N("solver.shard.cells", static_cast<long>(cells_.size()));
  return solve(lambda_total, lambda_max, pool != nullptr ? pool : &par::global_pool(), ws, round);
}

Expected<ShardedLoadDistribution> ShardedOptimizer::solve(double lambda_total, double lambda_max,
                                                          par::ThreadPool* pool,
                                                          SolverWorkspace& ws,
                                                          const FirstRound* round) const {
  const std::size_t cell_count = cells_.size();
  const bool one_cell = cell_count == 1;
  prepare_workspace(ws);
  detail::PhiBracket br;
  const double tol = opts_.rate_tolerance;

  // One cell runs on this thread and charges the user budget at every
  // evaluation; its exceptions propagate as the paper's loop would throw
  // them. Several cells run on pool threads, which must never throw: each
  // call gets an inert budget, so the shared inner solve never reads
  // contended state, and parks any exception in its cell's state like an
  // inner failure; the user budget is checked between probes (see the
  // class comment).
  detail::SolveBudget budget = detail::SolveBudget::from(opts_);
  auto objective = [&](const Cell& cell) {
    return CellObjective(std::span(kept_.queues).subspan(cell.first_class, cell.classes),
                         lambda_total);
  };
  auto contained = [&](std::size_t c, auto&& work) noexcept {
    auto& st = ws.cells_[c];
    detail::SolveBudget inert;
    try {
      work(cells_[c], st, objective(cells_[c]), inert);
    } catch (const std::exception& e) {
      st.err = Error{ErrorCode::Internal,
                     std::string("optimize: unexpected exception in cell: ") + e.what()};
    } catch (...) {
      st.err = Error{ErrorCode::Internal, "optimize: unknown exception in cell"};
    }
  };
  auto for_each_cell = [&](auto&& work) {
    if (one_cell) {
      work(cells_[0], ws.cells_[0], objective(cells_[0]), budget);
      return;
    }
    par::for_each_weighted_chunk(*pool, cell_count, cell_chunk_, cell_cost_,
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
  // index, deterministically), else, with several cells, a tripped user
  // budget.
  auto check_cells = [&]() -> std::optional<Error> {
    for (const auto& st : ws.cells_) {
      if (st.err.code != ErrorCode::Ok) return st.err;
    }
    if (one_cell) return std::nullopt;
    if (budget.max_evals > 0 && evals_so_far() - spent > budget.max_evals) {
      std::ostringstream os;
      os << "optimize: marginal-evaluation budget exceeded (max_marginal_evaluations="
         << budget.max_evals << ")";
      return detail::make_solver_error(ErrorCode::BudgetExceeded, os.str());
    }
    if (budget.timed && std::chrono::steady_clock::now() > budget.deadline) {
      std::ostringstream os;
      os << "optimize: wall-time budget exceeded (max_solve_seconds=" << budget.max_seconds
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
    for_each_cell([&](const Cell& cell, auto& st, const CellObjective& obj,
                      detail::SolveBudget& b) {
      num::KahanSum f;
      for (std::size_t k = 0; k < cell.classes; ++k) {
        const double lo = use_lo ? st.rates_lo[k] - tol : 0.0;
        const double hi = use_hi ? st.rates_hi[k] + tol : -1.0;
        auto r = detail::find_rate_core(opts_, obj, k, phi, lo, hi, &st.evals, b);
        if (!r) {
          st.err = r.error();
          return;
        }
        st.scratch[k] = r.value();
        f.add(kept_.count(cell.first_class + k) * r.value());
      }
      st.total = f.value();
    });
    if ((err = check_cells())) return std::numeric_limits<double>::quiet_NaN();
    num::KahanSum f;
    for (const auto& st : ws.cells_) f.add(st.total);
    return f.value();
  };
  // Only monotone improvements are kept (phi_lo only moves up, phi_hi
  // only moves down), so out-of-order evaluations cannot loosen an end.
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

  // Warm when the workspace holds a previous solve: joint Newton with one
  // entry per kept class, weighted by its members, from the previous
  // split read at each class's representative (a split of another length
  // is not read), or from the caller's first round when it was taken at
  // this lambda' over these classes.
  double warm_phi = 0.0;
  detail::NewtonState& ns = ws.newton_;
  const FirstRound* given = round;
  if (given != nullptr && (std::bit_cast<std::uint64_t>(given->lambda) !=
                               std::bit_cast<std::uint64_t>(lambda_total) ||
                           given->state.x.size() != kept_.size())) {
    given = nullptr;
  }
  auto warm_solve = [&]() -> Expected<int> {
    const std::size_t classes = kept_.size();
    ns.x.resize(classes);
    ns.weight.resize(classes);
    ns.hub.resize(classes);
    const bool carried = ws.rates_.size() == cluster_.size();
    for (std::size_t e = 0; e < classes; ++e) {
      ns.x[e] = given != nullptr ? given->state.x[e]
                : carried        ? ws.rates_[kept_.of(e).front()]
                                 : std::numeric_limits<double>::quiet_NaN();
      ns.weight[e] = kept_.count(e);
      ns.hub[e] = (1.0 - opts_.saturation_margin) * kept_.queues[e].max_generic_rate();
    }
    // The given round stands in for the first evaluation, charged as if
    // it had been evaluated.
    auto eval_at = [&](const std::vector<double>& x, std::vector<double>& g,
                       std::vector<double>& dg) -> std::optional<Error> {
      const FirstRound* taken = std::exchange(given, nullptr);
      for_each_cell([&](const Cell& cell, auto& st, const CellObjective& obj,
                        detail::SolveBudget& b) {
        for (std::size_t k = 0; k < cell.classes; ++k) {
          if (auto tripped = b.charge()) {
            st.err = std::move(*tripped);
            return;
          }
          ++st.evals;
          const std::size_t e = cell.first_class + k;
          if (taken != nullptr) {
            g[e] = taken->state.g[e];
            dg[e] = taken->state.dg[e];
          } else {
            std::tie(g[e], dg[e]) = obj.marginal_with_derivative(k, x[e]);
          }
        }
      });
      return check_cells();
    };
    auto exact_at = [&](std::size_t e, double phi, double lo, double hi) {
      const auto it = std::upper_bound(cells_.begin(), cells_.end(), e,
                                       [](std::size_t v, const Cell& c) { return v < c.first_class; });
      const std::size_t c = static_cast<std::size_t>(it - cells_.begin()) - 1;
      detail::SolveBudget inert;
      return detail::find_rate_core(opts_, objective(cells_[c]), e - cells_[c].first_class, phi,
                                    lo, hi, &ws.cells_[c].evals, one_cell ? budget : inert);
    };
    return detail::joint_newton(opts_, lambda_total, ns, warm_phi, eval_at, exact_at);
  };
  auto restart = [&] {
    spent = evals_so_far();
    prepare_workspace(ws);
    budget = detail::SolveBudget::from(opts_);
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
  // stay at zero) and finish: the warm solve's rates rescaled onto the
  // constraint, or the cold bracket ends extracted (see extract_rates
  // for why midpoint-only extraction is unsafe on step-like F). ns.x
  // keeps the kept classes' rates at the returned multiplier, for the
  // pruning certificate.
  const std::size_t n = cluster_.size();
  ShardedLoadDistribution out;
  std::vector<double> rates_lo(warm ? 0 : n, 0.0);
  out.dist.rates.assign(n, 0.0);
  ns.x.resize(kept_.size());
  for (std::size_t c = 0; c < cell_count; ++c) {
    const auto& st = ws.cells_[c];
    for (std::size_t k = 0; k < cells_[c].classes; ++k) {
      const std::size_t e = cells_[c].first_class + k;
      if (!warm) ns.x[e] = st.rates_hi[k];
      for (std::size_t g : kept_.of(e)) {
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
  out.server_classes = server_classes();
  out.coalesced_servers = coalesced_servers();
  out.pruned_servers = pruned_servers();

  finalize(out, lambda_total);
  if (pruned_.size() > 0) {
    out.prune_loss_bound = prune_bound(ns.x, out.dist.phi, lambda_total, out.dist.response_time,
                                       &out.dist.inner_evaluations);
  }

  if (one_cell) {
    BLADE_OBS_COUNT_N("optimizer.outer_iterations", search.value());
    BLADE_OBS_COUNT_N("optimizer.inner_evaluations", inner_evals);
  } else {
    BLADE_OBS_COUNT_N("solver.shard.outer_iterations", search.value());
    BLADE_OBS_COUNT_N("solver.shard.inner_evaluations", inner_evals);
    if (out.coalesced_servers > 0) {
      BLADE_OBS_COUNT_N("solver.shard.coalesced_servers", static_cast<long>(out.coalesced_servers));
    }
    if (out.pruned_servers > 0) {
      BLADE_OBS_COUNT_N("solver.shard.pruned_servers", static_cast<long>(out.pruned_servers));
      BLADE_OBS_GAUGE_SET("solver.shard.prune_loss_bound", out.prune_loss_bound);
    }
  }
  BLADE_OBS_EVENT(SolveEnd, ErrorCode::Ok, out.dist.phi, search.value(), inner_evals);

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

Expected<double> ShardedOptimizer::first_round(double lambda_total, std::span<const double> rates,
                                               FirstRound& round) const {
  round.lambda = -1.0;
  auto refuse = [](const char* why) {
    return Error{ErrorCode::InvalidArgument, std::string("first_round: ") + why};
  };
  if (!(lambda_total > 0.0) || rates.size() != cluster_.size()) {
    return refuse("needs lambda' > 0 and one rate per server");
  }
  for (const std::size_t g : pruned_.members) {
    if (rates[g] != 0.0) return refuse("a pruned server holds load");
  }
  // The start as the warm solve reads it, checked before any evaluation.
  detail::NewtonState& s = round.state;
  const std::size_t classes = kept_.size();
  s.x.resize(classes);
  s.weight.resize(classes);
  for (std::size_t e = 0; e < classes; ++e) {
    s.x[e] = rates[kept_.of(e).front()];
    s.weight[e] = kept_.count(e);
    if (!(s.x[e] >= 0.0 &&
          s.x[e] < (1.0 - opts_.saturation_margin) * kept_.queues[e].max_generic_rate())) {
      return refuse("a rate is outside [0, its saturation guard)");
    }
    for (const std::size_t g : kept_.of(e)) {
      if (std::bit_cast<std::uint64_t>(rates[g]) != std::bit_cast<std::uint64_t>(s.x[e])) {
        return refuse("a class's members hold different rates");
      }
    }
  }
  s.g.resize(classes);
  s.dg.resize(classes);
  const CellObjective obj(kept_.queues, lambda_total);
  for (std::size_t e = 0; e < classes; ++e) {
    std::tie(s.g[e], s.dg[e]) = obj.marginal_with_derivative(e, s.x[e]);
  }
  const auto fill = detail::water_fill(lambda_total, s);
  if (!fill) return fill.error();
  round.lambda = lambda_total;
  return detail::model_decrease(s, lambda_total, fill.value());
}

void ShardedOptimizer::finalize(ShardedLoadDistribution& out, double lambda_total) const {
  // One queue evaluation per class, broadcast to the members (extraction
  // preserves within-class equality, so the representative's rate is
  // every member's rate; a pruned class's is zero). T' = sum_i rate_i
  // T'_i / lambda' skips unloaded classes, as ResponseTimeObjective::value
  // does, in server order when every class is a single server.
  const bool metrics = shard_.finalize_metrics;
  if (metrics) {
    out.dist.utilizations.assign(cluster_.size(), 0.0);
    out.dist.response_times.assign(cluster_.size(), 0.0);
  }
  num::KahanSum acc;
  for (const Classes* classes : {&kept_, &pruned_}) {
    for (std::size_t k = 0; k < classes->size(); ++k) {
      const auto members = classes->of(k);
      const double rate = out.dist.rates[members.front()];
      if (!metrics && rate == 0.0) continue;
      const double rt = classes->queues[k].generic_response_time(rate);
      if (rate != 0.0) acc.add(classes->count(k) * rate * rt);
      if (!metrics) continue;
      const double rho = classes->queues[k].utilization(rate);
      for (std::size_t g : members) {
        out.dist.response_times[g] = rt;
        out.dist.utilizations[g] = rho;
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
  const CellObjective pruned_obj(pruned_.queues, lambda_total);
  for (const Cell& cell : cells_) {
    for (std::size_t e = cell.first_class; e < cell.first_class + cell.classes; ++e) {
      const double x = class_rates[e];
      if (x <= 0.0) continue;
      const double cost = x * kept_.queues[e].generic_response_time(x) / lambda_total;
      dual.add(kept_.count(e) * std::min(0.0, cost - phi * x));
    }
    for (std::size_t k = cell.first_pruned; k < cell.first_pruned + cell.pruned; ++k) {
      if (pruned_obj.marginal(k, 0.0) >= phi) continue;  // min at x = 0: term 0
      auto r = detail::find_rate_core(opts_, pruned_obj, k, phi, 0.0, -1.0, evals, inert);
      if (!r) return std::numeric_limits<double>::infinity();
      const double x = r.value();
      if (x <= 0.0) continue;
      const double cost = x * pruned_.queues[k].generic_response_time(x) / lambda_total;
      dual.add(pruned_.count(k) * std::min(0.0, cost - phi * x));
    }
  }
  const double certificate = dual.value() + phi * lambda_total;
  const double raw = t_prime - certificate;
  return std::max(0.0, raw) + 1e-9 * (1.0 + std::abs(t_prime));
}

}  // namespace blade::opt
