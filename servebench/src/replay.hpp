// One replay of a workload, untraced (through runtime::replay /
// runtime::replay_policy) or traced (through the benchmark's own
// composition of the same public pieces, with spans around every call
// into a layer). Both return an Outcome whose `stats` are the simulated
// statistics: a pure function of the workload, so they must agree bit
// for bit between repeated replays and between the untraced and traced
// replays.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "policy/policy.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace servebench {

/// A workload plus what set-up derives from it: the analytic optimum at
/// the workload's rate and, for static-split, the policy routing by it.
struct Prepared {
  Workload workload;
  double analytic_t_prime = 0.0;
  blade::policy::PolicyConfig policy{};  ///< static-split only
};

/// Set-up: the analytic reference solve (sharded on the global pool for
/// serve-fleet, which also starts the pool) and the static split.
[[nodiscard]] Prepared prepare(Workload workload);

/// Named simulated statistics, compared bitwise.
class Stats {
 public:
  void add(std::string name, double value) { fields_.emplace_back(std::move(name), value); }
  /// Name of the first field that differs (or a size mismatch); empty
  /// when the two agree bit for bit.
  [[nodiscard]] std::string first_difference(const Stats& other) const;
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& fields() const noexcept {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, double>> fields_;
};

struct Outcome {
  Stats stats;
  double wall_s = 0.0;           ///< host seconds for the whole replay call
  std::uint64_t events = 0;      ///< simulated events processed
  std::uint64_t routed = 0;      ///< generic tasks routed to a server
  /// Offered generic arrivals the controller heard (static-split: routed).
  std::uint64_t generic_arrivals = 0;
  std::uint64_t resolves = 0;
  std::uint64_t skipped = 0;     ///< drift checks skipped by hysteresis
  double resolve_seconds = 0.0;  ///< ControllerStats::resolve_seconds_total
  std::uint64_t fallback_publications = 0;
  std::uint64_t health_transitions = 0;
  std::uint64_t routes_to_quarantined = 0;
  std::uint64_t uninjected_solver_failures = 0;
  double t_prime = 0.0;          ///< simulated mean generic response time
  double shed_fraction = 0.0;

  /// Operations the end-to-end result counts: generic arrivals plus
  /// re-solves (static-split: routed tasks).
  [[nodiscard]] std::uint64_t attempted() const noexcept { return generic_arrivals + resolves; }
  /// Routes to a quarantined blade while a healthy one was up, plus
  /// re-solves that failed without an injected fault.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return routes_to_quarantined + uninjected_solver_failures;
  }
};

/// runtime::replay (serve-*) or runtime::replay_policy (static-split).
[[nodiscard]] Outcome replay_untraced(const Prepared& p);

/// The same replay composed from sim::Engine, ServerSim, PoissonSource,
/// Controller, FaultInjector and schedule_failures, with every call into
/// a layer recorded in `trace`. Spans are sampled 1 in `period` calls,
/// except the controller calls that can re-solve, which are always timed.
[[nodiscard]] Outcome replay_traced(const Prepared& p, Trace& trace, std::uint64_t period);

}  // namespace servebench
