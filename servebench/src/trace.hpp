// In-memory span accounting for the traced replay. Each span kind keeps
// its call count and the summed duration of the calls that were timed;
// the total it stands for is the timed mean times the call count. Re-solve
// latencies are kept one sample per call for their percentiles.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace servebench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Median cost of an empty span (two back-to-back clock reads), measured
/// once per process and subtracted from every timed call.
[[nodiscard]] double clock_cost_ns();

struct SpanStat {
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  double timed_ns = 0.0;

  void add(double ns) {
    ++timed;
    timed_ns += ns;
  }
  [[nodiscard]] double mean_ns() const noexcept {
    return timed > 0 ? timed_ns / static_cast<double>(timed) : 0.0;
  }
  /// Estimated time of every call, sampled or not.
  [[nodiscard]] double total_ns() const noexcept {
    return mean_ns() * static_cast<double>(calls);
  }
};

/// Times one call in every `period` (a power of two) of its span. Spans
/// whose counters move in step (a callback and the leaves it calls) take
/// distinct phases, so that no two are timed on the same call: one
/// span's clock reads would otherwise inflate the other's figure.
class Span {
 public:
  Span(SpanStat& stat, std::uint64_t period, std::uint64_t phase = 0) noexcept
      : stat_(stat),
        on_(((stat.calls++ + phase) & (period - 1)) == 0),
        t0_(on_ ? now_ns() : 0) {}
  ~Span() {
    if (on_) stat_.add(static_cast<double>(now_ns() - t0_) - clock_cost_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStat& stat_;
  bool on_;
  std::uint64_t t0_;
};

struct Trace {
  // Callbacks the engine invokes (their sum is subtracted from
  // run_until to give the engine's self time).
  SpanStat generic_fire;  ///< generic arrival handler
  SpanStat special_sink;  ///< special arrival handler
  SpanStat completion;    ///< ServerSim completion observer
  SpanStat failure;       ///< failure/recovery observer
  SpanStat rate_change;   ///< trace rate events

  // Leaf calls into a layer.
  SpanStat schedule;      ///< sim: next generic arrival (draw + Engine::schedule)
  SpanStat draw;          ///< sim: task size and routing draws (RngStream)
  SpanStat arrive;        ///< sim: ServerSim::arrive
  SpanStat route;         ///< policy: DispatchPolicy::route
  SpanStat alias_sample;  ///< util: AliasTable::sample
  SpanStat weights;       ///< runtime: Controller::weights
  SpanStat special;       ///< runtime: Controller::on_special_arrival
  SpanStat arrival;       ///< runtime: on_generic_arrival calls that did not re-solve
  SpanStat health;        ///< runtime: on_dispatch/on_completion calls that did not re-solve
  SpanStat chaos;         ///< runtime: FaultInjector observation/solver draws

  // Calls that re-solved, one latency sample (ns) each.
  std::vector<double> drift_resolve_ns;   ///< on_generic_arrival
  std::vector<double> failover_ns;        ///< on_failure / on_recovery
  std::vector<double> health_resolve_ns;  ///< on_dispatch / on_completion
  std::uint64_t initial_resolves = 0;     ///< at Controller construction

  double setup_ns = 0.0;      ///< replay composition before run_until
  double run_until_ns = 0.0;  ///< Engine::run_until
  double wall_ns = 0.0;       ///< the whole replay
  std::uint64_t events = 0;
  std::uint64_t replays = 0;

  /// Re-solves classified per call; equals ControllerStats::resolves.
  [[nodiscard]] std::uint64_t classified_resolves() const noexcept {
    return drift_resolve_ns.size() + failover_ns.size() + health_resolve_ns.size() +
           initial_resolves;
  }
  [[nodiscard]] double callbacks_ns() const noexcept {
    return generic_fire.total_ns() + special_sink.total_ns() + completion.total_ns() +
           failure.total_ns() + rate_change.total_ns();
  }
  [[nodiscard]] double engine_self_ns() const noexcept { return run_until_ns - callbacks_ns(); }
};

}  // namespace servebench
