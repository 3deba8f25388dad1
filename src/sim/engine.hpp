// The discrete-event engine: a clock plus the future-event list. Model
// components schedule callbacks; run() advances the clock event by event.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"

namespace blade::sim {

class Engine {
 public:
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  /// Schedules `fn` after `delay` (>= 0) simulated time units.
  EventId schedule(double delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `t` (>= now(), not NaN).
  EventId schedule_at(double t, std::function<void()> fn);

  /// Cancels a scheduled event (no-op if it already ran).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Processes events until the clock passes `t_end` or the queue drains.
  /// Events at exactly t_end are processed.
  void run_until(double t_end);

  /// Processes every remaining event.
  void run();

 private:
  /// Processes events in order while the next one is at or before t_end.
  void drain(double t_end);

  double now_ = 0.0;
  std::uint64_t processed_ = 0;
  EventQueue queue_;
};

}  // namespace blade::sim
