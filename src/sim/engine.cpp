#include "sim/engine.hpp"

#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace blade::sim {

EventId Engine::schedule(double delay, std::function<void()> fn) {
  if (!(delay >= 0.0)) throw std::invalid_argument("Engine::schedule: negative delay");
  return queue_.push(now_ + delay, std::move(fn));
}

EventId Engine::schedule_at(double t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("Engine::schedule_at: time in the past");
  return queue_.push(t, std::move(fn));
}

void Engine::run_until(double t_end) {
  drain(t_end);
  if (now_ < t_end) now_ = t_end;
}

void Engine::run() { drain(std::numeric_limits<double>::infinity()); }

void Engine::drain(double t_end) {
#if BLADE_OBS_ENABLED
  BLADE_OBS_TIMER("sim.run_seconds");
  const std::uint64_t first = processed_;
#endif
  while (!queue_.empty() && queue_.next_time() <= t_end) {
    // The callback is moved out before it runs: it may push and cancel.
    auto [t, fn] = queue_.pop();
    now_ = t;
    ++processed_;
#if BLADE_OBS_ENABLED
    // Sample the pending-event count every 256 events: cheap enough to
    // leave on, frequent enough to expose heap-growth pathologies.
    if ((processed_ & 0xFFu) == 0) {
      BLADE_OBS_OBSERVE("sim.event_heap_size", static_cast<double>(queue_.size()));
    }
#endif
    fn();
  }
#if BLADE_OBS_ENABLED
  BLADE_OBS_COUNT_N("sim.events", processed_ - first);
  queue_.count_pushes();
#endif
}

}  // namespace blade::sim
