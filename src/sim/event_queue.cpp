#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace blade::sim {

namespace {

constexpr EventId kSlotMask = EventQueue::kMaxPending - 1;

}  // namespace

EventId EventQueue::push(double t, std::function<void()> fn) {
  if (std::isnan(t)) throw std::invalid_argument("EventQueue::push: NaN time");
  if (pushes_ == kMaxPushes) throw std::length_error("EventQueue::push: push count exhausted");
  std::size_t slot = slots_.size();
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else if (slot == kMaxPending) {
    throw std::length_error("EventQueue::push: too many pending events");
  } else {
    slots_.emplace_back();
  }
  const Entry e{t, (++pushes_ << kSlotBits) | slot};
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = e.id;
  ++live_;

  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
  BLADE_OBS_COUNT("sim.events_scheduled");
  return e.id;
}

void EventQueue::cancel(EventId id) {
  const std::size_t slot = id & kSlotMask;
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) return;
  vacate(slot);
  slots_[slot].fn = nullptr;
  BLADE_OBS_COUNT("sim.events_cancelled");
  if (heap_.front().id == id) pop_top();
}

double EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty queue");
  return heap_.front().time;
}

std::pair<double, std::function<void()>> EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty queue");
  const Entry top = heap_.front();
  const std::size_t slot = top.id & kSlotMask;
  vacate(slot);
  std::pair<double, std::function<void()>> out{top.time, std::move(slots_[slot].fn)};
  pop_top();
  return out;
}

bool EventQueue::live(const Entry& e) const noexcept {
  return slots_[e.id & kSlotMask].id == e.id;
}

void EventQueue::vacate(std::size_t slot) {
  free_.push_back(static_cast<std::uint32_t>(slot));
  slots_[slot].id = 0;
  --live_;
}

void EventQueue::pop_top() noexcept {
  do {
    remove_top();
  } while (!heap_.empty() && !live(heap_.front()));
}

void EventQueue::remove_top() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 4 * hole + 1) {
    const std::size_t end = std::min(child + 4, n);
    std::size_t best = child;
    for (std::size_t c = child + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

}  // namespace blade::sim
