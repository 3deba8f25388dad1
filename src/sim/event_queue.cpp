#include "sim/event_queue.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace blade::sim {

namespace {

constexpr EventId kSlotMask = EventQueue::kMaxPending - 1;

}  // namespace

EventQueue::~EventQueue() { count_pushes(); }

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

  if (spent_) {
    // Replace the popped top; stale entries may surface above `e`.
    spent_ = false;
    sift_down(e);
    while (!live(heap_.front())) remove_top();
    return e.id;
  }
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
  return e.id;
}

void EventQueue::cancel(EventId id) {
  const std::size_t slot = id & kSlotMask;
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) return;
  vacate(slot);
  slots_[slot].fn = nullptr;
  BLADE_OBS_COUNT("sim.events_cancelled");
  // A spent top's slot is vacant, so a live id never matches it.
  if (heap_.front().id == id) pop_top();
}

double EventQueue::next_time() {
  if (live_ == 0) throw std::logic_error("EventQueue::next_time: empty queue");
  settle();
  return heap_.front().time;
}

std::pair<double, std::function<void()>> EventQueue::pop() {
  if (live_ == 0) throw std::logic_error("EventQueue::pop: empty queue");
  settle();
  const Entry top = heap_.front();
  const std::size_t slot = top.id & kSlotMask;
  vacate(slot);
  spent_ = true;
  return {top.time, std::move(slots_[slot].fn)};
}

void EventQueue::count_pushes() noexcept {
  BLADE_OBS_COUNT_N("sim.events_scheduled", pushes_ - counted_);
  counted_ = pushes_;
}

bool EventQueue::live(const Entry& e) const noexcept {
  return slots_[e.id & kSlotMask].id == e.id;
}

void EventQueue::vacate(std::size_t slot) {
  free_.push_back(static_cast<std::uint32_t>(slot));
  slots_[slot].id = 0;
  --live_;
}

void EventQueue::settle() noexcept {
  if (!spent_) return;
  spent_ = false;
  pop_top();
}

void EventQueue::pop_top() noexcept {
  do {
    remove_top();
  } while (!heap_.empty() && !live(heap_.front()));
}

void EventQueue::remove_top() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
}

void EventQueue::sift_down(const Entry e) noexcept {
  Entry* const h = heap_.data();
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 4 * hole + 1) {
    std::size_t best = child;
    if (child + 4 <= n) {
      // The smaller of children 0 and 1, of 2 and 3, then of the two
      // winners, all by index arithmetic: no branch on a comparison.
      const std::size_t a = child + h[child + 1].before(h[child]);
      const std::size_t b = child + 2 + h[child + 3].before(h[child + 2]);
      best = a + (b - a) * h[b].before(h[a]);
    } else {
      for (std::size_t c = child + 1; c < n; ++c) {
        if (h[c].before(h[best])) best = c;
      }
    }
    if (!h[best].before(e)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = e;
}

}  // namespace blade::sim
