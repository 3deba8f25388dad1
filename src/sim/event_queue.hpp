// Future-event list: a 4-ary min-heap of 16-byte (time, id) entries
// whose callbacks live in a slot arena with a free list. Ties break by
// insertion order, so runs are fully deterministic.
//
// An EventId packs the event's insertion sequence above its arena slot
// index, so ids order by insertion. The sequence stamps the slot's
// current occupant, so an id whose slot has since been vacated or
// reused no longer matches it. Cancellation is lazy: cancel() vacates
// the slot at once and the stale heap entry is dropped when it reaches
// the top.
//
// Removal is deferred. pop() vacates the top's slot and hands out its
// callback but leaves the entry at the root, marked spent. Most
// handlers push at once, and the next push() writes over the spent
// root and sifts down from there: one heap pass where a removal and an
// insertion took two. A pop(), or a next_time() with no push in
// between, first completes the removal. The top is therefore live at
// all times except between a pop() and the next queue call; size() and
// empty() count live events only, so they read the same either way.
// Which entry pops next is the exact (time, id) minimum of the live
// ones, and ids and slot reuse do not depend on the heap's layout, so
// the pop sequence, the ids and the arena are those of an eager heap.
//
// The sift-down picks the smallest of four children without branching
// on the comparisons: the two pairs first, then their winners.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace blade::sim {

/// Issued ids are never 0, so callers may use 0 as "no event".
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Bits of an EventId that hold the arena slot index; the insertion
  /// sequence (starting at 1) fills the rest.
  static constexpr unsigned kSlotBits = 24;
  /// Most events pending at once.
  static constexpr std::size_t kMaxPending = std::size_t{1} << kSlotBits;
  /// Most pushes over the queue's lifetime.
  static constexpr std::uint64_t kMaxPushes = (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Counts the pushes not yet counted.
  ~EventQueue();

  /// Schedules `fn` at absolute time `t`; returns a cancellable id.
  /// Throws std::invalid_argument for a NaN time (+/-inf are legal) and
  /// std::length_error past kMaxPending pending events or kMaxPushes
  /// pushes.
  EventId push(double t, std::function<void()> fn);

  /// Cancels a pending event. A no-op for ids already popped or
  /// cancelled, and for ids this queue never issued.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  /// Pending (pushed, not yet popped or cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest pending event; requires !empty(). Completes
  /// a pending removal.
  [[nodiscard]] double next_time();

  /// Pops and returns the earliest pending event's (time, callback);
  /// requires !empty().
  [[nodiscard]] std::pair<double, std::function<void()>> pop();

  /// Adds the pushes made since the last call to the
  /// sim.events_scheduled counter (obs builds): one registry bump per
  /// call instead of one per push. The destructor counts the rest.
  void count_pushes() noexcept;

 private:
  struct Entry {
    double time;
    EventId id;  ///< insertion sequence << kSlotBits | slot
    /// Earlier time first; equal times in push order. Bitwise & and |,
    /// so the compiler need not branch on either comparison.
    [[nodiscard]] bool before(const Entry& o) const noexcept {
      return (time < o.time) | ((time == o.time) & (id < o.id));
    }
  };
  struct Slot {
    std::function<void()> fn;
    EventId id = 0;  ///< the occupant's id; 0 while vacant
  };

  [[nodiscard]] bool live(const Entry& e) const noexcept;
  void vacate(std::size_t slot);
  /// Completes a pending removal, if any.
  void settle() noexcept;
  /// Removes the top entry, then drops stale entries until the top is
  /// live or the heap is empty.
  void pop_top() noexcept;
  void remove_top() noexcept;
  /// Writes `e` over the root and moves it down to its place.
  void sift_down(Entry e) noexcept;

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< vacant slots, reused last-in first-out
  std::uint64_t pushes_ = 0;
  std::uint64_t counted_ = 0;  ///< pushes already added to the counter
  std::size_t live_ = 0;
  bool spent_ = false;  ///< heap_.front() is the popped top, not yet removed
};

}  // namespace blade::sim
