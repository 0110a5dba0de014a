// EventClock — the simulation's notion of time (engine layering, layer 3).
//
// Owns the current step, the execution calendar of scheduled live
// transactions keyed by exec time (the structure behind the engine's
// event-driven bookkeeping), and the *merging* of future-event
// candidates: the run driver asks one place "when can anything next
// happen?", combining the calendar, arrivals, scheduler hints, and any
// registered EventSource (e.g. the distributed protocol's MessageBus) — so
// no layer special-cases time skips.
//
// The calendar is a util/timing_wheel.hpp ring wheel (streaming runs
// schedule and fire millions of entries, so O(log n) heap percolation and
// its pointer chasing were the dominant per-entry cost). The wheel shape
// was proven here in PR 9 and is now shared with the distributed protocol's
// MessageBus; see the wheel header for the exactness invariants. pop_due
// sorts each step's due ids ascending, reproducing the old heap's
// deterministic (time, id) order byte-for-byte — all golden
// commit-sequence pins hold across the extraction.
// calendar_size()/calendar_peak() expose occupancy for the bounded-memory
// evidence streaming benches record.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/event_source.hpp"
#include "core/types.hpp"
#include "util/check.hpp"
#include "util/timing_wheel.hpp"

namespace dtm {

class EventClock {
 public:
  /// (time, id) min-heap with deterministic (time, id) tie-breaks — shared
  /// shape for the per-object scheduled-user heaps in the store and the
  /// transport's settle queue.
  template <typename Id>
  using MinHeap =
      std::priority_queue<std::pair<Time, Id>,
                          std::vector<std::pair<Time, Id>>, std::greater<>>;

  static constexpr std::size_t kRingBits = 10;
  static constexpr std::size_t kRingSlots = TimingWheel<TxnId, kRingBits>::kSlots;

  [[nodiscard]] Time now() const { return now_; }

  /// Advances by one step (the end of finish_step).
  void tick() {
    now_ += 1;
    wheel_.advance_to(now_);
  }

  /// Fast-forwards to `t`; callers must not skip past due executions (the
  /// engine guards with its own next_exec_due cross-check, and the wheel
  /// refuses to skip a resident entry).
  void advance_to(Time t) {
    DTM_REQUIRE(t >= now_, "advance_to(" << t << ") before now " << now_);
    now_ = t;
    wheel_.advance_to(t);
  }

  // ---- Execution calendar ----

  /// Registers an irrevocable assignment: `txn` fires at `exec`. Entries
  /// never go stale before they fire (assignments are immutable).
  void schedule(Time exec, TxnId txn) {
    DTM_REQUIRE(exec >= now_,
                "schedule(" << exec << ") in the past (now " << now_ << ")");
    wheel_.schedule(exec, txn);
  }

  /// Earliest scheduled execution, kNoTime if none. O(kRingSlots / 64).
  [[nodiscard]] Time next_scheduled() const { return wheel_.next_time(); }

  /// Pops every calendar entry due exactly now into `out` (ascending id
  /// order for equal times — the order a scan of the id-ordered live set
  /// derives) and asserts nothing was missed.
  void pop_due(std::vector<TxnId>& out) {
    const Time next = wheel_.next_time();
    if (next != kNoTime)
      DTM_CHECK(next >= now_, "calendar entry missed its execution step "
                                  << next << " (now " << now_ << ")");
    const std::size_t base = out.size();
    wheel_.drain_until(now_, out);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
  }

  // ---- Calendar introspection (streaming bounded-memory evidence) ----

  /// Entries currently scheduled (ring + overflow).
  [[nodiscard]] std::int64_t calendar_size() const { return wheel_.size(); }
  /// High-water mark of calendar_size() over the clock's lifetime.
  [[nodiscard]] std::int64_t calendar_peak() const { return wheel_.peak(); }
  /// Entries parked beyond the ring horizon.
  [[nodiscard]] std::int64_t calendar_overflow() const {
    return wheel_.overflow_size();
  }

  // ---- Next-event merging ----

  /// min over kNoTime-aware times.
  [[nodiscard]] static Time merge(Time a, Time b) {
    if (a == kNoTime) return b;
    if (b == kNoTime) return a;
    return a < b ? a : b;
  }

  /// Merges candidate event times and registered sources into the earliest
  /// future step anything can happen, floored at now (a source may report a
  /// pending event "in the past": deliver it this step). kNoTime = nothing
  /// will ever happen again.
  [[nodiscard]] Time next_event(
      std::initializer_list<Time> candidates,
      std::span<const EventSource* const> sources = {}) const {
    Time next = kNoTime;
    for (const Time t : candidates) {
      if (t == kNoTime) continue;
      next = merge(next, t < now_ ? now_ : t);
    }
    for (const EventSource* s : sources) {
      const Time t = s->next_event_time();
      if (t == kNoTime) continue;
      next = merge(next, t < now_ ? now_ : t);
    }
    return next;
  }

 private:
  Time now_ = 0;
  TimingWheel<TxnId, kRingBits> wheel_;
};

}  // namespace dtm
