// The discrete-event simulator core. Pending events live in an EventQueue
// indexed by the hierarchical timer wheel; its binary-heap reference index
// is built only when a caller passes QueueBackend::kHeap, which the
// differential tests and microbenchmarks do.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace bgpsim::sim {

/// Discrete-event simulator: a virtual clock plus an event queue.
///
/// Components schedule callbacks at absolute times or after delays; run()
/// drains the queue in time order, advancing the clock to each event's
/// firing time. The engine is strictly single-threaded and deterministic:
/// identical schedules produce identical executions.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// The queue backend is the timer wheel; the differential tests and
  /// microbenchmarks pass QueueBackend::kHeap to build the reference.
  explicit Simulator(QueueBackend backend = QueueBackend::kWheel)
      : queue_{backend} {}

  [[nodiscard]] QueueBackend backend() const { return queue_.backend(); }

  /// True when components should gather coincident timer expiries into one
  /// batched delivery (see next_coincident_event). Tied to the wheel
  /// backend so the heap reference keeps the strictly sequential
  /// execution.
  [[nodiscard]] bool burst_delivery() const {
    return queue_.backend() == QueueBackend::kWheel;
  }

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `when` (must be >= now()).
  EventId schedule_at(SimTime when, Callback cb);

  /// Schedule `cb` after `delay` from now (delay must be >= 0).
  EventId schedule_after(SimTime delay, Callback cb);

  /// The handle the next schedule_at/schedule_after call will return
  /// (pure observation; see EventQueue::next_push_id). Lets a caller bake
  /// the id into the scheduled closure itself.
  [[nodiscard]] EventId next_schedule_id() const { return queue_.next_push_id(); }

  /// Cancel a pending event; returns false if it already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains or the next event lies beyond `limit`.
  /// Events at exactly `limit` do fire. The clock stays at the last fired
  /// event's time (it does not jump to `limit`). Returns the number of
  /// events fired.
  std::uint64_t run_until(SimTime limit);

  /// Run until the queue drains. Returns the number of events fired.
  std::uint64_t run() { return run_until(SimTime::infinity()); }

  /// Fire exactly one event if any is pending. Returns true if one fired.
  bool step();

  /// --- batched same-timestamp delivery ------------------------------
  ///
  /// A component whose handler is currently running (i.e. now() is the
  /// firing time) may consume further events due at this exact instant
  /// without a round trip through the run loop, provided it can re-derive
  /// the work from its own bookkeeping. The contract preserves the
  /// sequential execution order exactly: only the globally next event is
  /// ever offered, so a foreign event (another component's closure, or
  /// the external slot) interleaved between two of the component's timers
  /// stops the batch right there.

  /// Handle of the next pending event iff it is due exactly at now() and
  /// precedes an armed external slot; nullopt otherwise. The caller
  /// checks the handle against its own bookkeeping before consuming.
  [[nodiscard]] std::optional<EventId> next_coincident_event() const;

  /// Consume the event next_coincident_event() just returned: it counts
  /// as fired (the clock is already at its time) but its closure is
  /// discarded unrun. `id` must still be the front of the queue.
  void consume_coincident(EventId id);

  /// --- external event slot ------------------------------------------
  ///
  /// A component that manages many internal timed items behind one
  /// deadline — the data plane keeps its own heap of millions of packet
  /// hops — registers a handler once and arms the slot for its earliest
  /// internal time. Arming draws a FIFO tie-break seq from the same
  /// counter as schedule_at, so the handler fires in exactly the order a
  /// freshly pushed event would — but arming and re-arming are a few
  /// stores, with no queue traffic and no allocation. One slot per
  /// simulator; the run loop merges it with the queue.

  /// Register the external handler (must be set before arm_external; may
  /// only be installed once — the slot has a single owner).
  void set_external_handler(Callback handler);

  /// Arm the slot at absolute time `when` (>= now()), replacing any
  /// previous arming and assigning a fresh tie-break seq — the ordering a
  /// cancel-and-reschedule through the queue would produce.
  void arm_external(SimTime when);

  /// Disarm without firing. No-op if not armed.
  void disarm_external() { ext_armed_ = false; }

  [[nodiscard]] bool external_armed() const { return ext_armed_; }

  /// Number of pending (live) events, counting an armed external slot.
  [[nodiscard]] std::size_t pending() const {
    return queue_.size() + (ext_armed_ ? 1 : 0);
  }

  /// Total events fired since construction.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Drop all pending events, including an armed external slot (the
  /// clock is not reset).
  void clear_pending() {
    queue_.clear();
    ext_armed_ = false;
  }

  /// Sequence number the next scheduled event will receive — part of the
  /// deterministic-replay state alongside now() and events_fired().
  [[nodiscard]] std::uint64_t event_seq() const { return queue_.next_seq(); }

  /// Checkpoint restore: set the clock, fired-event count, and event
  /// sequence counter in one step so a restored run continues with
  /// bit-identical timestamps, counts, and FIFO tie-breaks. Does not touch
  /// pending events; the caller is responsible for restoring at a moment
  /// where the queue contents match the checkpoint (e.g. quiescence).
  void restore_clock(SimTime now, std::uint64_t fired, std::uint64_t seq) {
    now_ = now;
    fired_ = fired;
    queue_.set_next_seq(seq);
  }

  /// Sorted (time µs, seq) of every live queued event — the
  /// backend-invariant pending set snapshots serialize and verify. The
  /// external slot is excluded: it is component-owned state, re-armed by
  /// its owner on restore.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>>
  pending_entries() const {
    return queue_.pending_entries();
  }

 private:
  /// True when the external slot fires before the queue's earliest event
  /// — earlier time, or equal time with the earlier seq. Requires the
  /// slot armed and the queue non-empty.
  [[nodiscard]] bool external_first() const {
    const SimTime qt = queue_.next_time();
    if (ext_time_ != qt) return ext_time_ < qt;
    return ext_seq_ < queue_.next_event_seq();
  }

  void fire_external() {
    ext_armed_ = false;
    now_ = ext_time_;
    ++fired_;
    ext_handler_();
  }

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t fired_ = 0;
  Callback ext_handler_;
  SimTime ext_time_ = SimTime::zero();
  std::uint64_t ext_seq_ = 0;
  bool ext_armed_ = false;
};

}  // namespace bgpsim::sim
