#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace bgpsim::sim {

EventQueue::EventQueue(QueueBackend backend) {
  if (backend == QueueBackend::kWheel) {
    wheel_ = std::make_unique<TimerWheel>();
  }
}

EventId EventQueue::next_push_id() const {
  const std::uint32_t slot = free_.empty()
                                 ? static_cast<std::uint32_t>(slots_.size())
                                 : free_.back();
  const std::uint32_t gen = slot < slots_.size() ? slots_[slot].gen + 1 : 1;
  return EventId{(static_cast<std::uint64_t>(slot) << kGenBits) | gen};
}

EventId EventQueue::push(SimTime when, Callback cb) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  // A push can only move the front forward in time if it lands strictly
  // before the cached entry (its seq is always the largest yet).
  if (front_cached_ && when.as_micros() < front_cache_.time_us) {
    front_cached_ = false;
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.seq = seq;
  ++s.gen;
  if (wheel_) {
    wheel_->insert(TimerWheel::Entry{when.as_micros(), seq, slot});
  } else {
    heap_.push_back(HeapEntry{when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  }
  ++live_;
  return EventId{(static_cast<std::uint64_t>(slot) << kGenBits) | s.gen};
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = Callback{};
  s.seq = 0;
  free_.push_back(slot);
  assert(live_ > 0);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value >> kGenBits);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.seq == 0 || s.gen != gen) return false;
  // The index entry (heap or wheel) is left in place; the front-entry
  // helpers recognize it as stale by its dead seq and drop it. Cancelling
  // any slot other than the cached front leaves the front untouched.
  if (front_cached_ && front_cache_.slot == slot) front_cached_ = false;
  release_slot(slot);
  return true;
}

void EventQueue::drop_dead_prefix() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
  }
}

TimerWheel::Entry EventQueue::front_entry() const {
  if (front_cached_) return front_cache_;
  // Both backends prune stale entries lazily, so surfacing the front
  // mutates index bookkeeping (never live state); see next_time().
  auto* self = const_cast<EventQueue*>(this);
  if (wheel_) {
    const TimerWheel::Entry* e = self->wheel_->peek(wheel_stale, this);
    if (e == nullptr) {
      throw std::logic_error{"EventQueue: front_entry on empty queue"};
    }
    front_cache_ = *e;
  } else {
    self->drop_dead_prefix();
    if (heap_.empty()) {
      throw std::logic_error{"EventQueue: front_entry on empty queue"};
    }
    const HeapEntry& top = heap_.front();
    front_cache_ = TimerWheel::Entry{top.time.as_micros(), top.seq, top.slot};
  }
  front_cached_ = true;
  return front_cache_;
}

void EventQueue::drop_front() {
  front_cached_ = false;
  if (wheel_) {
    wheel_->pop_front();
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), heap_after);
  heap_.pop_back();
}

SimTime EventQueue::next_time() const {
  return SimTime::micros(front_entry().time_us);
}

std::uint64_t EventQueue::next_event_seq() const { return front_entry().seq; }

EventId EventQueue::next_event_id() const {
  const TimerWheel::Entry top = front_entry();
  return EventId{(static_cast<std::uint64_t>(top.slot) << kGenBits) |
                 slots_[top.slot].gen};
}

EventQueue::Fired EventQueue::pop() {
  const TimerWheel::Entry top = front_entry();
  drop_front();
  Slot& s = slots_[top.slot];
  assert(s.seq == top.seq);
  Fired fired{SimTime::micros(top.time_us), std::move(s.cb),
              EventId{(static_cast<std::uint64_t>(top.slot) << kGenBits) | s.gen}};
  release_slot(top.slot);
  return fired;
}

void EventQueue::consume_next() {
  const TimerWheel::Entry top = front_entry();
  drop_front();
  assert(slots_[top.slot].seq == top.seq);
  release_slot(top.slot);
}

void EventQueue::clear() {
  // Free every live slot but keep the pool (and its generations): a stale
  // EventId from before clear() must keep failing to cancel, even if its
  // slot is recycled afterwards.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].seq != 0) release_slot(slot);
  }
  heap_.clear();
  if (wheel_) wheel_->clear();
  front_cached_ = false;
  assert(live_ == 0);
}

std::vector<std::pair<std::int64_t, std::uint64_t>>
EventQueue::pending_entries() const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
  out.reserve(live_);
  if (wheel_) {
    std::vector<TimerWheel::Entry> entries;
    entries.reserve(live_);
    wheel_->collect(wheel_stale, this, entries);
    for (const TimerWheel::Entry& e : entries) out.emplace_back(e.time_us, e.seq);
  } else {
    for (const HeapEntry& e : heap_) {
      if (!stale(e)) out.emplace_back(e.time.as_micros(), e.seq);
    }
  }
  std::sort(out.begin(), out.end());
  assert(out.size() == live_);
  return out;
}

}  // namespace bgpsim::sim
