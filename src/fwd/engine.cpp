#include "fwd/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bgpsim::fwd {

DataPlane::DataPlane(sim::Simulator& simulator, const net::Topology& topology,
                     std::vector<Fib>& fibs, DataPlaneOptions options)
    : sim_{simulator},
      topo_{topology},
      fibs_{fibs},
      destinations_{std::move(options.destinations)},
      backend_{options.backend} {
  assert(fibs_.size() == topo_.node_count());
  assert(!destinations_.empty());
  sim_.set_external_handler([this] {
    bridge_armed_ = false;
    drain_due();
    rearm();
    flush_fates();
  });
}

std::uint64_t DataPlane::inject(const Injection& injection) {
  assert(injection.prefix < destinations_.size() &&
         destinations_[injection.prefix] != net::kInvalidNode);
  Packet p;
  p.id = next_packet_id_++;
  p.source = injection.source;
  p.prefix = injection.prefix;
  p.ttl = injection.ttl;
  p.sent_at = sim_.now();
  ++counters_.injected;
  ++in_flight_;
  // The packet "arrives" at its own source with no delay.
  arrive(injection.source, p);
  flush_fates();
  return p.id;
}

DataPlane::Decision DataPlane::decide(net::NodeId node,
                                      net::Prefix prefix) const {
  Decision d;
  if (prefix < destinations_.size() && destinations_[prefix] == node) {
    d.kind = Decision::Kind::kDeliver;
    return d;
  }
  const std::optional<net::NodeId> nh = fibs_[node].next_hop(prefix);
  if (!nh) {
    d.kind = Decision::Kind::kNoRoute;
    return d;
  }
  const auto link = topo_.link_between(node, *nh);
  if (!link || !topo_.link(*link).up) {
    d.kind = Decision::Kind::kLinkDown;
    return d;
  }
  d.kind = Decision::Kind::kForward;
  d.next_hop = *nh;
  d.delay = topo_.link(*link).delay;
  return d;
}

const DataPlane::Decision& DataPlane::cached_decide(net::NodeId node,
                                                    net::Prefix prefix) const {
  if (cache_stride_ != destinations_.size()) {
    cache_stride_ = destinations_.size();
    cache_.assign(topo_.node_count() * cache_stride_, CachedDecision{});
  }
  CachedDecision& e = cache_[node * cache_stride_ + prefix];
  const std::uint64_t fib_now = fibs_[node].version();
  const std::uint64_t topo_now = topo_.state_version();
  if (e.fib_stamp != fib_now || e.topo_stamp != topo_now) {
    e.d = decide(node, prefix);
    e.fib_stamp = fib_now;
    e.topo_stamp = topo_now;
  }
  return e.d;
}

void DataPlane::arrive(net::NodeId node, Packet packet) {
  const Decision& d = cached_decide(node, packet.prefix);

  switch (d.kind) {
    case Decision::Kind::kDeliver:
      finish(packet, PacketFate::kDelivered, node);
      return;
    case Decision::Kind::kNoRoute:
      finish(packet, PacketFate::kNoRoute, node);
      return;
    case Decision::Kind::kLinkDown:
      finish(packet, PacketFate::kLinkDown, node);
      return;
    case Decision::Kind::kForward:
      break;
  }
  // One TTL decrement per AS hop (the study's loop indicator).
  if (--packet.ttl <= 0) {
    finish(packet, PacketFate::kTtlExhausted, node);
    return;
  }
  ++packet.hops_taken;
  ++counters_.hops;
  push_hop(sim_.now() + d.delay, d.next_hop, std::move(packet));
}

void DataPlane::finish(const Packet& p, PacketFate fate, net::NodeId where) {
  assert(in_flight_ > 0);
  --in_flight_;
  switch (fate) {
    case PacketFate::kDelivered:
      ++counters_.delivered;
      break;
    case PacketFate::kTtlExhausted:
      ++counters_.ttl_exhausted;
      break;
    case PacketFate::kNoRoute:
      ++counters_.no_route;
      break;
    case PacketFate::kLinkDown:
      ++counters_.link_down;
      break;
  }
  if (sink_ != nullptr) {
    batch_.push_back(FateRecord{p, fate, where, sim_.now()});
  }
}

void DataPlane::flush_fates() {
  if (batch_.empty()) return;
  sink_->on_fates(batch_);
  batch_.clear();
}

void DataPlane::save_state(snap::Writer& w) const {
  assert(batch_.empty());  // saves run from control events, never mid-drain
  w.u64(next_seq_);
  w.u64(next_packet_id_);
  w.u64(in_flight_);
  w.u64(counters_.injected);
  w.u64(counters_.delivered);
  w.u64(counters_.ttl_exhausted);
  w.u64(counters_.no_route);
  w.u64(counters_.link_down);
  w.u64(counters_.hops);
  w.b(bridge_armed_);
  w.time(bridge_time_);
  const auto write_event = [&w](const HopEvent& ev) {
    w.time(ev.at);
    w.u64(ev.seq);
    w.u32(ev.node);
    w.u64(ev.packet.id);
    w.u32(ev.packet.source);
    w.u32(ev.packet.prefix);
    w.i64(ev.packet.ttl);
    w.time(ev.packet.sent_at);
    w.i64(ev.packet.hops_taken);
  };
  if (backend_ == PlaneBackend::kRings) {
    // Rings are already ascending by (at, seq): tick cohorts are sorted
    // and each cohort holds its packets in seq order — the same canonical
    // bytes the heap path writes.
    std::uint64_t n = 0;
    for (const TickRing& r : rings_) n += r.items.size() - r.head;
    w.u64(n);
    for (const TickRing& r : rings_) {
      for (std::size_t i = r.head; i < r.items.size(); ++i) {
        write_event(r.items[i]);
      }
    }
  } else {
    auto heap = heap_;  // drain a copy: ascending, deterministic order
    w.u64(heap.size());
    while (!heap.empty()) {
      write_event(heap.top());
      heap.pop();
    }
  }
}

void DataPlane::restore_state(snap::Reader& r) {
  next_seq_ = r.u64();
  next_packet_id_ = r.u64();
  in_flight_ = static_cast<std::size_t>(r.u64());
  counters_.injected = r.u64();
  counters_.delivered = r.u64();
  counters_.ttl_exhausted = r.u64();
  counters_.no_route = r.u64();
  counters_.link_down = r.u64();
  counters_.hops = r.u64();
  bridge_armed_ = r.b();
  bridge_time_ = r.time();
  heap_ = {};
  rings_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    HopEvent ev;
    ev.at = r.time();
    ev.seq = r.u64();
    ev.node = r.u32();
    ev.packet.id = r.u64();
    ev.packet.source = r.u32();
    ev.packet.prefix = r.u32();
    ev.packet.ttl = static_cast<int>(r.i64());
    ev.packet.sent_at = r.time();
    ev.packet.hops_taken = static_cast<int>(r.i64());
    if (backend_ == PlaneBackend::kRings) {
      ring_insert(std::move(ev));
    } else {
      heap_.push(std::move(ev));
    }
  }
}

void DataPlane::push_hop(sim::SimTime at, net::NodeId node, Packet packet) {
  if (backend_ == PlaneBackend::kRings) {
    // Steady-state fast path: construct the HopEvent once, directly in
    // its final cohort slot.
    std::vector<HopEvent>* items;
    if (!rings_.empty() && at == rings_.back().at) {
      items = &rings_.back().items;
    } else if (rings_.empty() || at > rings_.back().at) {
      rings_.push_back(TickRing{at, 0, pooled_items()});
      items = &rings_.back().items;
    } else {
      ring_insert(HopEvent{at, next_seq_++, node, std::move(packet)});
      rearm();
      return;
    }
    items->push_back(HopEvent{at, next_seq_++, node, std::move(packet)});
  } else {
    heap_.push(HopEvent{at, next_seq_++, node, std::move(packet)});
  }
  rearm();
}

std::vector<DataPlane::HopEvent> DataPlane::pooled_items() {
  if (ring_pool_.empty()) return {};
  std::vector<HopEvent> v = std::move(ring_pool_.back());
  ring_pool_.pop_back();
  return v;
}

void DataPlane::ring_insert(HopEvent ev) {
  // Uniform link delays make the back cohort the overwhelmingly common
  // target; anything else walks back from the end (heterogeneous delays
  // stay correct, they just pay a short scan).
  if (!rings_.empty() && ev.at == rings_.back().at) {
    rings_.back().items.push_back(std::move(ev));
    return;
  }
  if (rings_.empty() || ev.at > rings_.back().at) {
    rings_.push_back(TickRing{ev.at, 0, pooled_items()});
    rings_.back().items.push_back(std::move(ev));
    return;
  }
  auto it = rings_.end();
  while (it != rings_.begin() && std::prev(it)->at > ev.at) --it;
  if (it != rings_.begin() && std::prev(it)->at == ev.at) {
    std::prev(it)->items.push_back(std::move(ev));
    return;
  }
  TickRing fresh{ev.at, 0, pooled_items()};
  fresh.items.push_back(std::move(ev));
  rings_.insert(it, std::move(fresh));
}

const sim::SimTime* DataPlane::next_pending_at() const {
  if (backend_ == PlaneBackend::kRings) {
    // Only the front cohort can be part-drained; skip it once exhausted.
    for (const TickRing& r : rings_) {
      if (r.head < r.items.size()) return &r.at;
    }
    return nullptr;
  }
  return heap_.empty() ? nullptr : &heap_.top().at;
}

void DataPlane::rearm() {
  const sim::SimTime* next = next_pending_at();
  if (next == nullptr) return;
  if (bridge_armed_ && bridge_time_ <= *next) return;  // armed early enough
  // arm_external replaces any previous arming with a fresh tie-break seq
  // — exactly the ordering the old cancel-and-reschedule produced.
  bridge_armed_ = true;
  bridge_time_ = *next;
  sim_.arm_external(*next);
}

void DataPlane::drain_due() {
  const sim::SimTime now = sim_.now();
  if (backend_ == PlaneBackend::kRings) {
    while (!rings_.empty() && rings_.front().at <= now) {
      TickRing& front = rings_.front();
      if (front.head >= front.items.size()) {
        // Recycle the cohort's storage before retiring it.
        front.items.clear();
        ring_pool_.push_back(std::move(front.items));
        rings_.pop_front();
        continue;
      }
      // Copy out before advancing; arrive() may grow this cohort's vector
      // (zero-delay links) or insert new cohorts.
      HopEvent ev = std::move(front.items[front.head++]);
      arrive(ev.node, std::move(ev.packet));
    }
    return;
  }
  while (!heap_.empty() && heap_.top().at <= now) {
    // Copy out before pop; arrive() may push new hops.
    HopEvent ev = heap_.top();
    heap_.pop();
    arrive(ev.node, std::move(ev.packet));
  }
}

}  // namespace bgpsim::fwd
