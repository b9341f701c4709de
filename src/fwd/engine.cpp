#include "fwd/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace bgpsim::fwd {
namespace {

/// Key spacing of a phase's front blocks: every injection that joins a
/// phase ahead of its pending cohort gets a key below all earlier ones.
constexpr std::int64_t kFrontBlock = std::int64_t{1} << 20;

/// Fast-forward indexes phases by offset in a table of D entries, so it
/// takes only link delays up to this (16.7 s); longer ones step hop by hop.
constexpr sim::SimTime kMaxFastForwardDelay =
    sim::SimTime::micros(std::int64_t{1} << 24);

constexpr std::uint32_t kNoPhase = 0xffffffffU;

/// Index of the first element of sorted `v` above `r` (std::upper_bound
/// without branches: the offsets searched every bridge firing are a
/// hundred-odd phases whose comparisons a predictor cannot learn).
std::size_t first_above(const std::vector<std::int64_t>& v, std::int64_t r) {
  if (v.empty()) return 0;
  const std::int64_t* base = v.data();
  for (std::size_t n = v.size(); n > 1;) {
    const std::size_t half = n / 2;
    base = base[half - 1] <= r ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - v.data()) + (*base <= r ? 1 : 0);
}

}  // namespace

DataPlane::DataPlane(sim::Simulator& simulator, const net::Topology& topology,
                     std::vector<Fib>& fibs, DataPlaneOptions options)
    : sim_{simulator},
      topo_{topology},
      fibs_{fibs},
      destinations_{std::move(options.destinations)},
      backend_{options.backend} {
  assert(fibs_.size() == topo_.node_count());
  assert(!destinations_.empty());
  sim_.set_external_handler([this] { on_bridge(); });
  for (std::size_t n = 0; n < fibs_.size(); ++n) {
    fibs_[n].set_listener(this, static_cast<net::NodeId>(n));
  }
  if (backend_ == PlaneBackend::kFastForward) enter_fast_forward();
}

DataPlane::~DataPlane() {
  for (Fib& fib : fibs_) fib.set_listener(nullptr, net::kInvalidNode);
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
  // A bridge the plane armed but the simulator no longer holds was dropped
  // by clear_pending: the ring store reproduces what follows (nothing in
  // flight moves again).
  if (ff_ && bridge_armed_ && !sim_.external_armed()) fall_back_to_rings();
  if (!ff_ && backend_ == PlaneBackend::kFastForward && in_flight_ == 0 &&
      !bridge_armed_) {
    enter_fast_forward();
  }
  ++in_flight_;
  if (ff_ && sync()) {
    ff_inject(p);
  } else {
    // The packet "arrives" at its own source with no delay.
    arrive(injection.source, p);
  }
  flush_fates();
  return p.id;
}

const DataPlane::Counters& DataPlane::counters() const {
  if (ff_) counters_.hops = ff_hops();
  return counters_;
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

PacketFate DataPlane::fate_of(Decision::Kind kind) {
  switch (kind) {
    case Decision::Kind::kDeliver:
      return PacketFate::kDelivered;
    case Decision::Kind::kNoRoute:
      return PacketFate::kNoRoute;
    case Decision::Kind::kLinkDown:
    case Decision::Kind::kForward:
      break;
  }
  return PacketFate::kLinkDown;
}

void DataPlane::record_fate(const Packet& p, PacketFate fate,
                            net::NodeId where, sim::SimTime when) {
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
  if (sink_ != nullptr) batch_.push_back(FateRecord{p, fate, where, when});
}

void DataPlane::flush_fates() {
  if (batch_.empty()) return;
  sink_->on_fates(batch_);
  batch_.clear();
}

void DataPlane::on_bridge() {
  bridge_armed_ = false;
  if (ff_ && sync()) {
    ff_bridge();
    return;
  }
  drain_due();
  rearm();
  flush_fates();
  if (backend_ == PlaneBackend::kFastForward && in_flight_ == 0 &&
      !bridge_armed_) {
    enter_fast_forward();
  }
}

void DataPlane::arm(sim::SimTime at) {
  // arm_external replaces any previous arming with a fresh tie-break seq
  // — exactly the ordering a cancel-and-reschedule would produce.
  bridge_armed_ = true;
  bridge_time_ = at;
  sim_.arm_external(at);
}

void DataPlane::save_state(snap::Writer& w) const {
  assert(batch_.empty());  // saves run from control events, never mid-drain
  const std::vector<HopEvent> pending = pending_hops();
  w.u64(next_packet_id_);
  w.u64(in_flight_);
  w.u64(counters_.injected);
  w.u64(counters_.delivered);
  w.u64(counters_.ttl_exhausted);
  w.u64(counters_.no_route);
  w.u64(counters_.link_down);
  w.u64(counters().hops);
  w.b(bridge_armed_);
  w.time(bridge_time_);
  w.u64(pending.size());
  for (const HopEvent& ev : pending) {
    w.time(ev.at);
    w.u32(ev.node);
    w.u64(ev.packet.id);
    w.u32(ev.packet.source);
    w.u32(ev.packet.prefix);
    w.i64(ev.packet.ttl);
    w.time(ev.packet.sent_at);
    w.i64(ev.packet.hops_taken);
  }
}

void DataPlane::restore_state(snap::Reader& r) {
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
  std::vector<HopEvent> events(static_cast<std::size_t>(r.u64()));
  for (HopEvent& ev : events) {
    ev.at = r.time();
    ev.node = r.u32();
    ev.packet.id = r.u64();
    ev.packet.source = r.u32();
    ev.packet.prefix = r.u32();
    ev.packet.ttl = static_cast<int>(r.i64());
    ev.packet.sent_at = r.time();
    ev.packet.hops_taken = static_cast<int>(r.i64());
  }
  rings_.clear();
  ff_ = false;
  ff_reset(sim_.now());

  // Fast-forward takes the state over only when the lockstep invariant
  // describes it: one link delay, every arrival within one delay of now,
  // only now's phase split across two ticks, and a bridge the live
  // simulator really holds.
  const sim::SimTime now = sim_.now();
  const std::size_t n = events.size();
  bool eligible = backend_ == PlaneBackend::kFastForward && uniform_delay() &&
                  in_flight_ == n;
  bool refire = false;
  if (eligible && n == 0) {
    eligible = !bridge_armed_ && !sim_.external_armed();
  } else if (eligible) {
    // Armed for the first pending tick, or the ring store's re-arm at the
    // tick it just drained.
    refire = bridge_time_ == now && events.front().at > now;
    eligible = bridge_armed_ && sim_.external_armed() &&
               sim_.external_time() == bridge_time_ &&
               (bridge_time_ == events.front().at || refire);
  }
  for (std::size_t k = 0; eligible && k < n; ++k) {
    const HopEvent& ev = events[k];
    // Within [now, now + D] two ticks of one phase can only be now and
    // now + D.
    eligible = ev.at >= now && ev.at <= now + delay_ && ev.packet.ttl >= 1 &&
               (k == 0 || events[k - 1].at <= ev.at);
  }
  if (!eligible) {
    for (HopEvent& ev : events) ring_insert(std::move(ev));
    return;
  }

  ff_ = true;
  const bool due_now = n > 0 && events.front().at == now;
  ff_reset(due_now ? now - sim::SimTime::micros(1) : now);
  refire_pending_ = refire;
  hops_base_ = counters_.hops;
  in_flight_ = n;
  for (const HopEvent& ev : events) {
    // A hop one delay out in the phase whose cohort is still due now was
    // injected ahead of that cohort's drain.
    const bool front = due_now && ev.at == now + delay_;
    predict(ff_add(ev.packet, ev.at, front), ev.node);
  }
}

// ---------------------------------------------------------------------------
// Ring store: one arrival at a time.

void DataPlane::arrive(net::NodeId node, Packet packet) {
  const Decision& d = cached_decide(node, packet.prefix);
  if (d.kind != Decision::Kind::kForward) {
    record_fate(packet, fate_of(d.kind), node, sim_.now());
    return;
  }
  // One TTL decrement per AS hop (the study's loop indicator).
  if (--packet.ttl <= 0) {
    record_fate(packet, PacketFate::kTtlExhausted, node, sim_.now());
    return;
  }
  ++packet.hops_taken;
  ++counters_.hops;
  push_hop(sim_.now() + d.delay, d.next_hop, std::move(packet));
}

void DataPlane::push_hop(sim::SimTime at, net::NodeId node, Packet packet) {
  // Steady-state fast path: construct the HopEvent once, directly in its
  // final cohort slot.
  std::vector<HopEvent>* items;
  if (!rings_.empty() && at == rings_.back().at) {
    items = &rings_.back().items;
  } else if (rings_.empty() || at > rings_.back().at) {
    rings_.push_back(TickRing{at, 0, pooled_items()});
    items = &rings_.back().items;
  } else {
    ring_insert(HopEvent{at, node, std::move(packet)});
    rearm();
    return;
  }
  items->push_back(HopEvent{at, node, std::move(packet)});
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
  // Only the front cohort can be part-drained; skip it once exhausted.
  for (const TickRing& r : rings_) {
    if (r.head < r.items.size()) return &r.at;
  }
  return nullptr;
}

void DataPlane::rearm() {
  const sim::SimTime* next = next_pending_at();
  if (next == nullptr) return;
  if (bridge_armed_ && bridge_time_ <= *next) return;  // armed early enough
  arm(*next);
}

void DataPlane::drain_due() {
  const sim::SimTime now = sim_.now();
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
}


// ---------------------------------------------------------------------------
// Fast-forward: one prediction per stable segment.

net::NodeId DataPlane::Flight::node_at(std::int64_t i) const {
  const auto len = static_cast<std::int64_t>(path.size());
  if (i < len) return path[static_cast<std::size_t>(i)];
  const auto c = static_cast<std::int64_t>(cycle);
  return path[static_cast<std::size_t>(c + (i - c) % (len - c))];
}

void DataPlane::on_route_change(net::NodeId node, net::Prefix prefix) {
  // O(1) while nothing of this prefix is in flight (a restore reconciling a
  // full table touches tens of thousands of entries at quiescence).
  if (!ff_ || in_flight_ == 0 || prefix >= live_per_prefix_.size() ||
      live_per_prefix_[prefix] == 0) {
    return;
  }
  const std::size_t stride = destinations_.size();
  if (dirty_mark_.size() != topo_.node_count() * stride) {
    dirty_mark_.assign(topo_.node_count() * stride, 0);
  }
  dirty_mark_[node * stride + prefix] = dirty_epoch_;
  dirty_ = true;
}

bool DataPlane::uniform_delay() {
  if (delay_stamp_ != topo_.state_version()) {
    delay_stamp_ = topo_.state_version();
    delay_uniform_ = topo_.link_count() > 0;
    if (delay_uniform_) delay_ = topo_.link(0).delay;
    for (net::LinkId l = 0; delay_uniform_ && l < topo_.link_count(); ++l) {
      delay_uniform_ = topo_.link(l).delay == delay_;
    }
    delay_uniform_ = delay_uniform_ && delay_ > sim::SimTime::zero() &&
                     delay_ <= kMaxFastForwardDelay;
    if (delay_uniform_) {
      // ceil(2^64 / D); it wraps to 0 only for D = 1, which div_delay
      // handles.
      delay_magic_ =
          ~std::uint64_t{0} / static_cast<std::uint64_t>(delay_.as_micros()) +
          1;
    }
  }
  return delay_uniform_;
}

bool DataPlane::enter_fast_forward() {
  assert(in_flight_ == 0 && !bridge_armed_);
  if (!uniform_delay()) return false;
  rings_.clear();
  ff_ = true;
  ff_reset(sim_.now());
  hops_base_ = counters_.hops;
  return true;
}

void DataPlane::fall_back_to_rings() {
  std::vector<HopEvent> pending = pending_hops();
  counters_.hops = ff_hops();
  ff_ = false;
  ff_reset(sim_.now());
  rings_.clear();
  for (HopEvent& ev : pending) ring_insert(std::move(ev));
}

void DataPlane::ff_reset(sim::SimTime cursor) {
  cursor_ = cursor;
  for (const std::uint32_t f : alive_) free_flights_.push_back(f);
  alive_.clear();
  for (Flight& f : flights_) ++f.gen;
  for (const std::int64_t offset : live_) close_phase(offset);
  live_.clear();
  refire_pending_ = false;
  terminals_ = {};
  live_per_prefix_.assign(destinations_.size(), 0);
  clear_dirty();
  topo_stamp_ = topo_.state_version();
}

void DataPlane::clear_dirty() {
  dirty_ = false;
  if (++dirty_epoch_ == 0) {
    std::fill(dirty_mark_.begin(), dirty_mark_.end(), 0);
    dirty_epoch_ = 1;
  }
}

bool DataPlane::sync() {
  if (topo_.state_version() != topo_stamp_) {
    // A link changed (or was added): decisions anywhere may differ.
    topo_stamp_ = topo_.state_version();
    if (!uniform_delay()) {
      fall_back_to_rings();
      return false;
    }
    for (const std::uint32_t f : alive_) {
      reanchor(f);
      ++counters_.repredictions;
    }
    clear_dirty();
    return true;
  }
  if (!dirty_) return true;
  const std::size_t stride = destinations_.size();
  for (const std::uint32_t fi : alive_) {
    const Flight& f = flights_[fi];
    // The remaining path: from the next arrival on, the whole cycle once
    // the packet is inside it.
    std::int64_t k = processed(f);
    if (f.cyclic && k > static_cast<std::int64_t>(f.cycle)) k = f.cycle;
    for (; k < static_cast<std::int64_t>(f.path.size()); ++k) {
      const net::NodeId x = f.path[static_cast<std::size_t>(k)];
      if (dirty_mark_[x * stride + f.packet.prefix] == dirty_epoch_) {
        reanchor(fi);
        ++counters_.repredictions;
        break;
      }
    }
  }
  clear_dirty();
  return true;
}

void DataPlane::ff_inject(Packet p) {
  // The source's own decision is the ring store's, taken at once.
  const Decision& d = cached_decide(p.source, p.prefix);
  const sim::SimTime now = sim_.now();
  if (d.kind != Decision::Kind::kForward) {
    record_fate(p, fate_of(d.kind), p.source, now);
    return;
  }
  if (--p.ttl <= 0) {
    record_fate(p, PacketFate::kTtlExhausted, p.source, now);
    return;
  }
  ++p.hops_taken;
  ++hops_base_;
  const sim::SimTime at = now + delay_;
  bool front = false;
  if (find_phase(offset_of(at)) != nullptr) {
    // The phase's cohort is due now: the packet joins ahead of it unless
    // that drain already ran.
    front = cursor_ < now;
  } else {
    // A new window. Nothing is due at now (only this phase could be), so
    // the cursor may move up to now.
    cursor_ = std::max(cursor_, now);
  }
  predict(ff_add(p, at, front), d.next_hop);
  if (!bridge_armed_) arm(instant_after(cursor_));
}

std::uint32_t DataPlane::ff_add(const Packet& p, sim::SimTime at,
                                bool front) {
  std::uint32_t fi;
  if (free_flights_.empty()) {
    fi = static_cast<std::uint32_t>(flights_.size());
    flights_.emplace_back();
  } else {
    fi = free_flights_.back();
    free_flights_.pop_back();
  }
  Flight& f = flights_[fi];
  f.packet = p;
  f.anchor_at = at;
  const std::int64_t offset = offset_of(at);
  bool fresh = false;
  Phase& ph = open_phase(offset, fresh);
  if (fresh) {
    live_.insert(std::upper_bound(live_.begin(), live_.end(), offset), offset);
  }
  if (front) {
    const sim::SimTime now = at - delay_;
    if (ph.front_at != now) {
      ph.front_at = now;
      ph.min_key -= kFrontBlock;
      ph.front_next = ph.min_key;
    }
    f.key = ph.front_next++;
  } else {
    f.key = ph.back_key++;
  }
  f.phase_pos = static_cast<std::uint32_t>(ph.members.size());
  ph.members.push_back(fi);
  f.alive_pos = static_cast<std::uint32_t>(alive_.size());
  alive_.push_back(fi);
  ++live_per_prefix_[p.prefix];
  return fi;
}

void DataPlane::predict(std::uint32_t fi, net::NodeId start) {
  const std::size_t nodes = topo_.node_count();
  if (visit_mark_.size() != nodes) {
    visit_mark_.assign(nodes, 0);
    visit_index_.assign(nodes, 0);
  }
  if (++walk_epoch_ == 0) {
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
    walk_epoch_ = 1;
  }
  Flight& f = flights_[fi];
  f.path.clear();
  f.cyclic = false;
  const std::int64_t ttl = f.packet.ttl;
  net::NodeId x = start;
  for (std::int64_t j = 0;; ++j) {
    if (visit_mark_[x] == walk_epoch_) {
      // A revisit: the packet circles this cycle until its TTL runs out.
      f.cyclic = true;
      f.cycle = visit_index_[x];
      f.terminal = ttl - 1;
      f.fate = PacketFate::kTtlExhausted;
      f.where = f.node_at(f.terminal);
      break;
    }
    visit_mark_[x] = walk_epoch_;
    visit_index_[x] = static_cast<std::uint32_t>(j);
    f.path.push_back(x);
    const Decision& d = cached_decide(x, f.packet.prefix);
    if (d.kind != Decision::Kind::kForward) {
      f.terminal = j;
      f.fate = fate_of(d.kind);
      f.where = x;
      break;
    }
    if (ttl - j - 1 <= 0) {
      f.terminal = j;
      f.fate = PacketFate::kTtlExhausted;
      f.where = x;
      break;
    }
    x = d.next_hop;
  }
  ++f.gen;
  terminals_.push(Terminal{f.anchor_at + delay_ * f.terminal, fi, f.gen});
  ++counters_.segments;
}

void DataPlane::reanchor(std::uint32_t fi) {
  Flight& f = flights_[fi];
  const std::int64_t i = processed(f);
  const net::NodeId start = f.node_at(i);
  if (i > 0) {
    hops_base_ += static_cast<std::uint64_t>(i);
    f.packet.ttl -= static_cast<int>(i);
    f.packet.hops_taken += static_cast<int>(i);
    f.anchor_at += delay_ * i;
  }
  predict(fi, start);
}

bool DataPlane::drain_instant(sim::SimTime t) {
  // The cohort due at t is the phase minus the injections that joined
  // ahead of it at t (they arrive one delay later). The ring store re-arms
  // at t when a member other than the last in FIFO order forwards on.
  const std::int64_t offset = offset_of(t);
  Phase& ph = *find_phase(offset);
  cursor_ = t;
  const Terminal* top = next_terminal();
  if (top == nullptr || top->at != t) {
    const std::size_t ahead =
        ph.front_at == t
            ? static_cast<std::size_t>(ph.front_next - ph.min_key)
            : 0;
    return ph.members.size() - ahead >= 2;
  }
  std::int64_t last_key = std::numeric_limits<std::int64_t>::min();
  std::int64_t first_survivor = std::numeric_limits<std::int64_t>::max();
  for (const std::uint32_t fi : ph.members) {
    const Flight& f = flights_[fi];
    if (f.anchor_at > t) continue;  // joined ahead at t
    last_key = std::max(last_key, f.key);
    if (f.anchor_at + delay_ * f.terminal != t) {
      first_survivor = std::min(first_survivor, f.key);
    }
  }

  due_.clear();
  for (; top != nullptr && top->at == t; top = next_terminal()) {
    due_.push_back(top->flight);
    terminals_.pop();
  }
  // One instant is one phase: its packets end in ring (FIFO) order.
  std::sort(due_.begin(), due_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return flights_[a].key < flights_[b].key;
  });
  for (const std::uint32_t fi : due_) {
    Flight& f = flights_[fi];
    Packet p = f.packet;
    p.ttl -= static_cast<int>(f.terminal) +
             (f.fate == PacketFate::kTtlExhausted ? 1 : 0);
    p.hops_taken += static_cast<int>(f.terminal);
    hops_base_ += static_cast<std::uint64_t>(f.terminal);
    record_fate(p, f.fate, f.where, t);
    --live_per_prefix_[p.prefix];
    const std::uint32_t moved = alive_.back();
    alive_[f.alive_pos] = moved;
    flights_[moved].alive_pos = f.alive_pos;
    alive_.pop_back();
    ++f.gen;
    free_flights_.push_back(fi);
    const std::uint32_t last = ph.members.back();
    ph.members[f.phase_pos] = last;
    flights_[last].phase_pos = f.phase_pos;
    ph.members.pop_back();
    if (ph.members.empty()) {
      live_.erase(std::lower_bound(live_.begin(), live_.end(), offset));
      close_phase(offset);
      break;  // the phase is gone: every due flight was its member
    }
  }
  flush_fates();
  return first_survivor < last_key;
}

void DataPlane::ff_bridge() {
  // The slot fired at the plane's first instant after a control event;
  // every instant before the horizon is settled here, and only terminal
  // ones do work.
  const sim::SimTime horizon = sim_.external_horizon();
  const sim::SimTime now = sim_.now();
  if (refire_pending_) {
    refire_pending_ = false;  // the re-arm at cursor_ has fired
  } else if (drain_instant(now) && horizon <= now) {
    // Queued events at this instant run before the re-armed bridge.
    arm(now);
    refire_pending_ = true;
    return;
  }
  const sim::SimTime one = sim::SimTime::micros(1);
  while (in_flight_ > 0) {
    const Terminal* t = next_terminal();
    if (t == nullptr || t->at >= horizon) {
      // Nothing ends before the horizon: every instant up to it is passed.
      cursor_ = std::max(cursor_, horizon - one);
      arm(instant_after(cursor_));
      return;
    }
    // The clock follows the fates, so a run ends at its last terminal.
    const sim::SimTime stop = t->at;
    cursor_ = stop - one;
    sim_.advance_external(stop);
    bridge_time_ = stop;  // stays, should the plane empty here
    drain_instant(stop);
  }
}

std::int64_t DataPlane::processed(const Flight& f) const {
  if (cursor_ < f.anchor_at) return 0;
  return div_delay((cursor_ - f.anchor_at).as_micros()) + 1;
}

std::int64_t DataPlane::offset_of(sim::SimTime t) const {
  return t.as_micros() - div_delay(t.as_micros()) * delay_.as_micros();
}

std::int64_t DataPlane::div_delay(std::int64_t t) const {
  // floor(t / D) as the high word of t·ceil(2^64 / D): exact for
  // 0 <= t < 2^64 / D (the error stays below 1/D), no hardware divide.
  if (delay_magic_ == 0) return t;  // D == 1
  return static_cast<std::int64_t>(
      (static_cast<unsigned __int128>(static_cast<std::uint64_t>(t)) *
       delay_magic_) >>
      64);
}

DataPlane::Phase* DataPlane::find_phase(std::int64_t offset) {
  if (phase_of_.empty()) return nullptr;
  const std::uint32_t i = phase_of_[static_cast<std::size_t>(offset)];
  return i == kNoPhase ? nullptr : &phase_pool_[i];
}

DataPlane::Phase& DataPlane::open_phase(std::int64_t offset, bool& fresh) {
  if (phase_of_.size() != static_cast<std::size_t>(delay_.as_micros())) {
    phase_of_.assign(static_cast<std::size_t>(delay_.as_micros()), kNoPhase);
  }
  std::uint32_t& slot = phase_of_[static_cast<std::size_t>(offset)];
  fresh = slot == kNoPhase;
  if (fresh) {
    if (free_phases_.empty()) {
      slot = static_cast<std::uint32_t>(phase_pool_.size());
      phase_pool_.emplace_back();
    } else {
      slot = free_phases_.back();
      free_phases_.pop_back();
      std::vector<std::uint32_t> members = std::move(phase_pool_[slot].members);
      members.clear();
      phase_pool_[slot] = Phase{};
      phase_pool_[slot].members = std::move(members);
    }
  }
  return phase_pool_[slot];
}

void DataPlane::close_phase(std::int64_t offset) {
  std::uint32_t& slot = phase_of_[static_cast<std::size_t>(offset)];
  free_phases_.push_back(slot);
  slot = kNoPhase;
}

sim::SimTime DataPlane::instant_after(sim::SimTime c) const {
  assert(!live_.empty());
  const std::int64_t d = delay_.as_micros();
  const std::int64_t q = div_delay(c.as_micros());
  const std::size_t above = first_above(live_, c.as_micros() - q * d);
  if (above < live_.size()) return sim::SimTime::micros(q * d + live_[above]);
  return sim::SimTime::micros((q + 1) * d + live_.front());
}

const DataPlane::Terminal* DataPlane::next_terminal() {
  while (!terminals_.empty() &&
         terminals_.top().gen != flights_[terminals_.top().flight].gen) {
    terminals_.pop();
  }
  return terminals_.empty() ? nullptr : &terminals_.top();
}

std::uint64_t DataPlane::ff_hops() const {
  std::uint64_t hops = hops_base_;
  for (const std::uint32_t fi : alive_) {
    hops += static_cast<std::uint64_t>(processed(flights_[fi]));
  }
  return hops;
}

std::vector<DataPlane::HopEvent> DataPlane::pending_hops() const {
  std::vector<HopEvent> out;
  if (!ff_) {
    // Rings are already in order: tick cohorts are sorted and each cohort
    // holds its packets in push order.
    for (const TickRing& r : rings_) {
      out.insert(out.end(), r.items.begin() + static_cast<std::ptrdiff_t>(r.head),
                 r.items.end());
    }
    return out;
  }
  struct Row {
    HopEvent ev;
    std::int64_t key;
  };
  std::vector<Row> rows;
  rows.reserve(alive_.size());
  for (const std::uint32_t fi : alive_) {
    const Flight& f = flights_[fi];
    const std::int64_t i = processed(f);
    Row row{HopEvent{f.anchor_at + delay_ * i, f.node_at(i), f.packet}, f.key};
    row.ev.packet.ttl -= static_cast<int>(i);
    row.ev.packet.hops_taken += static_cast<int>(i);
    rows.push_back(row);
  }
  // Ring order: by arrival tick, FIFO within it.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.ev.at != b.ev.at) return a.ev.at < b.ev.at;
    return a.key < b.key;
  });
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(row.ev);
  return out;
}

}  // namespace bgpsim::fwd
