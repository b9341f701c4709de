// Data-plane forwarding: packets fast-forwarded over stable forwarding
// state, with a hop-by-hop ring store as the reference and fallback.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "fwd/fib.hpp"
#include "fwd/packet.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::fwd {

/// How a DataPlane moves packets. kFastForward, the engine's choice,
/// predicts each packet's whole trajectory and fires only its terminal
/// fate; kRings steps every hop through per-arrival-tick FIFO rings and is
/// the reference the differential tests replay against it. Fates, fate
/// order, counters, the clock at each control event and save_state bytes
/// are identical either way; the simulator's events_fired is not.
enum class PlaneBackend : std::uint8_t { kRings = 1, kFastForward = 2 };

/// Construction-time configuration of a DataPlane.
struct DataPlaneOptions {
  /// Dense prefix-indexed destination table: packets for prefix p
  /// terminate at destinations[p]. net::kInvalidNode marks a hole (no
  /// destination registered for that prefix).
  std::vector<net::NodeId> destinations;
  /// Forwarding backend. Only the differential tests and microbenchmarks
  /// set kRings.
  PlaneBackend backend = PlaneBackend::kFastForward;

  /// The study's setting: one prefix (0), one destination.
  [[nodiscard]] static DataPlaneOptions single(net::NodeId destination) {
    DataPlaneOptions o;
    o.destinations.push_back(destination);
    return o;
  }
};

/// One packet origination request — the single inject() entry point.
struct Injection {
  net::NodeId source = net::kInvalidNode;
  net::Prefix prefix = 0;
  int ttl = kDefaultTtl;
};

/// Forwards packets against the per-node FIBs.
///
/// Per the study: no nodal delay for data packets (slow packet rate keeps
/// queueing negligible), one TTL decrement per AS hop, 2 ms per link.
///
/// The reference model is hop by hop. Every in-flight hop sits in a FIFO
/// ring of its arrival tick, and the plane surfaces only the earliest tick
/// to the shared Simulator through its external slot (the "bridge"). The
/// slot draws its tie-break seq from the simulator's counter when it is
/// armed (at the preceding drain, or by an injection into an idle plane),
/// so a control event due at the same microsecond as a tick runs first
/// exactly when it was scheduled before that arming.
///
/// events_fired counts real handler firings, so it depends on the backend:
/// the ring store fires the bridge once per hop-arrival instant (and once
/// more per same-instant re-arm), fast-forward only at the instants it
/// wakes for. It sits outside every digest.
///
/// Fast-forward reproduces that model without stepping it. A packet's path
/// depends only on the forwarding state, and a loop lasts until one of its
/// members changes route, so between two changes a packet's fate is
/// already decided. On injection, and whenever a FIB entry (FibListener
/// feed) or a link changes under its predicted remaining path, the plane
/// walks the (node, prefix) decision cache from the packet's exact
/// position until it is delivered, dropped, or revisits a node; a revisit
/// jumps whole cycles to the TTL-exhaustion node and instant. Only
/// terminal instants do work.
///
/// Fates stay exact because of the lockstep invariant: when every link has
/// the same delay D (every generator and loader uses kDefaultLinkDelay),
/// all packets whose instants agree mod D — a phase — arrive together, so
/// the plane's instants are the lattice points of its live phase offsets.
/// A phase's packets keep their ring FIFO order (an injection joins its
/// phase in front of a cohort whose drain is still pending, else at the
/// back). The tie rule carries over because the bridge still fires at the
/// plane's first instant after each control event and, from there, arms
/// the first instant at or after the next queued event. Its seq is drawn
/// where the ring store's would be, relative to every other seq; the
/// instants in between draw none, which shifts later seqs uniformly and
/// changes no (time, seq) comparison. A topology with mixed link delays, or a state
/// the invariant cannot describe (a restore the live simulator does not
/// match, a clear_pending under packets in flight), falls back to the ring
/// store until the plane is idle again.
class DataPlane final : private FibListener {
 public:
  DataPlane(sim::Simulator& simulator, const net::Topology& topology,
            std::vector<Fib>& fibs, DataPlaneOptions options);
  ~DataPlane();
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Attach the (non-owning) terminal-fate consumer: one on_fates call
  /// per terminal instant. Null detaches. The sink must not schedule
  /// events.
  void set_fate_sink(FateSink* sink) { sink_ = sink; }

  /// Originate a fresh packet; returns its id. The injection's prefix
  /// must have a registered destination.
  std::uint64_t inject(const Injection& injection);

  [[nodiscard]] PlaneBackend backend() const { return backend_; }

  /// Packets created but not yet terminated.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  struct Counters {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t ttl_exhausted = 0;
    std::uint64_t no_route = 0;
    std::uint64_t link_down = 0;
    std::uint64_t hops = 0;
    /// Trajectory predictions (fast-forward only; the ring store reports
    /// 0). Not serialized.
    std::uint64_t segments = 0;
    /// Predictions redone because a route or link change crossed a
    /// predicted remaining path. Not serialized.
    std::uint64_t repredictions = 0;
  };
  [[nodiscard]] const Counters& counters() const;

  /// Checkpoint the in-flight hops, the packet-id counter, packet counters,
  /// and the bridge bookkeeping. Hops are written in ring order (arrival
  /// tick, then FIFO), so the bytes are identical under either backend.
  void save_state(snap::Writer& w) const;

  /// Inverse of save_state, replacing the in-flight contents. Valid in
  /// place (the bridge, if armed, is still scheduled and unchanged) or
  /// into a fresh plane restored at quiescence (nothing in flight, bridge
  /// unarmed).
  void restore_state(snap::Reader& r);

 private:
  struct HopEvent {
    sim::SimTime at;
    net::NodeId node;  // packet is arriving at this node
    Packet packet;
  };

  /// All packets arriving at one exact timestamp, in push (FIFO) order.
  /// head marks the next undelivered packet during a drain.
  struct TickRing {
    sim::SimTime at;
    std::size_t head = 0;
    std::vector<HopEvent> items;
  };

  /// One routing decision for a (node, prefix) pair.
  struct Decision {
    enum class Kind : std::uint8_t { kDeliver, kNoRoute, kLinkDown, kForward };
    Kind kind = Kind::kNoRoute;
    net::NodeId next_hop = net::kInvalidNode;
    sim::SimTime delay;
  };

  /// A memoized Decision, valid while the owning node's FIB version and
  /// the topology's state version both still match. Zero stamps (the
  /// fresh-cache state) can never validate — both counters start at 1.
  struct CachedDecision {
    std::uint64_t fib_stamp = 0;
    std::uint64_t topo_stamp = 0;
    Decision d;
  };

  /// A fast-forwarded packet: its state on arrival at the anchor (the
  /// first arrival its prediction covers) and the predicted trajectory.
  /// Arrival i after the anchor is at anchor_at + i·D at node_at(i), with
  /// TTL packet.ttl − i and hop count packet.hops_taken + i; the packet
  /// forwards at arrivals 0..terminal−1 and meets `fate` at `terminal`.
  struct Flight {
    Packet packet;
    sim::SimTime anchor_at;
    std::int64_t key = 0;         // FIFO rank within its phase
    std::uint32_t gen = 0;        // invalidates stale terminal-heap entries
    std::uint32_t alive_pos = 0;  // index in alive_
    std::uint32_t phase_pos = 0;  // index in its phase's members
    std::vector<net::NodeId> path;  // arrivals 0.. up to a revisit or the end
    std::uint32_t cycle = 0;        // path index the revisit re-enters
    bool cyclic = false;
    std::int64_t terminal = 0;
    PacketFate fate = PacketFate::kDelivered;
    net::NodeId where = net::kInvalidNode;

    [[nodiscard]] net::NodeId node_at(std::int64_t i) const;
  };

  /// The live packets whose arrival instants agree mod D; they arrive
  /// together.
  struct Phase {
    std::vector<std::uint32_t> members;  // flights, unordered
    std::int64_t back_key = 0;           // next key at the back
    std::int64_t min_key = 0;            // lowest key handed out
    sim::SimTime front_at = sim::SimTime::infinity();  // front block's tick
    std::int64_t front_next = 0;         // next key in the front block
  };

  struct Terminal {
    sim::SimTime at;
    std::uint32_t flight;
    std::uint32_t gen;
    friend bool operator>(const Terminal& a, const Terminal& b) {
      return a.at > b.at;
    }
  };

  // ---- shared ----
  /// The fate a non-forwarding decision deals.
  static PacketFate fate_of(Decision::Kind kind);
  Decision decide(net::NodeId node, net::Prefix prefix) const;
  const Decision& cached_decide(net::NodeId node, net::Prefix prefix) const;
  void record_fate(const Packet& p, PacketFate fate, net::NodeId where,
                   sim::SimTime when);
  void flush_fates();
  void on_bridge();
  void arm(sim::SimTime at);
  /// The in-flight hops as the ring store holds them: by arrival tick,
  /// FIFO within one.
  [[nodiscard]] std::vector<HopEvent> pending_hops() const;

  // ---- ring store ----
  void arrive(net::NodeId node, Packet packet);
  void push_hop(sim::SimTime at, net::NodeId node, Packet packet);
  std::vector<HopEvent> pooled_items();
  void ring_insert(HopEvent ev);
  [[nodiscard]] const sim::SimTime* next_pending_at() const;
  void rearm();
  void drain_due();

  // ---- fast-forward ----
  void on_route_change(net::NodeId node, net::Prefix prefix) override;
  [[nodiscard]] bool uniform_delay();
  bool enter_fast_forward();
  void fall_back_to_rings();
  [[nodiscard]] bool sync();
  void clear_dirty();
  void ff_inject(Packet p);
  void ff_bridge();
  std::uint32_t ff_add(const Packet& p, sim::SimTime at, bool front);
  void predict(std::uint32_t f, net::NodeId start);
  void reanchor(std::uint32_t f);
  bool drain_instant(sim::SimTime t);
  /// The first instant of a live phase after time c.
  [[nodiscard]] sim::SimTime instant_after(sim::SimTime c) const;
  [[nodiscard]] std::int64_t processed(const Flight& f) const;
  [[nodiscard]] std::int64_t offset_of(sim::SimTime t) const;
  [[nodiscard]] std::int64_t div_delay(std::int64_t t) const;
  [[nodiscard]] Phase* find_phase(std::int64_t offset);
  Phase& open_phase(std::int64_t offset, bool& fresh);
  void close_phase(std::int64_t offset);
  [[nodiscard]] const Terminal* next_terminal();
  [[nodiscard]] std::uint64_t ff_hops() const;
  void ff_reset(sim::SimTime cursor);

  sim::Simulator& sim_;
  const net::Topology& topo_;
  std::vector<Fib>& fibs_;
  std::vector<net::NodeId> destinations_;  // prefix-indexed, dense
  FateSink* sink_ = nullptr;
  std::vector<FateRecord> batch_;  // fates of the current instant

  PlaneBackend backend_;
  bool ff_ = false;  // fast-forward mode (else the ring store is live)
  std::deque<TickRing> rings_;
  /// Retired cohort storage, recycled so the steady-state ring insert
  /// never allocates (cohorts are frequently size 1 — every fresh vector
  /// would otherwise be a malloc per hop).
  std::vector<std::vector<HopEvent>> ring_pool_;
  /// (node × prefix) decision cache, stamp-validated against the FIB and
  /// topology version counters; sized on first use, so a plane that never
  /// forwards (a converging prelude) never allocates it.
  mutable std::vector<CachedDecision> cache_;
  mutable std::size_t cache_stride_ = 0;  // == destinations_.size()

  // Fast-forward state. The cursor is the last processed instant: every
  // arrival at or before it has happened, none after it.
  sim::SimTime delay_;                 // the common link delay D
  std::uint64_t delay_magic_ = 0;      // ceil(2^64 / D): divide by multiply
  std::uint64_t delay_stamp_ = 0;      // topology version delay_ was read at
  bool delay_uniform_ = false;
  sim::SimTime cursor_;
  std::vector<Flight> flights_;
  std::vector<std::uint32_t> free_flights_;
  std::vector<std::uint32_t> alive_;
  /// Phases by offset mod D: phase_of_[offset] indexes phase_pool_
  /// (kNoPhase while nothing of that offset is in flight). Sized D on first
  /// use, so D is capped (kMaxFastForwardDelay).
  std::vector<std::uint32_t> phase_of_;
  std::vector<Phase> phase_pool_;
  std::vector<std::uint32_t> free_phases_;
  /// Sorted offsets of the phases with packets in flight: their lattice
  /// points are the plane's instants (bridge drains).
  std::vector<std::int64_t> live_;
  /// The armed bridge is the ring store's re-arm at cursor_, already
  /// drained: a drain that forwards a packet while others of its cohort
  /// are still due re-arms the bridge at that same instant, and the
  /// re-arm's seq orders it after control events already queued there.
  bool refire_pending_ = false;
  std::priority_queue<Terminal, std::vector<Terminal>, std::greater<>>
      terminals_;
  std::uint64_t hops_base_ = 0;  // hops settled outside live predictions
  // Change feed: (node, prefix) marks since the last sync.
  std::vector<std::uint32_t> dirty_mark_;  // node × prefix, == dirty_epoch_
  std::uint32_t dirty_epoch_ = 1;
  bool dirty_ = false;
  std::uint64_t topo_stamp_ = 0;
  std::vector<std::uint32_t> live_per_prefix_;
  std::vector<std::uint32_t> visit_mark_;  // per node, == walk_epoch_
  std::vector<std::uint32_t> visit_index_;
  std::uint32_t walk_epoch_ = 0;
  std::vector<std::uint32_t> due_;  // scratch: flights ending this instant

  std::uint64_t next_packet_id_ = 1;
  std::size_t in_flight_ = 0;
  mutable Counters counters_;

  bool bridge_armed_ = false;
  sim::SimTime bridge_time_;
};

}  // namespace bgpsim::fwd
