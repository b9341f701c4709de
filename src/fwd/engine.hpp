// Hop-by-hop data-plane forwarding.
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

/// In-flight hop store backend. kRings, the engine's store, keeps packets
/// in flat per-arrival-tick FIFO rings; kHeap is the (time, seq)
/// binary-heap reference that only the differential tests and
/// microbenchmarks construct. Pop order, seq assignment, bridge arming,
/// and trial digests are bit-identical either way.
enum class PlaneBackend : std::uint8_t { kHeap = 0, kRings = 1 };

/// Construction-time configuration of a DataPlane.
struct DataPlaneOptions {
  /// Dense prefix-indexed destination table: packets for prefix p
  /// terminate at destinations[p]. net::kInvalidNode marks a hole (no
  /// destination registered for that prefix).
  std::vector<net::NodeId> destinations;
  /// Hop-store backend. Only the differential tests and microbenchmarks
  /// set kHeap.
  PlaneBackend backend = PlaneBackend::kRings;

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

/// Forwards packets hop by hop against the per-node FIBs.
///
/// Per the study: no nodal delay for data packets (slow packet rate keeps
/// queueing negligible), one TTL decrement per AS hop, 2 ms per link.
///
/// Because a scenario moves millions of packet hops, the engine keeps its
/// own store of in-flight hop events and surfaces only the earliest one
/// to the shared Simulator through its external event slot ("bridge").
/// The slot draws its FIFO tie-break seq from the simulator's counter, so
/// firing order against control-plane events is identical to scheduling a
/// real event. Two interchangeable stores exist (PlaneBackend): the ring
/// store, used by every run, appends each hop to the FIFO ring of its
/// arrival tick (O(1), no percolation) and drains whole tick cohorts in
/// order; the heap store is the per-event reference the differential
/// tests replay against it. Forwarding decisions are served from a
/// (node, prefix) cache stamp-validated against the FIB and topology
/// version counters, so the full FIB/link lookup runs once per routing
/// change instead of once per hop. Both stores reproduce the same
/// bridge-arming sequence (including the heap's re-arm-at-now while due
/// packets remain), so events_fired and every digest are bit-identical
/// across backends.
class DataPlane {
 public:
  DataPlane(sim::Simulator& simulator, const net::Topology& topology,
            std::vector<Fib>& fibs, DataPlaneOptions options);

  /// Attach the (non-owning) terminal-fate consumer: one on_fates call
  /// per drained tick. Null detaches.
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
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Checkpoint the hop store, id/seq counters, packet counters, and the
  /// bridge bookkeeping. Events are written in ascending (at, seq) order,
  /// so the bytes are identical under either backend (snapshots are
  /// backend-portable both ways).
  void save_state(snap::Writer& w) const;

  /// Inverse of save_state, replacing the hop-store contents. Valid in
  /// place (the bridge closure, if armed, is still scheduled and
  /// unchanged) or into a fresh plane restored at quiescence (empty
  /// store, bridge unarmed).
  void restore_state(snap::Reader& r);

 private:
  struct HopEvent {
    sim::SimTime at;
    std::uint64_t seq;  // FIFO tie-break
    net::NodeId node;   // packet is arriving at this node
    Packet packet;
    friend bool operator>(const HopEvent& a, const HopEvent& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// All packets arriving at one exact timestamp, in push (= seq) order.
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

  void arrive(net::NodeId node, Packet packet);
  Decision decide(net::NodeId node, net::Prefix prefix) const;
  const Decision& cached_decide(net::NodeId node, net::Prefix prefix) const;
  void finish(const Packet& p, PacketFate fate, net::NodeId where);
  void flush_fates();
  void push_hop(sim::SimTime at, net::NodeId node, Packet packet);
  std::vector<HopEvent> pooled_items();
  void ring_insert(HopEvent ev);
  [[nodiscard]] const sim::SimTime* next_pending_at() const;
  void rearm();
  void drain_due();

  sim::Simulator& sim_;
  const net::Topology& topo_;
  std::vector<Fib>& fibs_;
  std::vector<net::NodeId> destinations_;  // prefix-indexed, dense
  FateSink* sink_ = nullptr;
  std::vector<FateRecord> batch_;  // fates of the current tick

  PlaneBackend backend_;
  std::priority_queue<HopEvent, std::vector<HopEvent>, std::greater<>> heap_;
  std::deque<TickRing> rings_;
  /// Retired cohort storage, recycled so the steady-state ring insert
  /// never allocates (cohorts are frequently size 1 — every fresh vector
  /// would otherwise be a malloc per hop).
  std::vector<std::vector<HopEvent>> ring_pool_;
  /// (node × prefix) decision cache, stamp-validated against the FIB and
  /// topology version counters; sized on first use, so a plane that never
  /// forwards (a converging prelude) never allocates it. Shared by both
  /// backends, so it cannot skew the differential tests.
  mutable std::vector<CachedDecision> cache_;
  mutable std::size_t cache_stride_ = 0;  // == destinations_.size()

  std::uint64_t next_seq_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::size_t in_flight_ = 0;
  Counters counters_;

  bool bridge_armed_ = false;
  sim::SimTime bridge_time_;
};

}  // namespace bgpsim::fwd
