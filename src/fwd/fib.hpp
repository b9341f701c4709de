// Forwarding Information Base: per-node next-hop table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/types.hpp"
#include "snap/codec.hpp"

namespace bgpsim::fwd {

/// The data plane's feed of route changes: told the owning node and the
/// prefix of every change to the FIBs it listens to. Kept apart from the
/// observers, which set_observer replaces wholesale.
class FibListener {
 public:
  virtual void on_route_change(net::NodeId node, net::Prefix prefix) = 0;

 protected:
  ~FibListener() = default;
};

/// One node's next-hop table, written by the routing protocol and read by
/// the data plane on every packet hop.
///
/// An observer hook reports changes; the metrics loop detector uses it to
/// maintain the global next-hop graph.
class Fib {
 public:
  using Observer = std::function<void(net::Prefix prefix,
                                      std::optional<net::NodeId> previous,
                                      std::optional<net::NodeId> current)>;

  /// Install (or replace) the next hop for `prefix`. Returns true if the
  /// entry changed.
  bool set_next_hop(net::Prefix prefix, net::NodeId next_hop);

  /// Remove the route for `prefix`. Returns true if an entry was removed.
  bool clear_route(net::Prefix prefix);

  [[nodiscard]] std::optional<net::NodeId> next_hop(net::Prefix prefix) const;

  [[nodiscard]] std::size_t route_count() const { return routes_.size(); }

  /// Monotonic counter bumped by every route change (a no-op write keeps
  /// it still). Readers — the data plane's decision cache — compare
  /// stamps; the value is a process-local cache artifact and is never
  /// serialized.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Replace every observer with `obs` (the historical single-observer
  /// behaviour — metrics::LoopDetector::attach relies on it).
  void set_observer(Observer obs) {
    observers_.clear();
    observers_.push_back(std::move(obs));
  }

  /// Subscribe in addition to the observers already installed.
  void add_observer(Observer obs) { observers_.push_back(std::move(obs)); }

  /// Attach the (non-owning) change listener, naming this FIB's node; null
  /// detaches. One listener per FIB.
  void set_listener(FibListener* listener, net::NodeId node) {
    listener_ = listener;
    listener_node_ = node;
  }

  /// Checkpoint the route table (sorted by prefix for determinism).
  void save_state(snap::Writer& w) const;

  /// Restore by *reconciling*: install every checkpointed entry and clear
  /// every entry absent from the checkpoint, all through the normal
  /// set_next_hop / clear_route paths so observers (loop detector, oracle)
  /// rebuild their mirrors. Restoring a state identical to the current one
  /// therefore notifies nobody — the property the in-place round-trip
  /// probes rely on.
  void restore_state(snap::Reader& r);

 private:
  void notify(net::Prefix prefix, std::optional<net::NodeId> previous,
              std::optional<net::NodeId> current) const;

  std::unordered_map<net::Prefix, net::NodeId> routes_;
  std::vector<Observer> observers_;
  FibListener* listener_ = nullptr;
  net::NodeId listener_node_ = net::kInvalidNode;
  /// Starts above 0 so a zero-initialized cache stamp can never validate.
  std::uint64_t version_ = 1;
  /// One-entry lookup cache. The data plane asks for the same (single)
  /// prefix on every packet hop; this skips the hash probe. Mutators keep
  /// it coherent, so it is invisible to observers and checkpoints.
  mutable net::Prefix hot_prefix_ = 0;
  mutable net::NodeId hot_next_hop_ = net::kInvalidNode;
  mutable bool hot_valid_ = false;
};

}  // namespace bgpsim::fwd
