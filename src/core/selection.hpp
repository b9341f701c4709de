// Destination / failed-link selection shared by the experiment drivers
// (path vector and the distance-vector and link-state baselines).
#pragma once

#include <optional>

#include "core/scenario.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"

namespace bgpsim::core {

/// Does removing `link` keep the graph connected?
[[nodiscard]] bool removal_keeps_connected(net::Topology& topo,
                                           net::LinkId link);

/// Pick the destination AS: the fixed choice if given; node 0 for regular
/// families; a random lowest-degree node for Internet topologies (for
/// Tlong, one that can lose a link without disconnecting).
[[nodiscard]] net::NodeId choose_destination(
    TopologyKind kind, EventKind event, std::optional<net::NodeId> fixed,
    net::Topology& topo, sim::Rng& rng);

/// Pick the link Tlong fails: the fixed choice if given; the B-Clique's
/// direct [0, n] attachment; otherwise a connectivity-preserving link of
/// the destination, biased to its primary (highest-degree) provider.
[[nodiscard]] net::LinkId choose_tlong_link(TopologyKind kind,
                                            std::size_t size,
                                            std::optional<net::LinkId> fixed,
                                            net::Topology& topo,
                                            net::NodeId destination,
                                            sim::Rng& rng);

/// What a run breaks: the destination AS and, for Tlong and Flap, the
/// link that fails.
struct Targets {
  net::NodeId destination = net::kInvalidNode;
  std::optional<net::LinkId> failed_link;
};

/// choose_destination, then choose_tlong_link for a link event, both on
/// the run's "scenario" stream of `root`. `S` is any scenario type.
template <typename S>
[[nodiscard]] Targets choose_targets(const S& s, net::Topology& topo,
                                     const sim::Rng& root) {
  sim::Rng rng = root.child("scenario");
  Targets t;
  t.destination =
      choose_destination(s.topology.kind, s.event, s.destination, topo, rng);
  if (s.event == EventKind::kTlong || s.event == EventKind::kFlap) {
    t.failed_link = choose_tlong_link(s.topology.kind, s.topology.size,
                                      s.tlong_link, topo, t.destination, rng);
  }
  return t;
}

}  // namespace bgpsim::core
