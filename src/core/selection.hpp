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

/// Whether choose_destination must pick a node that survives losing a
/// link: a link event (Tlong, Flap) on a policy-capable topology without a
/// fixed destination. It changes which destination converges, so every
/// driver's prelude hash mixes it.
[[nodiscard]] constexpr bool survivable_destination(TopologyKind kind,
                                                    EventKind event,
                                                    bool fixed) {
  return !fixed && policy_capable(kind) &&
         (event == EventKind::kTlong || event == EventKind::kFlap);
}

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

/// Throws std::invalid_argument naming the key when `s` cannot run on
/// `topo`: its destination or tlong_link is not in it, or its
/// settle_margin does not exceed its traffic_lead.
void check_scenario(const ScenarioBase& s, const net::Topology& topo);

/// check_scenario, then choose_destination and, for a link event,
/// choose_tlong_link, both on the run's "scenario" stream of `root`.
[[nodiscard]] Targets choose_targets(const ScenarioBase& s,
                                     net::Topology& topo,
                                     const sim::Rng& root);

}  // namespace bgpsim::core
