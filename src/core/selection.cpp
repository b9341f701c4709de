#include "core/selection.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "topo/generators.hpp"
#include "topo/internet.hpp"

namespace bgpsim::core {

/// Does removing `link` keep the graph connected?
bool removal_keeps_connected(net::Topology& topo, net::LinkId link) {
  topo.set_link_state(link, false);
  const bool ok = topo.connected();
  topo.set_link_state(link, true);
  return ok;
}

net::NodeId choose_destination(TopologyKind kind, EventKind event,
                               std::optional<net::NodeId> fixed,
                               net::Topology& topo, sim::Rng& rng) {
  if (fixed) return *fixed;
  if (!policy_capable(kind)) return 0;

  const bool needs_failable_link =
      survivable_destination(kind, event, /*fixed=*/false);

  // Internet-scale kinds: the exhaustive survivability filter below runs a
  // BFS per candidate link and a full-graph widening pass — fine at the
  // paper's 110 nodes, far too slow at 10k-75k. Sample candidates of the
  // lowest multi-homed degree instead and verify only the sampled ones.
  if (kind != TopologyKind::kInternet && needs_failable_link) {
    std::size_t min_d2 = SIZE_MAX;
    for (net::NodeId n = 0; n < topo.node_count(); ++n) {
      const std::size_t d = topo.degree(n);
      if (d >= 2 && d < min_d2) min_d2 = d;
    }
    std::vector<net::NodeId> candidates;
    for (net::NodeId n = 0; n < topo.node_count(); ++n) {
      if (topo.degree(n) == min_d2) candidates.push_back(n);
    }
    for (int attempt = 0; attempt < 64 && !candidates.empty(); ++attempt) {
      const net::NodeId n = candidates[rng.next_below(candidates.size())];
      for (net::LinkId l : topo.links_of(n)) {
        if (removal_keeps_connected(topo, l)) return n;
      }
    }
    throw std::runtime_error{"no Tlong-capable destination found by sampling"};
  }

  // Paper: destination "randomly chosen among the nodes with the lowest
  // degrees". For Tlong (and Flap, which is a Tlong plus recovery) the
  // chosen node must survive losing one link.
  std::vector<net::NodeId> candidates = topo::lowest_degree_nodes(topo);
  if (needs_failable_link) {
    std::erase_if(candidates, [&](net::NodeId n) {
      if (topo.degree(n) < 2) return true;
      for (net::LinkId l : topo.links_of(n)) {
        if (removal_keeps_connected(topo, l)) return false;
      }
      return true;
    });
    if (candidates.empty()) {
      // No lowest-degree node qualifies; widen to any qualifying node,
      // preferring low degree.
      std::vector<net::NodeId> all;
      for (net::NodeId n = 0; n < topo.node_count(); ++n) {
        if (topo.degree(n) < 2) continue;
        for (net::LinkId l : topo.links_of(n)) {
          if (removal_keeps_connected(topo, l)) {
            all.push_back(n);
            break;
          }
        }
      }
      if (all.empty()) {
        throw std::runtime_error{"no Tlong-capable destination in topology"};
      }
      std::ranges::sort(all, [&](net::NodeId a, net::NodeId b) {
        return topo.degree(a) < topo.degree(b);
      });
      const std::size_t lowest = topo.degree(all.front());
      std::erase_if(all,
                    [&](net::NodeId n) { return topo.degree(n) != lowest; });
      candidates = std::move(all);
    }
  }
  return candidates[rng.next_below(candidates.size())];
}

net::LinkId choose_tlong_link(TopologyKind kind, std::size_t size,
                              std::optional<net::LinkId> fixed,
                              net::Topology& topo, net::NodeId destination,
                              sim::Rng& rng) {
  if (fixed) return *fixed;
  if (kind == TopologyKind::kBClique) {
    return topo::bclique_tlong_link(topo, size);
  }
  // Paper (Internet topologies): "one of its links is randomly chosen to
  // fail" — restricted to links whose removal keeps the graph connected.
  // We bias toward the destination's *primary* provider (highest degree):
  // failing a pure backup link triggers no reconvergence at all, and the
  // paper's averages are dominated by the failures that do.
  std::vector<net::LinkId> usable;
  for (net::LinkId l : topo.links_of(destination)) {
    if (removal_keeps_connected(topo, l)) usable.push_back(l);
  }
  if (usable.empty()) {
    throw std::runtime_error{"destination has no failable link for Tlong"};
  }
  std::ranges::stable_sort(usable, [&](net::LinkId a, net::LinkId b) {
    return topo.degree(topo.link(a).other(destination)) >
           topo.degree(topo.link(b).other(destination));
  });
  // Random among the top-degree ties.
  const std::size_t top_degree =
      topo.degree(topo.link(usable.front()).other(destination));
  std::erase_if(usable, [&](net::LinkId l) {
    return topo.degree(topo.link(l).other(destination)) != top_degree;
  });
  return usable[rng.next_below(usable.size())];
}

void check_scenario(const ScenarioBase& s, const net::Topology& topo) {
  const auto out_of_range = [](const char* key, std::uint32_t v,
                               std::size_t count, const char* unit) {
    throw std::invalid_argument{std::string{key} + " " + std::to_string(v) +
                                " out of range for " + std::to_string(count) +
                                "-" + unit + " topology"};
  };
  if (s.settle_margin <= s.traffic_lead) {
    throw std::invalid_argument{"settle_margin must exceed traffic_lead"};
  }
  const std::size_t nodes = topo.node_count();
  if (s.destination >= nodes) {
    out_of_range("destination", *s.destination, nodes, "node");
  }
  if (s.tlong_link >= topo.link_count()) {
    out_of_range("tlong_link", *s.tlong_link, topo.link_count(), "link");
  }
}

Targets choose_targets(const ScenarioBase& s, net::Topology& topo,
                       const sim::Rng& root) {
  check_scenario(s, topo);
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
