#include "core/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "topo/generators.hpp"
#include "topo/internet.hpp"
#include "topo/io.hpp"

namespace bgpsim::core {

net::Topology TopologySpec::build() const {
  switch (kind) {
    case TopologyKind::kClique:
      return topo::make_clique(size);
    case TopologyKind::kBClique:
      return topo::make_bclique(size);
    case TopologyKind::kChain:
      return topo::make_chain(size);
    case TopologyKind::kRing:
      return topo::make_ring(size);
    case TopologyKind::kInternet:
      return topo::make_internet_preset(size, topo_seed);
    case TopologyKind::kAsGraph:
    case TopologyKind::kRelFile:
      return build_annotated().topology;
  }
  throw std::logic_error{"TopologySpec::build: unknown kind"};
}

topo::AnnotatedTopology TopologySpec::build_annotated() const {
  switch (kind) {
    case TopologyKind::kInternet: {
      topo::InternetParams p;
      p.nodes = size;
      p.seed = topo_seed;
      return topo::make_internet_annotated(p);
    }
    case TopologyKind::kAsGraph: {
      topo::AsGraphParams p;
      p.nodes = size;
      p.seed = topo_seed;
      return topo::make_as_graph(p);
    }
    case TopologyKind::kRelFile: {
      if (rel_file.empty()) {
        throw std::invalid_argument{
            "TopologySpec::build_annotated: kRelFile needs rel_file"};
      }
      auto g = topo::load_as_relationships(rel_file);
      return topo::AnnotatedTopology{std::move(g.topology),
                                     std::move(g.relationships)};
    }
    default:
      throw std::invalid_argument{
          "TopologySpec::build_annotated: topology kind '" +
          std::string{to_string(kind)} + "' has no relationship table"};
  }
}

std::string TopologySpec::label() const {
  if (kind == TopologyKind::kRelFile) {
    // The file decides the node count; name the input instead of a size.
    const auto slash = rel_file.find_last_of('/');
    const auto base =
        slash == std::string::npos ? rel_file : rel_file.substr(slash + 1);
    return std::string{to_string(kind)} + "-" + base;
  }
  return std::string{to_string(kind)} + "-" + std::to_string(size);
}

std::string Scenario::label() const {
  std::string label = topology.label() + " " + to_string(event) + " " +
                      bgp::to_string(bgp.enhancement());
  if (policy_routing) label += " (policy)";
  if (prefixes > 1) label += " x" + std::to_string(prefixes) + "pfx";
  return label;
}

}  // namespace bgpsim::core
