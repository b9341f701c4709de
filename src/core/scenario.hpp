// Scenario description: what to build, what to break, what to measure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/config.hpp"
#include "fwd/traffic.hpp"
#include "metrics/trace.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "topo/internet.hpp"

namespace bgpsim::check {
class Oracle;
}  // namespace bgpsim::check

namespace bgpsim::snap {
class Snapshot;
}  // namespace bgpsim::snap

namespace bgpsim::core {

/// Topology families from the paper's evaluation (§4.1), plus the
/// Internet-scale families added for the policy-routing study.
enum class TopologyKind {
  kClique,    // Figure 3(a); size = node count
  kBClique,   // Figure 3(b); size = n, node count = 2n
  kChain,     // used in unit/analysis scenarios
  kRing,
  kInternet,  // Internet-like generator; size = node count
  kAsGraph,   // scaled AS-relationship generator (1k-75k); size = node count
  kRelFile,   // CAIDA AS-relationship file; size derived from the file
};

/// An enumerator with its scenario-file key and its label.
template <typename E>
struct Named {
  E value;
  std::string_view key;
  const char* label = nullptr;
};

inline constexpr Named<TopologyKind> kTopologyKinds[] = {
    {TopologyKind::kClique, "clique", "Clique"},
    {TopologyKind::kBClique, "bclique", "B-Clique"},
    {TopologyKind::kChain, "chain", "Chain"},
    {TopologyKind::kRing, "ring", "Ring"},
    {TopologyKind::kInternet, "internet", "Internet"},
    {TopologyKind::kAsGraph, "asgraph", "AS-Graph"},
    {TopologyKind::kRelFile, "relfile", "RelFile"},
};

/// The label of `v` in `names`, or "?".
template <typename E, std::size_t N>
[[nodiscard]] constexpr const char* label_of(const Named<E> (&names)[N], E v) {
  for (const Named<E>& named : names) {
    if (named.value == v) return named.label;
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(TopologyKind k) {
  return label_of(kTopologyKinds, k);
}

/// Kinds whose generator/loader supplies business relationships, i.e. the
/// kinds a policy_routing scenario may use.
[[nodiscard]] constexpr bool policy_capable(TopologyKind k) {
  return k == TopologyKind::kInternet || k == TopologyKind::kAsGraph ||
         k == TopologyKind::kRelFile;
}

/// Kinds built by a seeded generator (trial sweeps advance topo_seed so
/// each trial sees a fresh graph; kRelFile is fixed input, so it does not
/// belong here).
[[nodiscard]] constexpr bool generated_topology(TopologyKind k) {
  return k == TopologyKind::kInternet || k == TopologyKind::kAsGraph;
}

struct TopologySpec {
  TopologyKind kind = TopologyKind::kClique;
  std::size_t size = 10;
  /// Seed for generated (Internet / AS-Graph) topologies; ignored by the
  /// regular families and by kRelFile.
  std::uint64_t topo_seed = 1;
  /// CAIDA AS-relationship file path; required iff kind == kRelFile.
  std::string rel_file;

  [[nodiscard]] net::Topology build() const;
  /// Topology plus relationship table, for the policy-capable kinds.
  /// Throws std::invalid_argument for kinds without relationships.
  [[nodiscard]] topo::AnnotatedTopology build_annotated() const;
  [[nodiscard]] std::string label() const;
};

/// The two topology-change events of §4.1, plus the Tup recovery event
/// from the Griffin/Premore methodology the paper builds on (used by the
/// ablation benches: route *announcement* carries no obsolete state, so it
/// should not loop — the paper's loop mechanism is failure-asymmetric).
enum class EventKind {
  /// The destination AS withdraws the prefix; the rest of the network
  /// converges to "unreachable". (Links stay up — the origin's withdrawal
  /// is a routing event, exactly as in the Griffin/Premore methodology the
  /// paper follows.)
  kTdown,
  /// A physical link fails without disconnecting the destination; the
  /// network converges to longer paths.
  kTlong,
  /// The destination AS announces a fresh prefix into a quiet network.
  kTup,
  /// A link fails and comes back Scenario::flap_interval later — the
  /// Tlong failure followed by its recovery, in one run. Exercises the
  /// session-restore paths (fresh table exchange, MRAI clock restarts).
  kFlap,
};

inline constexpr Named<EventKind> kEventKinds[] = {
    {EventKind::kTdown, "tdown", "Tdown"},
    {EventKind::kTlong, "tlong", "Tlong"},
    {EventKind::kTup, "tup", "Tup"},
    {EventKind::kFlap, "flap", "Flap"},
};

[[nodiscard]] constexpr const char* to_string(EventKind e) {
  return label_of(kEventKinds, e);
}

/// Mid-run serialize/deserialize probe (fault injection for the snapshot
/// subsystem itself). kNoop schedules the probe event but does nothing in
/// it — the control run; kVerify saves, restores in place, re-saves, and
/// fails the run if the bytes differ. Both schedule the *same* event so a
/// kNoop and a kVerify run replay identically when the codec is correct.
enum class SnapRoundtrip { kOff, kNoop, kVerify };

/// The fields every driver's scenario shares (Scenario for BGP, DvScenario
/// and LsScenario for the baselines): what to build, what to break, the
/// substrate's delays and traffic, the run's timing and its checkpoint
/// hooks. core/scenario_fields.hpp describes each value field once.
struct ScenarioBase {
  TopologySpec topology;
  EventKind event = EventKind::kTdown;

  net::ProcessingDelay processing; // default U[0.1 s, 0.5 s] (§4.2)
  fwd::TrafficConfig traffic;      // default 10 pkt/s, TTL 128 (§4.2)

  /// Root seed: drives jitter, processing delays, traffic stagger, and the
  /// destination / failed-link choice on Internet topologies.
  std::uint64_t seed = 1;

  /// Destination AS. Default: node 0 for Clique/B-Clique/Chain/Ring (the
  /// paper's convention); a random lowest-degree node for Internet.
  std::optional<net::NodeId> destination;

  /// The link Tlong fails. Default: B-Clique's [0, n] link; for Internet, a
  /// random link of the destination that does not disconnect it.
  /// (kFlap fails and restores the same link.)
  std::optional<net::LinkId> tlong_link;

  /// Traffic begins this long before the event so loops forming at the
  /// event instant already see packets.
  sim::SimTime traffic_lead = sim::SimTime::seconds(2);

  /// Idle gap between initial convergence (fully drained) and the event.
  sim::SimTime settle_margin = sim::SimTime::seconds(5);

  /// Safety cap on total simulated time; exceeded => runtime_error.
  sim::SimTime max_sim_time = sim::SimTime::seconds(50000);

  /// When set, the run writes a checkpoint of the fully converged prelude
  /// (immediately before traffic/event scheduling) into *save_converged.
  snap::Snapshot* save_converged = nullptr;

  /// When set, the run skips the initial convergence phase and restores
  /// the network from this checkpoint instead (warm start). The snapshot's
  /// metadata must match this scenario (topology/config/seed/destination);
  /// mismatches throw std::invalid_argument.
  const snap::Snapshot* warm_start = nullptr;

  /// Mid-run save/restore probe; see SnapRoundtrip.
  SnapRoundtrip snap_roundtrip = SnapRoundtrip::kOff;

  /// Probe offset after the event injection time.
  sim::SimTime snap_roundtrip_after = sim::SimTime::seconds(5);
};

struct Scenario : ScenarioBase {
  bgp::BgpConfig bgp;  // MRAI, jitter, enhancement flags

  /// Run with Gao-Rexford policy routing (prefer-customer import,
  /// no-valley export) instead of the paper's shortest-path policy.
  /// Requires a policy-capable topology kind (Internet, AS-Graph, or a
  /// relationship file — they supply the business relationships). See
  /// bench/ablation_policy and bench/headline_policy_scale.
  bool policy_routing = false;

  /// Number of prefixes in the routing table (the full-table workload).
  /// 1 (the default) runs exactly the paper's single-prefix experiment —
  /// every multi-prefix code path is gated off. With P > 1, prefix 0
  /// originates at `destination` and Tdown withdraws *every* prefix the
  /// destination originates (the correlated-failure event); advertisements
  /// and withdrawals leave each origin batched per peer, and receivers run
  /// one decision pass per touched prefix per batch.
  std::size_t prefixes = 1;

  /// Origin ASes for prefixes 1..P-1, applied cycled (prefix i ≥ 1
  /// originates at origins[(i-1) % origins.size()]). Empty: every prefix
  /// originates at `destination` (the fully correlated full table).
  std::vector<net::NodeId> origins;

  /// How long a kFlap failure lasts before the link is restored.
  sim::SimTime flap_interval = sim::SimTime::seconds(15);

  /// Optional caller-owned route-change trace sink. When set, the run
  /// records update transmissions, best-path changes, loop formation /
  /// resolution, and the event injection itself (see metrics/trace.hpp).
  metrics::TraceRecorder* trace = nullptr;

  /// Optional caller-owned invariant oracle (check/oracle.hpp). When set,
  /// the run arms it, feeds it every speaker/FIB event, and checks the
  /// converged state against the offline reference at quiescence. The
  /// caller inspects oracle->ok() / violations() afterwards.
  check::Oracle* oracle = nullptr;

  [[nodiscard]] std::string label() const;
};

}  // namespace bgpsim::core
