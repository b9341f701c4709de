#include "core/experiment.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bgp/network.hpp"
#include "bgp/path_store.hpp"
#include "check/oracle.hpp"
#include "core/run_options.hpp"
#include "core/run_skeleton.hpp"
#include "core/scenario_fields.hpp"
#include "core/selection.hpp"
#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "net/relationships.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core {

using detail::kPrefix;

std::uint64_t scenario_prelude_hash(const Scenario& scenario) {
  return prelude_hash(scenario, [&scenario](snap::Writer& w) {
    for (const Field<Scenario>& f : bgp_fields()) {
      if (f.phase == Phase::kPrelude) f.write_prelude(w, scenario);
    }
  });
}

ExperimentOutcome run_experiment(const Scenario& scenario) {
  // Per-experiment AS-path interning: every path this run conses —
  // including ones decoded from a warm-start snapshot — lands in one
  // store, so structurally-equal paths are pointer-equal for the run's
  // whole lifetime. Purely a storage decision; outputs are bit-identical
  // with the toggle off (RunOptions::path_interning / BGPSIM_PATH_INTERN).
  std::optional<bgp::PathStore> path_store;
  std::optional<bgp::PathStore::Scope> path_scope;
  if (detail::path_interning_enabled()) {
    path_store.emplace();
    path_scope.emplace(*path_store);
  }

  net::Topology topo;
  net::RelationshipTable relationships;
  if (scenario.policy_routing) {
    if (!policy_capable(scenario.topology.kind)) {
      throw std::invalid_argument{
          "Scenario: policy_routing requires an Internet, AS-Graph, or "
          "relationship-file topology"};
    }
    auto annotated = scenario.topology.build_annotated();
    topo = std::move(annotated.topology);
    relationships = std::move(annotated.relationships);
  } else {
    topo = scenario.topology.build();
  }
  const sim::Rng root{scenario.seed};
  const Targets targets = choose_targets(scenario, topo, root);
  const net::NodeId destination = targets.destination;

  // ---- Multi-prefix table ----------------------------------------------
  // prefix 0 always originates at the destination; prefixes >= 1 cycle
  // over scenario.origins (empty: everything at the destination — the
  // fully correlated full table).
  const std::size_t prefix_count = std::max<std::size_t>(scenario.prefixes, 1);
  const bool multi = prefix_count > 1;
  std::vector<net::NodeId> prefix_origins;
  std::vector<net::Prefix> dest_prefixes;  // originated by the destination
  std::map<net::NodeId, std::vector<net::Prefix>> origin_groups;
  if (multi) {
    prefix_origins.assign(prefix_count, destination);
    for (std::size_t i = 1; i < prefix_count; ++i) {
      if (!scenario.origins.empty()) {
        prefix_origins[i] = scenario.origins[(i - 1) % scenario.origins.size()];
      }
      if (prefix_origins[i] >= topo.node_count()) {
        throw std::invalid_argument{
            "Scenario: prefix origin " + std::to_string(prefix_origins[i]) +
            " is not a node of the topology"};
      }
    }
    for (std::size_t p = 0; p < prefix_count; ++p) {
      origin_groups[prefix_origins[p]].push_back(static_cast<net::Prefix>(p));
      if (prefix_origins[p] == destination) {
        dest_prefixes.push_back(static_cast<net::Prefix>(p));
      }
    }
  }

  sim::Simulator simulator;
  bgp::BgpConfig bgp_config = scenario.bgp;
  if (scenario.policy_routing) bgp_config.policy = &relationships;
  if (multi) bgp_config.multiprefix = true;
  bgp::BgpNetwork network{simulator, topo, bgp_config, scenario.processing,
                          root};
  metrics::Collector collector;
  if (multi) collector.enable_prefix_lanes(prefix_count);
  metrics::TraceRecorder* trace = scenario.trace;
  check::Oracle* oracle = scenario.oracle;
  if (oracle) {
    check::Context ctx{&topo, bgp_config, kPrefix, destination,
                       scenario.policy_routing,
                       scenario.policy_routing ? &relationships : nullptr};
    if (multi) {
      ctx.prefix_count = prefix_count;
      ctx.origins = prefix_origins;
    }
    oracle->arm(ctx);
  }
  bgp::Speaker::Hooks hooks;
  hooks.on_update_sent = [&collector, &simulator, trace, oracle](
                             net::NodeId from, net::NodeId to,
                             const bgp::UpdateMsg& msg) {
    collector.note_update_sent(simulator.now(), msg.is_withdrawal());
    if (trace) {
      trace->record(metrics::TraceEvent{
          simulator.now(), metrics::TraceEventKind::kUpdateSent, from, to,
          msg.prefix, msg.to_string()});
    }
    if (oracle) oracle->on_update_sent(from, to, msg, simulator.now());
  };
  if (trace || oracle) {
    hooks.on_best_changed = [trace, oracle, &simulator](
                                net::NodeId node, net::Prefix prefix,
                                const std::optional<bgp::AsPath>& best) {
      if (trace) {
        trace->record(metrics::TraceEvent{
            simulator.now(), metrics::TraceEventKind::kBestChanged, node,
            net::kInvalidNode, prefix,
            best ? best->to_string() : "(unreachable)"});
      }
      // run_decision updates the FIB before firing this hook, so the
      // oracle's RIB/FIB cross-check sees current state here.
      if (oracle) oracle->on_route_installed(node, prefix, best,
                                             simulator.now());
    };
  }
  if (oracle) {
    hooks.on_update_received = [oracle, &simulator](net::NodeId node,
                                                    net::NodeId from,
                                                    const bgp::UpdateMsg& msg) {
      oracle->on_update_received(node, from, msg, simulator.now());
    };
    hooks.on_session_changed = [oracle, &simulator](net::NodeId node,
                                                    net::NodeId peer, bool up) {
      oracle->on_session_changed(node, peer, up, simulator.now());
    };
    hooks.on_mrai_expired = [oracle, &simulator](net::NodeId node,
                                                 net::NodeId peer,
                                                 net::Prefix prefix,
                                                 bool was_pending) {
      oracle->on_mrai_expired(node, peer, prefix, was_pending,
                              simulator.now());
    };
  }
  network.set_hooks(hooks);

  fwd::DataPlane plane{
      simulator, topo, network.fibs(),
      multi ? fwd::DataPlaneOptions{.destinations = prefix_origins}
            : fwd::DataPlaneOptions::single(destination)};

  // One loop detector per prefix: detector 0 attaches first (replacing any
  // stale FIB observers), the rest subscribe alongside it.
  std::vector<std::unique_ptr<metrics::LoopDetector>> detectors;
  detectors.push_back(
      std::make_unique<metrics::LoopDetector>(topo.node_count()));
  detectors.front()->attach(simulator, network.fibs(), kPrefix);
  for (std::size_t p = 1; p < prefix_count; ++p) {
    detectors.push_back(
        std::make_unique<metrics::LoopDetector>(topo.node_count()));
    detectors.back()->attach_alongside(simulator, network.fibs(),
                                       static_cast<net::Prefix>(p));
  }
  metrics::LoopDetector& detector = *detectors.front();
  // After attach: the detectors replace/extend the FIB observers, the
  // oracle subscribes alongside them.
  if (oracle) oracle->observe_fibs(simulator, network.fibs());
  if (trace) {
    detector.set_observer([trace](const metrics::LoopRecord& r, bool formed) {
      std::string members = "{";
      for (std::size_t i = 0; i < r.members.size(); ++i) {
        if (i) members += ' ';
        members += std::to_string(r.members[i]);
      }
      members += '}';
      trace->record(metrics::TraceEvent{
          formed ? r.formed_at : r.resolved_at.value_or(r.formed_at),
          formed ? metrics::TraceEventKind::kLoopFormed
                 : metrics::TraceEventKind::kLoopResolved,
          net::kInvalidNode, net::kInvalidNode, kPrefix, members});
    });
  }

  fwd::TrafficConfig traffic_config = scenario.traffic;
  if (multi) traffic_config.prefix_count = prefix_count;
  fwd::TrafficGenerator traffic{simulator, plane, traffic_config,
                                root.child("traffic")};

  // ---- Phase 1: cold-start convergence or warm start --------------------
  // (For Tup the network starts empty — the origination *is* the event.)
  const bool prelude_originated = scenario.event != EventKind::kTup;
  detail::RunSkeleton run{scenario, snap::DriverKind::kBgp,
                          scenario_prelude_hash(scenario), destination,
                          simulator, topo, network, plane, traffic, collector,
                          oracle};

  if (!run.warm_start()) {
    if (multi) {
      // Non-destination origins always converge in the prelude (they are
      // background table state); the destination's own prefixes join
      // unless the origination *is* the event (Tup).
      simulator.schedule_at(sim::SimTime::zero(), [&] {
        for (const auto& [origin, group] : origin_groups) {
          if (origin == destination && !prelude_originated) continue;
          network.originate_batch(origin, group);
        }
      });
    } else if (prelude_originated) {
      simulator.schedule_at(sim::SimTime::zero(),
                            [&] { network.originate(destination, kPrefix); });
    }
    simulator.run_until(scenario.max_sim_time);
    if (simulator.pending() > 0 || network.busy()) {
      throw std::runtime_error{"initial convergence exceeded max_sim_time"};
    }
  }
  const double initial_convergence_s = simulator.now().as_seconds();

  run.save_converged();

  const auto quiescent_view = [&]() -> check::QuiescentView {
    check::QuiescentView view;
    view.loc_path = [&network](net::NodeId n) {
      return network.speaker(n).loc_rib().get(kPrefix);
    };
    view.fib_next_hop = [&network](net::NodeId n) {
      return network.fibs()[n].next_hop(kPrefix);
    };
    view.origin_up = network.speaker(destination).originates(kPrefix);
    if (multi) {
      view.loc_path_for = [&network](net::NodeId n, net::Prefix p) {
        return network.speaker(n).loc_rib().get(p);
      };
      view.fib_next_hop_for = [&network](net::NodeId n, net::Prefix p) {
        return network.fibs()[n].next_hop(p);
      };
      view.origin_up_for = [&network, &prefix_origins](net::Prefix p) {
        return network.speaker(prefix_origins[p]).originates(p);
      };
    }
    return view;
  };
  if (oracle) oracle->at_quiescence(quiescent_view(), simulator.now());

  // ---- Phase 2: traffic + event + convergence -------------------------
  const sim::SimTime t_event = run.start_traffic();

  simulator.schedule_at(t_event, [&] {
    // Measure only post-event loops, on every prefix's detector.
    for (auto& d : detectors) d->clear_history();
    if (trace) {
      trace->record(metrics::TraceEvent{
          simulator.now(), metrics::TraceEventKind::kEventInjected,
          destination, net::kInvalidNode, kPrefix,
          to_string(scenario.event)});
    }
    switch (scenario.event) {
      case EventKind::kTdown:
        // Multi-prefix: the correlated failure — the destination withdraws
        // its whole originated slice of the table in one batched event.
        if (multi) {
          network.inject_tdown_batch(destination, dest_prefixes);
        } else {
          network.inject_tdown(destination, kPrefix);
        }
        break;
      case EventKind::kTlong:
        network.inject_link_failure(*targets.failed_link);
        break;
      case EventKind::kTup:
        if (multi) {
          network.originate_batch(destination, dest_prefixes);
        } else {
          network.originate(destination, kPrefix);
        }
        break;
      case EventKind::kFlap:
        network.inject_link_failure(*targets.failed_link);
        simulator.schedule_after(scenario.flap_interval, [&] {
          network.transport().restore_link(*targets.failed_link);
        });
        break;
    }
  });

  // Poll for control-plane quiescence once per simulated second. For a
  // flap, polling must not begin until the restore has fired: the network
  // can quiesce mid-flap, and clearing the pending events would cancel
  // the restore.
  sim::SimTime first_poll = t_event + sim::SimTime::seconds(1);
  if (scenario.event == EventKind::kFlap) first_poll += scenario.flap_interval;
  const sim::SimTime end = run.run_to_quiescence(
      [&network] { return !network.busy(); }, first_poll,
      sim::SimTime::seconds(1));
  for (auto& d : detectors) d->finalize(end);
  if (oracle) oracle->at_quiescence(quiescent_view(), end);

  // ---- Metrics ---------------------------------------------------------
  // Headline loop metrics aggregate the whole table, prefix-major.
  std::vector<metrics::LoopRecord> loops;
  for (const auto& d : detectors) {
    loops.insert(loops.end(), d->records().begin(), d->records().end());
  }
  ExperimentOutcome out = run.measure(targets.failed_link,
                                      initial_convergence_s, std::move(loops));
  metrics::RunMetrics& m = out.metrics;
  m.bgp = network.total_counters();
  if (multi) {
    m.per_prefix.resize(prefix_count);
    const auto& lanes = collector.prefix_lanes();
    for (std::size_t p = 0; p < prefix_count; ++p) {
      metrics::RunMetrics::PrefixLane& lane = m.per_prefix[p];
      const auto& recs = detectors[p]->records();
      lane.loops_formed = recs.size();
      for (const auto& loop : recs) {
        lane.max_loop_duration_s =
            std::max(lane.max_loop_duration_s, loop.duration_seconds(end));
      }
      lane.packets_sent = lanes[p].sent;
      lane.packets_delivered = lanes[p].delivered;
      lane.ttl_exhaustions = lanes[p].ttl_exhausted;
    }
  }
  return out;
}

}  // namespace bgpsim::core
