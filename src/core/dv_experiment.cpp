#include "core/dv_experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "check/oracle.hpp"
#include "core/run_skeleton.hpp"
#include "core/scenario_fields.hpp"
#include "core/selection.hpp"
#include "dv/network.hpp"
#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core {

using detail::kPrefix;

std::uint64_t dv_prelude_hash(const DvScenario& scenario) {
  return prelude_hash(scenario, [&dv = scenario.dv](snap::Writer& w) {
    w.i64(dv.infinity);
    w.b(dv.split_horizon);
    w.b(dv.poison_reverse);
    w.b(dv.triggered);
    w.time(dv.triggered_delay_lo);
    w.time(dv.triggered_delay_hi);
    w.time(dv.periodic);
  });
}

ExperimentOutcome run_dv_experiment(const DvScenario& scenario) {
  if (scenario.dv.periodic == sim::SimTime::zero() && !scenario.dv.triggered) {
    throw std::invalid_argument{
        "DvScenario: need triggered updates, periodic refresh, or both"};
  }
  if (scenario.event == EventKind::kFlap) {
    // Flap needs session-restoration semantics; the RIP baseline has no
    // notion of a session, and triggered-only DV would never relearn the
    // restored link.
    throw std::invalid_argument{
        "DvScenario: flap event is not supported by the DV baseline"};
  }

  net::Topology topo = scenario.topology.build();
  const sim::Rng root{scenario.seed};
  const Targets targets = choose_targets(scenario, topo, root);
  const net::NodeId destination = targets.destination;

  sim::Simulator simulator;
  dv::DvNetwork network{simulator, topo, scenario.dv, scenario.processing,
                        root};
  check::Oracle* oracle = scenario.oracle;
  if (oracle) {
    // Default BgpConfig: only topology/prefix/destination matter to the
    // DV-applicable invariants (see DvScenario::oracle).
    oracle->arm(check::Context{&topo, {}, kPrefix, destination,
                               /*policy_routing=*/false});
  }
  metrics::Collector collector;
  // Stability clock: the last time any route table changed anywhere.
  sim::SimTime last_change = sim::SimTime::zero();
  network.set_hooks(dv::DvSpeaker::Hooks{
      .on_update_sent =
          [&](net::NodeId, net::NodeId, const dv::DvUpdate&) {
            collector.note_update_sent(simulator.now(), false);
          },
      .on_route_changed =
          [&](net::NodeId, net::Prefix, std::optional<int>) {
            last_change = simulator.now();
          },
  });

  // With periodic refresh the network is "stable" once two whole refresh
  // cycles (plus triggered/processing slack) pass without a table change.
  const sim::SimTime stability_window =
      scenario.dv.periodic > sim::SimTime::zero()
          ? 2 * scenario.dv.periodic + sim::SimTime::seconds(10)
          : scenario.dv.triggered_delay_hi + sim::SimTime::seconds(10);
  const bool has_periodic = scenario.dv.periodic > sim::SimTime::zero();
  const auto stable = [&] {
    if (!has_periodic) return !network.busy();  // triggered-only: drains
    return simulator.now() - last_change > stability_window;
  };

  fwd::DataPlane plane{simulator, topo, network.fibs(),
                       fwd::DataPlaneOptions::single(destination)};

  metrics::LoopDetector detector{topo.node_count()};
  detector.attach(simulator, network.fibs(), kPrefix);
  // After attach: the detector replaces all FIB observers, the oracle
  // subscribes alongside it.
  if (oracle) oracle->observe_fibs(simulator, network.fibs());

  // DV has no Loc-RIB paths, so the view exposes only forwarding state;
  // the reference check then verifies loop-freedom and distance-decreasing
  // next hops but skips the AS-path shape checks.
  bool origin_up = scenario.event != EventKind::kTup;
  const auto quiescent_view = [&]() -> check::QuiescentView {
    check::QuiescentView view;
    view.fib_next_hop = [&](net::NodeId n) {
      return network.fibs()[n].next_hop(kPrefix);
    };
    view.origin_up = origin_up;
    return view;
  };

  fwd::TrafficGenerator traffic{simulator, plane, scenario.traffic,
                                root.child("traffic")};

  // ---- Phase 1: cold-start convergence or warm start --------------------
  // Fresh-graph checkpoints need an *empty* event queue, which periodic
  // refresh never allows — the converged-prelude hooks are triggered-only.
  if ((scenario.warm_start || scenario.save_converged) && has_periodic) {
    throw std::invalid_argument{
        "DvScenario: warm_start/save_converged require triggered-only mode "
        "(dv.periodic == 0); periodic refresh keeps the event queue busy"};
  }
  // The snapshot also carries the driver's stability clock and origin flag.
  detail::SnapshotExtras extras{
      .save = [&](snap::Writer& w) { w.time(last_change); w.b(origin_up); },
      .restore =
          [&](snap::Reader& r) {
            last_change = r.time();
            origin_up = r.b();
          },
  };
  detail::RunSkeleton run{scenario, snap::DriverKind::kDv,
                          dv_prelude_hash(scenario), destination, simulator,
                          topo, network, plane, traffic, collector, oracle,
                          std::move(extras)};

  if (!run.warm_start()) {
    if (origin_up) {
      simulator.schedule_at(sim::SimTime::zero(),
                            [&] { network.originate(destination, kPrefix); });
    }
    // Run until the tables stabilize (bounded by max_sim_time).
    sim::SimTime horizon = stability_window + sim::SimTime::seconds(30);
    while (horizon < scenario.max_sim_time) {
      simulator.run_until(horizon);
      if (stable()) break;
      horizon += stability_window;
    }
    if (!stable()) {
      throw std::runtime_error{"dv initial convergence exceeded max_sim_time"};
    }
  }
  const double initial_convergence_s = last_change.as_seconds();
  if (oracle) oracle->at_quiescence(quiescent_view(), simulator.now());

  run.save_converged();

  // ---- Phase 2: traffic + event + convergence -------------------------
  const sim::SimTime t_event = run.start_traffic();

  simulator.schedule_at(t_event, [&] {
    detector.clear_history();
    last_change = simulator.now();
    switch (scenario.event) {
      case EventKind::kTdown:
        network.inject_tdown(destination, kPrefix);
        origin_up = false;
        break;
      case EventKind::kTlong:
        network.inject_link_failure(*targets.failed_link);
        break;
      case EventKind::kTup:
        network.originate(destination, kPrefix);
        origin_up = true;
        break;
      case EventKind::kFlap:
        break;  // rejected up front
    }
  });

  const sim::SimTime end = run.run_to_quiescence(
      stable, t_event + sim::SimTime::seconds(2), sim::SimTime::seconds(2));
  detector.finalize(end);
  if (oracle) oracle->at_quiescence(quiescent_view(), end);

  // Same definitions; the DV clock is the last table change.
  return run.measure(targets.failed_link, initial_convergence_s,
                     detector.records(), std::max(last_change, t_event));
}

}  // namespace bgpsim::core
