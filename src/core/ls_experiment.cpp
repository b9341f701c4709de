#include "core/ls_experiment.hpp"

#include <stdexcept>

#include "core/run_skeleton.hpp"
#include "core/scenario_fields.hpp"
#include "core/selection.hpp"
#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "ls/network.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core {

using detail::kPrefix;

std::uint64_t ls_prelude_hash(const LsScenario& scenario) {
  return prelude_hash(scenario, [&ls = scenario.ls](snap::Writer& w) {
    w.time(ls.spf_delay_lo);
    w.time(ls.spf_delay_hi);
  });
}

ExperimentOutcome run_ls_experiment(const LsScenario& scenario) {
  if (scenario.event == EventKind::kFlap) {
    throw std::invalid_argument{
        "LsScenario: flap event is not supported by the LS baseline"};
  }

  net::Topology topo = scenario.topology.build();
  const sim::Rng root{scenario.seed};
  const Targets targets = choose_targets(scenario, topo, root);
  const net::NodeId destination = targets.destination;

  sim::Simulator simulator;
  ls::LsNetwork network{simulator, topo, scenario.ls, scenario.processing,
                        root};
  metrics::Collector collector;
  network.set_hooks(ls::LsSpeaker::Hooks{
      .on_lsa_sent =
          [&](net::NodeId, net::NodeId, const ls::Lsa&) {
            collector.note_update_sent(simulator.now(), false);
          },
      .on_route_changed = nullptr,
  });

  fwd::DataPlane plane{simulator, topo, network.fibs(),
                       fwd::DataPlaneOptions::single(destination)};

  metrics::LoopDetector detector{topo.node_count()};
  detector.attach(simulator, network.fibs(), kPrefix);

  fwd::TrafficGenerator traffic{simulator, plane, scenario.traffic,
                                root.child("traffic")};

  // ---- Phase 1: bring-up + cold-start convergence, or warm start --------
  detail::RunSkeleton run{scenario, snap::DriverKind::kLs,
                          ls_prelude_hash(scenario), destination, simulator,
                          topo, network, plane, traffic, collector};

  if (!run.warm_start()) {
    simulator.schedule_at(sim::SimTime::zero(), [&] {
      network.start_all();
      if (scenario.event != EventKind::kTup) {
        network.originate(destination, kPrefix);
      }
    });
    simulator.run_until(scenario.max_sim_time);
    if (simulator.pending() > 0 || network.busy()) {
      throw std::runtime_error{"ls initial convergence exceeded max_sim_time"};
    }
  }
  const double initial_convergence_s = simulator.now().as_seconds();

  run.save_converged();

  // ---- Phase 2: traffic + event + convergence -------------------------
  const sim::SimTime t_event = run.start_traffic();

  simulator.schedule_at(t_event, [&] {
    detector.clear_history();
    switch (scenario.event) {
      case EventKind::kTdown:
        network.inject_tdown(destination, kPrefix);
        break;
      case EventKind::kTlong:
        network.inject_link_failure(*targets.failed_link);
        break;
      case EventKind::kTup:
        network.originate(destination, kPrefix);
        break;
      case EventKind::kFlap:
        break;  // rejected up front
    }
  });

  const sim::SimTime end = run.run_to_quiescence(
      [&network] { return !network.busy(); },
      t_event + sim::SimTime::seconds(1), sim::SimTime::seconds(1));
  detector.finalize(end);

  return run.measure(targets.failed_link, initial_convergence_s,
                     detector.records());
}

}  // namespace bgpsim::core
