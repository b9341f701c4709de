// The run skeleton shared by the experiment drivers (BGP, DV and LS).
//
// A driver builds its network and hooks, runs its own cold-start
// convergence, and owns its event switch and stability predicate. Every
// other phase of a run is written once, here: wiring the data plane and
// traffic into the metrics collector, the snapshot capture and restore
// (with a hook for driver-private extras), the warm start and its echo
// check, starting traffic, the mid-run round-trip probe, the quiescence
// poll, and the metrics every driver reports.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/snap_support.hpp"
#include "metrics/loop_detector.hpp"
#include "net/topology.hpp"

namespace bgpsim::check {
class Oracle;
}  // namespace bgpsim::check

namespace bgpsim::core::detail {

/// The prefix a single-prefix run routes (prefix 0 of a multi-prefix one).
inline constexpr net::Prefix kPrefix = 0;

/// Driver-private state a snapshot carries after the shared substrate.
struct SnapshotExtras {
  std::function<void(snap::Writer&)> save;
  std::function<void(snap::Reader&)> restore;
};

class RunSkeleton {
 public:
  /// The skeleton reads the run knobs from `scenario`, which must outlive
  /// it. `driver`, `config_hash` and `destination` complete the run's
  /// snapshot identity. `oracle`, if set, judges the warm-start echo and a
  /// diverged round-trip probe. Routes the plane's fates and the traffic's
  /// injections into `collector`.
  template <typename Network>
  RunSkeleton(const ScenarioBase& scenario, snap::DriverKind driver,
              std::uint64_t config_hash, net::NodeId destination,
              sim::Simulator& simulator, const net::Topology& topo,
              Network& network, fwd::DataPlane& plane,
              fwd::TrafficGenerator& traffic, metrics::Collector& collector,
              check::Oracle* oracle = nullptr, SnapshotExtras extras = {})
      : scenario_{scenario},
        simulator_{simulator},
        topo_{topo},
        plane_{plane},
        traffic_{traffic},
        collector_{collector},
        oracle_{oracle},
        meta_{.driver = driver,
              .topology_hash = snap::hash_topology(topo),
              .config_hash = config_hash,
              .seed = scenario.seed,
              .destination = destination,
              .originated = scenario.event != EventKind::kTup},
        network_{&network},
        save_network_{[](const RunSkeleton& run, snap::Writer& w) {
          save_run_state(w, run.simulator_,
                         *static_cast<const Network*>(run.network_),
                         run.plane_, run.traffic_, run.collector_);
        }},
        restore_network_{[](RunSkeleton& run, snap::Reader& r) {
          restore_run_state(r, run.simulator_,
                            *static_cast<Network*>(run.network_), run.plane_,
                            run.traffic_, run.collector_);
        }},
        extras_{std::move(extras)} {
    plane.set_fate_sink(&collector);
    traffic.set_send_hook(
        [c = &collector](net::NodeId, net::Prefix p, sim::SimTime when) {
          c->note_packet_sent(when);
          c->note_packet_sent_for(p);  // no-op unless lanes are enabled
        });
  }

  RunSkeleton(const RunSkeleton&) = delete;
  RunSkeleton& operator=(const RunSkeleton&) = delete;

  /// Start from the scenario's warm-start snapshot, if it has one: refuse a
  /// snapshot of another run (WarmStartRejected), restore it, and prove the
  /// restore bit-exact by re-capturing it. False when there is none and
  /// the driver must run its cold start.
  bool warm_start();

  /// Hand the converged prelude to the scenario's save_converged, if set.
  void save_converged() const;

  /// Start traffic from every node but the destination; returns the event
  /// instant, which the later phases measure from.
  sim::SimTime start_traffic();

  /// After the driver has scheduled its event: schedule the mid-run
  /// round-trip probe if the scenario asks for one (see
  /// Scenario::snap_roundtrip), then poll `settled` from `first_poll` on,
  /// every `interval` (poll events count in events_fired). Once it holds,
  /// stop traffic, let in-flight packets die out, then cancel leftover
  /// timers. Runs the simulator and returns the end instant; throws if the
  /// poll reached max_sim_time unsettled.
  sim::SimTime run_to_quiescence(std::function<bool()> settled,
                                 sim::SimTime first_poll,
                                 sim::SimTime interval);

  /// The outcome every driver reports, at the end of the run. `loops` are
  /// the post-event loop records; `last_update_at` defaults to the last
  /// update sent after the event (or the event itself).
  [[nodiscard]] ExperimentOutcome measure(
      std::optional<net::LinkId> failed_link, double initial_convergence_s,
      std::vector<metrics::LoopRecord> loops,
      std::optional<sim::SimTime> last_update_at = std::nullopt) const;

 private:
  /// Capture the complete run state. `quiescent` only when the event queue
  /// is empty; `reserve` presizes the payload buffer when its size is known.
  [[nodiscard]] snap::Snapshot capture(bool quiescent,
                                       std::size_t reserve = 0) const;
  void restore(const snap::Snapshot& snapshot);
  /// Error-text prefix: none for BGP, "dv " and "ls " for the baselines.
  [[nodiscard]] std::string label() const;

  const ScenarioBase& scenario_;
  sim::Simulator& simulator_;
  const net::Topology& topo_;
  fwd::DataPlane& plane_;
  fwd::TrafficGenerator& traffic_;
  metrics::Collector& collector_;
  check::Oracle* oracle_;
  snap::SnapshotMeta meta_;
  sim::SimTime t_event_;
  // The driver's network, typed again by the two functions the constructor
  // instantiates for it. Function pointers, not std::function closures: two
  // small allocations per run shifted where the heap put the multi-MB
  // snapshot buffers and raised the full-table workload's peak RSS.
  void* network_;
  void (*save_network_)(const RunSkeleton&, snap::Writer&);
  void (*restore_network_)(RunSkeleton&, snap::Reader&);
  SnapshotExtras extras_;
};

}  // namespace bgpsim::core::detail
