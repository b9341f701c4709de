// The traced replay: one trial, run through the same public calls
// core::run_experiment makes, in the same order, with a host-time span
// around each call into a layer and the layers' public counters read at
// the phase boundaries.
//
// The replay is the benchmark's own copy of core::run_experiment, so it
// can measure from outside without instrumenting src/. The traced run
// checks that it stays faithful: its outcome must reproduce
// core::run_single_trial's fingerprint and events_fired exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/speaker.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "fwd/engine.hpp"
#include "snap/snapshot.hpp"

namespace perfbench {

struct ReplayOptions {
  /// Start the traffic sources. false gives the control-plane-only twin
  /// of a trial: the same control plane, no packets.
  bool traffic = true;
  /// Restore phase 1 from this converged prelude instead of running it
  /// (a prelude-cache hit).
  const bgpsim::snap::Snapshot* warm_start = nullptr;
  /// Capture the converged prelude (what a prelude-cache miss deposits).
  bool capture = false;
  /// Stop after phase 1 and the capture.
  bool prelude_only = false;
  /// Record each update's simulated wait from the sent hook to the
  /// received hook.
  bool watch_updates = false;
};

/// Host seconds spent inside each call, by layer.
struct Spans {
  double topo_build_s = 0;  // TopologySpec::build / build_annotated
  double construct_s = 0;   // network, plane, detectors, traffic
  double prelude_s = 0;     // phase-1 Simulator::run_until
  double restore_s = 0;     // restore + the bit-exactness echo capture
  double capture_s = 0;     // converged-prelude capture
  double event_s = 0;       // phase-2 Simulator::run_until
  double sink_s = 0;        // inside the FateSink, part of event_s
  double total_s = 0;       // the whole replay
};

struct ReplayResult {
  bgpsim::core::ExperimentOutcome outcome;
  Spans spans;
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t detectors = 0;
  std::uint64_t events_event = 0;        // fired during phase 2
  std::uint64_t fib_changes_event = 0;   // sum of Fib::version deltas, phase 2
  std::uint64_t fib_changes_total = 0;   // the same, whole replay
  bgpsim::fwd::DataPlane::Counters plane;       // phase-2 deltas
  bgpsim::bgp::Speaker::Counters bgp_event;     // phase-2 deltas
  std::size_t snapshot_bytes = 0;        // captured or restored payload
  std::optional<bgpsim::snap::Snapshot> captured;
  std::vector<double> update_waits_sim_s;  // watch_updates only
  std::uint64_t unmatched_updates = 0;     // received with no sent record
};

/// Replay trial 0 of `scenario` (run_single_trial's trial 0 is the
/// scenario itself). Throws what run_experiment would throw.
[[nodiscard]] ReplayResult replay(const bgpsim::core::Scenario& scenario,
                                  const ReplayOptions& options);

}  // namespace perfbench
