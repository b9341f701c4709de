// Runs one scenario end to end and extracts the paper's metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "core/scenario.hpp"
#include "metrics/results.hpp"
#include "net/types.hpp"

namespace bgpsim::core {

struct ExperimentOutcome {
  metrics::RunMetrics metrics;
  net::NodeId destination = net::kInvalidNode;
  std::optional<net::LinkId> failed_link;  // engaged for Tlong
  double initial_convergence_s = 0;        // cold-start convergence
  /// Simulator handler firings over the whole run: an engine cost that
  /// depends on the data-plane backend, so it stays in-process, outside
  /// every digest and the svc wire.
  std::uint64_t events_fired = 0;
  /// Data-plane work (fwd::DataPlane counters): packet hops and trajectory
  /// predictions. Observability only: outside the digest and the svc
  /// wire, so an outcome that crossed a process carries zeros.
  std::uint64_t plane_hops = 0;
  std::uint64_t plane_segments = 0;
};

/// A warm-start snapshot whose identity (driver, topology, prelude
/// config, seed, destination, origination) does not match the scenario.
class WarmStartRejected : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Execute: build topology -> cold-start convergence -> start traffic ->
/// inject the event -> run to quiescence -> drain packets -> measure.
///
/// Throws std::runtime_error if the network fails to converge within
/// scenario.max_sim_time, and WarmStartRejected if scenario.warm_start
/// belongs to another scenario.
[[nodiscard]] ExperimentOutcome run_experiment(const Scenario& scenario);

/// The BGP driver's prelude hash (core::prelude_hash over the shared and
/// the BGP prelude-phase rows): equal hashes and seeds converge to
/// bit-identical phase-1 state, so one's converged checkpoint warm-starts
/// the other. The snap::PreludeCache key ingredient.
[[nodiscard]] std::uint64_t scenario_prelude_hash(const Scenario& scenario);

}  // namespace bgpsim::core
