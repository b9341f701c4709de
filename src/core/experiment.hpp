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
  std::uint64_t events_fired = 0;          // simulator events, whole run
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

/// Hash of everything that shapes the converged *prelude* of a scenario
/// (topology, protocol config, processing delays, destination choice and
/// whether the prefix is originated before the event). Two scenarios with
/// equal prelude hashes and equal seeds converge to bit-identical state in
/// phase 1, so one's converged checkpoint warm-starts the other — this is
/// the snap::PreludeCache key ingredient. Deliberately *excludes* the
/// traffic config (traffic has not started at the prelude checkpoint) and
/// post-event knobs (event timing, flap interval, tlong link).
[[nodiscard]] std::uint64_t scenario_prelude_hash(const Scenario& scenario);

}  // namespace bgpsim::core
