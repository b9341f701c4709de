// Experiment driver for the link-state baseline.
#pragma once

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "ls/config.hpp"

namespace bgpsim::core {

struct LsScenario : ScenarioBase {
  /// LS loops come from link events, and IGP message processing is orders
  /// of magnitude cheaper than BGP's 0.1-0.5 s update handling: Tlong and
  /// 1-10 ms by default.
  LsScenario() {
    event = EventKind::kTlong;
    processing = {sim::SimTime::millis(1), sim::SimTime::millis(10)};
  }

  ls::LsConfig ls;
};

/// Run the link-state baseline end to end; metrics use the same
/// definitions and substrate as run_experiment. Convergence clock: last
/// LSA put on the wire after the event.
[[nodiscard]] ExperimentOutcome run_ls_experiment(const LsScenario& scenario);

/// Hash of everything that shapes the converged LS prelude (see
/// scenario_prelude_hash).
[[nodiscard]] std::uint64_t ls_prelude_hash(const LsScenario& scenario);

}  // namespace bgpsim::core
