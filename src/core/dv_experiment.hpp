// Experiment driver for the distance-vector baseline (same flow and
// metrics as run_experiment, with a DvNetwork in place of BgpNetwork).
//
// Because periodic refresh keeps the event queue non-empty forever, the
// DV driver detects convergence by *route-table stability* (no table
// change anywhere for two refresh cycles) rather than queue drain, and its
// convergence clock is "event -> last route-table change" (for the BGP
// driver the clock is "event -> last update sent"; for triggered updates
// the two differ by at most one triggered delay).
#pragma once

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "dv/config.hpp"

namespace bgpsim::core {

/// The DV baseline's scenario. Its checkpoint hooks (see ScenarioBase)
/// require triggered-only mode (dv.periodic == 0): periodic refresh keeps
/// the event queue non-empty, so a converged-prelude snapshot cannot
/// capture a quiescent queue otherwise.
struct DvScenario : ScenarioBase {
  dv::DvConfig dv;  // RIP defaults: periodic 30 s, triggered

  /// Optional runtime invariant oracle (see src/check/), borrowed for the
  /// run. DV speakers have no AS paths, MRAI timers, or sessions, so arm a
  /// DV-applicable invariant set (e.g. only ConvergedReferenceInvariant) —
  /// check::Oracle::standard() would judge DV by BGP timing rules. The
  /// driver feeds it FIB changes and the quiescent views (with an empty
  /// loc_path accessor, which skips the path-shape checks).
  check::Oracle* oracle = nullptr;
};

/// Run the distance-vector baseline end to end; the returned metrics use
/// the same definitions and substrate (data plane, loop detector) as
/// run_experiment, so they are directly comparable. The BGP-specific
/// counter block is left empty.
[[nodiscard]] ExperimentOutcome run_dv_experiment(const DvScenario& scenario);

/// Hash of everything that shapes the converged DV prelude (see
/// scenario_prelude_hash).
[[nodiscard]] std::uint64_t dv_prelude_hash(const DvScenario& scenario);

}  // namespace bgpsim::core
