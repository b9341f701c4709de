// Multi-trial execution and aggregation.
#pragma once

#include <cstddef>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_options.hpp"
#include "core/scenario.hpp"
#include "metrics/stats.hpp"

namespace bgpsim::core {

/// Aggregated results of repeated runs of one scenario with varied seeds
/// (the paper: "the simulation were repeated for a number of times with
/// different destination ASes and failed links").
struct TrialSet {
  Scenario scenario;                    // base scenario (seed of trial 0)
  std::vector<ExperimentOutcome> runs;  // one per trial

  metrics::Summary convergence_time_s;
  metrics::Summary looping_duration_s;
  metrics::Summary ttl_exhaustions;
  metrics::Summary looping_ratio;
  metrics::Summary loops_formed;
  metrics::Summary max_loop_duration_s;
};

/// Run options.trials independent repetitions of `base`. Trial i uses
/// seed base.seed + i; for Internet topologies the topology seed also
/// advances so each trial draws a fresh graph, destination, and failed
/// link (as in the paper).
///
/// Execution is governed entirely by `options` (see run_options.hpp):
/// trials fan out across options.jobs worker threads, yet results are
/// collected in trial order and every Summary is computed by the same
/// aggregation code — the returned TrialSet is bit-identical at any job
/// count. Runs with a trace or oracle attached (via options or the
/// scenario) degrade to serial with a logged notice, since those are
/// caller-owned unsynchronized sinks.
///
/// If any trial throws, the exception of the lowest-index failing trial
/// is rethrown after all in-flight trials finish (matching what a serial
/// run would have reported first).
[[nodiscard]] TrialSet run_trials(const Scenario& base,
                                  const RunOptions& options);

/// Worker count used when RunOptions::jobs == 0: env::jobs() — the
/// BGPSIM_JOBS environment variable if set and valid, otherwise
/// std::thread::hardware_concurrency(); never less than 1.
[[nodiscard]] std::size_t default_jobs();

/// One trial of a TrialSet, exactly as run_trials would execute it: seed
/// layout seed = base.seed + index (plus topo_seed advance on Internet
/// topologies) and — when `use_snap_cache` and the scenario is cacheable —
/// warm-started from the process-wide snap::PreludeCache. This is the unit
/// of work the campaign service (src/svc/) ships to worker processes — a
/// merged campaign is bit-identical to run_trials precisely because both
/// run this function.
[[nodiscard]] ExperimentOutcome run_single_trial(const Scenario& base,
                                                 std::size_t index,
                                                 bool use_snap_cache = true);

/// A contiguous slice of a TrialSet's trial index space.
struct TrialRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Sweep decomposition: split `trials` into ranges of at most `unit_trials`
/// each (the campaign service's work units). unit_trials == 0 resolves
/// to 1. Ranges are returned in trial order and exactly cover
/// [0, trials) without overlap.
[[nodiscard]] std::vector<TrialRange> decompose_trials(
    std::size_t trials, std::size_t unit_trials);

/// Assemble a TrialSet from trial-ordered outcomes (runs[i] must be the
/// result of run_single_trial(base, i)). Summaries are computed by the same
/// aggregation code as run_trials, so a campaign merged through this
/// function is bit-identical to the in-process runners.
[[nodiscard]] TrialSet assemble_trials(Scenario base,
                                       std::vector<ExperimentOutcome> runs);

/// Environment-variable override for bench scaling (e.g. BGPSIM_TRIALS).
/// Returns `fallback` when unset or unparsable; a set-but-garbled value
/// ("8x", "two") additionally warns on stderr so a misspelled knob is
/// never silently ignored. Legacy forwarder for core::env::u64_or — the
/// documented knob registry lives in core/env.hpp.
[[nodiscard]] std::size_t env_or(const char* name, std::size_t fallback);

}  // namespace bgpsim::core
