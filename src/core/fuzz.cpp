#include "core/fuzz.hpp"

#include <bit>
#include <exception>

#include "core/experiment.hpp"
#include "sim/random.hpp"

namespace bgpsim::core {
namespace {

// FNV-1a over the eight bytes of each value, folded in iteration order.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

/// Deterministic digest contribution of one iteration: the seed, whether
/// it failed, and (for completed runs) the outcome numbers that any
/// behavioral drift would move first.
std::uint64_t iteration_fingerprint(std::uint64_t scenario_seed,
                                    const std::optional<ExperimentOutcome>& out,
                                    std::uint64_t violations_seen,
                                    std::uint64_t observations) {
  std::uint64_t h = fnv_mix(kFnvOffset, scenario_seed);
  h = fnv_mix(h, violations_seen);
  h = fnv_mix(h, observations);
  if (!out) return fnv_mix(h, 0xdeadULL);  // run threw
  const metrics::RunMetrics& m = out->metrics;
  h = fnv_mix(h, out->events_fired);
  h = fnv_mix(h, m.updates_sent_total);
  h = fnv_mix(h, m.ttl_exhaustions);
  h = fnv_mix(h, static_cast<std::uint64_t>(m.loops_formed));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(m.convergence_time_s));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(m.looping_duration_s));
  return h;
}

check::Oracle make_oracle(const FuzzOptions& options) {
  if (options.make_oracle) return options.make_oracle();
  return check::Oracle::standard();
}

struct IterationResult {
  std::optional<FuzzFailure> failure;  // iter not filled in
  std::uint64_t fingerprint = 0;
  std::string summary;  // one-line outcome for verbose mode
};

IterationResult run_once(Scenario scenario, std::uint64_t scenario_seed,
                         const FuzzOptions& options) {
  IterationResult result;
  check::Oracle oracle = make_oracle(options);
  scenario.oracle = &oracle;

  std::optional<ExperimentOutcome> outcome;
  std::string error;
  try {
    outcome = run_experiment(scenario);
  } catch (const std::exception& e) {
    error = e.what();
  }

  result.fingerprint = iteration_fingerprint(
      scenario_seed, outcome, oracle.violations_seen(), oracle.observations());

  const bool vacuous = outcome && oracle.observations() == 0;
  if (!error.empty() || !oracle.ok() || vacuous) {
    FuzzFailure failure;
    failure.scenario_seed = scenario_seed;
    failure.label = scenario.label();
    failure.violations = oracle.violations();
    failure.error = vacuous && error.empty()
                        ? "oracle observed no events (vacuous run)"
                        : error;
    result.failure = std::move(failure);
  }

  if (outcome) {
    const metrics::RunMetrics& m = outcome->metrics;
    result.summary = scenario.label() + ": conv " +
                     std::to_string(m.convergence_time_s) + " s, " +
                     std::to_string(m.loops_formed) + " loop(s), " +
                     std::to_string(oracle.observations()) + " obs, " +
                     std::to_string(oracle.violations_seen()) + " violation(s)";
  } else {
    result.summary = scenario.label() + ": threw: " + error;
  }
  return result;
}

IterationResult run_checked(std::uint64_t scenario_seed,
                            const FuzzOptions& options) {
  Scenario scenario = fuzz_scenario(scenario_seed, options.multiprefix);
  if (!options.snap_check) return run_once(scenario, scenario_seed, options);

  // The seed-derived snap-check probe: the same scenario seed always
  // probes at the same simulated time, so --replay reproduces a divergence
  // exactly. Both passes schedule the identical probe event (kNoop just
  // returns inside it), keeping their event streams comparable.
  scenario.snap_roundtrip_after = sim::SimTime::seconds(
      sim::Rng{scenario_seed}.child("snap-roundtrip").uniform(0.5, 30.0));
  scenario.snap_roundtrip = SnapRoundtrip::kNoop;
  IterationResult baseline = run_once(scenario, scenario_seed, options);
  if (baseline.failure) return baseline;

  scenario.snap_roundtrip = SnapRoundtrip::kVerify;
  IterationResult verified = run_once(scenario, scenario_seed, options);
  if (verified.failure) {
    verified.failure->error =
        "snap-check (serialize/restore pass): " +
        (verified.failure->error.empty() ? std::string{"invariant violations"}
                                         : verified.failure->error);
    verified.fingerprint = baseline.fingerprint;
    return verified;
  }

  if (verified.fingerprint != baseline.fingerprint) {
    FuzzFailure failure;
    failure.scenario_seed = scenario_seed;
    failure.label = scenario.label();
    failure.error =
        "snapshot divergence: a mid-run save/restore round-trip changed the "
        "outcome (baseline fingerprint " + std::to_string(baseline.fingerprint) +
        ", round-trip fingerprint " + std::to_string(verified.fingerprint) + ")";
    baseline.failure = std::move(failure);
  }
  return baseline;
}

}  // namespace

std::string FuzzFailure::to_string() const {
  constexpr std::size_t kMaxShown = 10;
  std::string out = "FAIL iter " + std::to_string(iter) + " seed " +
                    std::to_string(scenario_seed) + " (" + label + ")";
  if (!error.empty()) out += "\n  error: " + error;
  for (std::size_t i = 0; i < violations.size() && i < kMaxShown; ++i) {
    out += "\n  " + violations[i].to_string();
  }
  if (violations.size() > kMaxShown) {
    out += "\n  ... and " + std::to_string(violations.size() - kMaxShown) +
           " more violation(s)";
  }
  out += "\n  replay: fuzz_scenarios --replay " + std::to_string(scenario_seed);
  return out;
}

std::uint64_t fuzz_scenario_seed(std::uint64_t campaign_seed,
                                 std::uint64_t iter) {
  return sim::Rng{campaign_seed}.child("fuzz-iter", iter).next_u64();
}

Scenario fuzz_scenario(std::uint64_t scenario_seed, bool multiprefix) {
  sim::Rng rng = sim::Rng{scenario_seed}.child("fuzz-scenario");
  Scenario s;

  switch (rng.next_below(5)) {
    case 0:
      s.topology.kind = TopologyKind::kClique;
      s.topology.size = static_cast<std::size_t>(rng.uniform_int(4, 8));
      break;
    case 1:
      s.topology.kind = TopologyKind::kBClique;
      s.topology.size = static_cast<std::size_t>(rng.uniform_int(3, 5));
      break;
    case 2:
      s.topology.kind = TopologyKind::kChain;
      s.topology.size = static_cast<std::size_t>(rng.uniform_int(4, 8));
      break;
    case 3:
      s.topology.kind = TopologyKind::kRing;
      s.topology.size = static_cast<std::size_t>(rng.uniform_int(4, 9));
      break;
    default:
      s.topology.kind = TopologyKind::kInternet;
      s.topology.size = static_cast<std::size_t>(rng.uniform_int(20, 32));
      break;
  }
  s.topology.topo_seed = rng.next_u64();

  // Chains cannot lose a link without disconnecting the destination, so
  // they only see the routing events.
  const bool link_events = s.topology.kind != TopologyKind::kChain;
  switch (rng.next_below(link_events ? 4 : 2)) {
    case 0:
      s.event = EventKind::kTdown;
      break;
    case 1:
      s.event = EventKind::kTup;
      break;
    case 2:
      s.event = EventKind::kTlong;
      break;
    default:
      s.event = EventKind::kFlap;
      break;
  }

  s.bgp = s.bgp.with(bgp::kAllEnhancements[rng.next_below(5)]);
  constexpr double kMraiChoices[] = {2.0, 5.0, 10.0, 30.0};
  s.bgp.mrai = sim::SimTime::seconds(kMraiChoices[rng.next_below(4)]);
  if (rng.chance(0.25)) {
    s.bgp.jitter_lo = 1.0;  // deterministic timers: the worst-case regime
  }
  if (rng.chance(0.125)) {
    s.bgp.backup_caution = sim::SimTime::seconds(rng.uniform(2.0, 8.0));
  }
  // Drawn unconditionally so the draw sequence does not depend on the
  // event choice.
  s.flap_interval = sim::SimTime::seconds(rng.uniform(2.0, 20.0));

  s.seed = rng.next_u64();

  if (multiprefix) {
    // Appended after the classic draw sequence: with the flag off the
    // scenario (and the campaign digest) is bit-identical to before.
    constexpr std::size_t kPrefixChoices[] = {2, 4, 8, 16};
    s.prefixes = kPrefixChoices[rng.next_below(4)];
    if (rng.chance(0.5)) {
      // Scatter some origins over the topology (cycled over prefixes >= 1);
      // the other half keeps the fully correlated single-origin table.
      const std::size_t nodes = s.topology.kind == TopologyKind::kBClique
                                    ? 2 * s.topology.size
                                    : s.topology.size;
      const auto n_origins = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t i = 0; i < n_origins; ++i) {
        s.origins.push_back(static_cast<net::NodeId>(rng.next_below(nodes)));
      }
    }
  }
  return s;
}

std::optional<FuzzFailure> replay_fuzz_scenario(std::uint64_t scenario_seed,
                                                const FuzzOptions& options) {
  IterationResult result = run_checked(scenario_seed, options);
  if (options.out) {
    if (result.failure) {
      *options.out << result.failure->to_string() << "\n";
    } else {
      *options.out << "clean: " << result.summary << "\n";
    }
  }
  return result.failure;
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  std::uint64_t digest = kFnvOffset;
  for (std::size_t i = 0; i < options.iters; ++i) {
    const std::uint64_t seed = fuzz_scenario_seed(options.seed, i);
    IterationResult result = run_checked(seed, options);
    digest = fnv_mix(digest, result.fingerprint);
    ++report.iterations;
    if (result.failure) {
      result.failure->iter = i;
      if (options.out) *options.out << result.failure->to_string() << "\n";
      report.failures.push_back(std::move(*result.failure));
    } else if (options.verbose && options.out) {
      *options.out << "iter " << i << " seed " << seed << " ok — "
                   << result.summary << "\n";
    }
  }
  report.digest = digest;
  return report;
}

}  // namespace bgpsim::core
