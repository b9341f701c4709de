// Deterministic scenario fuzzer.
//
// Each iteration derives one 64-bit scenario seed, expands it into a full
// Scenario (topology family and size, event, MRAI, jitter, enhancement,
// caution, flap interval — all drawn from the seed and nothing else), runs
// it with the invariant oracle armed (check/oracle.hpp), and folds the
// outcome into a campaign digest. The same campaign seed therefore always
// produces the same scenarios, the same verdicts, and the same digest; a
// failing iteration is reproduced exactly by replaying its scenario seed
// (`fuzz_scenarios --replay <seed>`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "core/scenario.hpp"

namespace bgpsim::core {

struct FuzzOptions {
  /// Campaign seed. Iteration i runs fuzz_scenario(fuzz_scenario_seed(seed, i)).
  std::uint64_t seed = 1;
  std::size_t iters = 100;
  /// Print a one-line outcome per iteration (failures always print).
  bool verbose = false;
  /// Failure / progress sink; null = silent.
  std::ostream* out = nullptr;
  /// Oracle factory, one fresh oracle per iteration. Default:
  /// check::Oracle::standard(). Tests inject canary invariants here.
  std::function<check::Oracle()> make_oracle;
  /// Snapshot round-trip checking: run every iteration twice — once with a
  /// no-op probe scheduled mid-run and once where that probe serializes,
  /// restores, and re-serializes the full simulation in place
  /// (Scenario::snap_roundtrip) — and fail the iteration if the two passes'
  /// fingerprints differ. The probe offset is seed-derived, so a divergence
  /// reproduces exactly via --replay.
  bool snap_check = false;
  /// Multi-prefix fuzzing (opt-in): every scenario additionally draws a
  /// prefix count from {2, 4, 8, 16} and, half the time, a set of random
  /// extra origins — exercising the SoA RIB, batched decision processing,
  /// and per-prefix oracle paths. The extra draws are appended after the
  /// single-prefix draw sequence, so with this off every scenario (and the
  /// campaign digest) is unchanged.
  bool multiprefix = false;
};

/// One failing iteration: either armed invariants reported violations, the
/// run threw, or the oracle observed nothing at all (a vacuous run proves
/// nothing and is treated as a harness failure).
struct FuzzFailure {
  std::size_t iter = 0;
  std::uint64_t scenario_seed = 0;
  std::string label;  // Scenario::label() of the failing run
  std::vector<check::Violation> violations;
  std::string error;  // exception text; empty when the run completed

  [[nodiscard]] std::string to_string() const;
};

struct FuzzReport {
  std::size_t iterations = 0;
  std::vector<FuzzFailure> failures;
  /// Order-sensitive digest over every iteration's outcome (seeds, metrics,
  /// verdicts). Two runs of the same campaign must print the same digest.
  std::uint64_t digest = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Scenario seed of campaign iteration `iter` — a pure function of
/// (campaign_seed, iter), independent of every other iteration.
[[nodiscard]] std::uint64_t fuzz_scenario_seed(std::uint64_t campaign_seed,
                                               std::uint64_t iter);

/// Expand one scenario seed into a runnable Scenario. Pure: no global
/// state, no entropy beyond the seed. Chain topologies never draw Tlong or
/// Flap (losing any chain link disconnects the destination). With
/// `multiprefix`, appends the prefix-count/origin draws (FuzzOptions::
/// multiprefix); false leaves the classic scenario untouched.
[[nodiscard]] Scenario fuzz_scenario(std::uint64_t scenario_seed,
                                     bool multiprefix = false);

/// Run one scenario seed with the oracle armed — the --replay entry point.
/// Returns the failure record, or nullopt if the run was clean.
[[nodiscard]] std::optional<FuzzFailure> replay_fuzz_scenario(
    std::uint64_t scenario_seed, const FuzzOptions& options = {});

/// Run a full campaign serially (one oracle is armed per iteration; runs
/// are cheap enough that determinism is worth more than parallelism here).
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options);

}  // namespace bgpsim::core
