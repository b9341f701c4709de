// Output fingerprints: what the benchmark checks a trial produced.
//
// A fingerprint covers what the model computes — the paper's metrics, the
// loop records, the per-prefix lanes, the protocol's update counters and
// the packet fates — and leaves out engine-internal counters
// (events_fired, hop counts, bridge drains). A change to how the engine
// schedules or forwards may redefine those counters without changing a
// pinned fingerprint; a change to what the model computes may not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

[[nodiscard]] std::uint64_t fingerprint(
    const bgpsim::core::ExperimentOutcome& outcome);

/// Fold of per-trial fingerprints, in order.
[[nodiscard]] std::uint64_t fold(const std::vector<std::uint64_t>& prints);

/// 16 lowercase hex digits, the form pinned in fingerprints.json.
[[nodiscard]] std::string hex(std::uint64_t value);

}  // namespace perfbench
