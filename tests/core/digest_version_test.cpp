// The digests hold what the model computed, not what the engine spent
// computing it. events_fired counts simulator handler firings, which
// depend on the data-plane backend (fast-forward fires far fewer than the
// hop-by-hop ring store for the same fates), so two outcomes that differ
// only in it must be indistinguishable on the wire and in every digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "core/fuzz.hpp"
#include "core/sweep.hpp"
#include "snap/codec.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

Scenario clique_tdown() {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 5;
  s.event = EventKind::kTdown;
  s.seed = 11;
  return s;
}

std::vector<std::uint8_t> wire_bytes(const ExperimentOutcome& o) {
  snap::Writer w;
  svc::write_outcome(w, o);
  return std::move(w).take();
}

TEST(DigestVersionTest, EventsFiredIsOutsideEveryDigest) {
  const Scenario s = clique_tdown();
  const ExperimentOutcome a = run_experiment(s);
  ASSERT_GT(a.events_fired, 0u);
  const auto digests = [&](const ExperimentOutcome& o) {
    const TrialSet set = assemble_trials(s, {o});
    return std::vector<std::uint64_t>{
        snap::fnv1a(wire_bytes(o)), svc::trialset_digest(set),
        svc::campaign_digest({set}),
        fuzz_iteration_fingerprint(s.seed, o, 0, 1)};
  };

  ExperimentOutcome engine_only = a;
  engine_only.events_fired = a.events_fired * 3 + 17;
  EXPECT_EQ(wire_bytes(a), wire_bytes(engine_only));
  EXPECT_EQ(digests(a), digests(engine_only));

  // Not vacuous: a model output still moves every one of them.
  ExperimentOutcome model = a;
  ++model.metrics.ttl_exhaustions;
  const std::vector<std::uint64_t> base = digests(a);
  const std::vector<std::uint64_t> moved = digests(model);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NE(base[i], moved[i]) << "digest " << i;
  }
}

}  // namespace
}  // namespace bgpsim::core
