// Whole-trial digests of the engine, pinned. The event queue runs on the
// timer wheel and the data plane fast-forwards packets. The digests first
// pinned here were recorded under all four pairings of the wheel and the
// per-tick ring store with their binary-heap references, which agreed bit
// for bit; the values below are those digests with the engine's event
// count (events_fired) taken out of the outcome body, so every check here
// is still a fast-path-equals-reference check on the model's outputs. The references are still diffed against the fast paths
// operation by operation (sim/timer_wheel_test.cpp,
// fwd/dataplane_backend_test.cpp); these suites hold whole trials to the
// recorded values across thread counts, campaign workers, and warm starts.
//
// WheelDigestEquivTest covers the dimensions whose hot paths the wheel
// reorders internally (MRAI bursts, flap re-arming, policy routing);
// DataPlaneDigestEquivTest covers those the ring store reorders (dense,
// synchronized, TTL-bounded, and multi-prefix traffic). The test names
// are those of the cross-backend suites these pins replaced, which ran each
// check under both backends through a lever that no longer exists.
//
// A change that moves a digest here changes what the simulator computes.
// If that is intended, re-record the values and say why in the change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "snap/snapshot.hpp"
#include "svc/coordinator.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

Scenario clique_tdown() {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = EventKind::kTdown;
  s.seed = 11;
  return s;
}

Scenario internet_tlong() {
  Scenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 29;
  s.topology.topo_seed = 7;
  s.event = EventKind::kTlong;
  s.seed = 11;
  return s;
}

Scenario clique_multiprefix() {
  Scenario s = clique_tdown();
  s.prefixes = 4;  // batched decisions with several (node, prefix) keys
  return s;
}

/// 100 pkt/s per source, all sources firing on the same microsecond: many
/// hops share an arrival tick and drain in one cohort.
Scenario clique_synchronized() {
  Scenario s = clique_tdown();
  s.traffic.interval = sim::SimTime::millis(10);
  s.traffic.stagger = false;
  return s;
}

struct Pinned {
  std::string name;
  Scenario scenario;
  std::uint64_t digest;  // trialset_digest of 2 trials
};

std::uint64_t digest(const Scenario& s, const RunOptions& options) {
  return svc::trialset_digest(run_trials(s, options));
}

void expect_matches(const std::vector<Pinned>& matrix) {
  for (const Pinned& p : matrix) {
    SCOPED_TRACE(p.name);
    EXPECT_EQ(digest(p.scenario, RunOptions{.trials = 2, .jobs = 1}),
              p.digest);
  }
}

void expect_thread_counts_match(const Scenario& s, std::uint64_t pinned) {
  for (const std::size_t jobs :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    EXPECT_EQ(digest(s, RunOptions{.trials = 8, .jobs = jobs}), pinned);
  }
}

/// The in-process serial run and multi-process campaigns with 1/2/8
/// workers (each a separate process with its own engine) all land on the
/// pinned campaign digest.
void expect_campaign_matches(std::vector<Scenario> scenarios,
                             std::uint64_t pinned) {
  svc::CampaignSpec spec;
  spec.scenarios = std::move(scenarios);
  spec.run.trials = 4;
  spec.run.jobs = 1;
  spec.unit_trials = 1;

  std::vector<TrialSet> sets;
  for (const Scenario& s : spec.scenarios) {
    sets.push_back(run_trials(s, spec.run));
  }
  EXPECT_EQ(svc::campaign_digest(sets), pinned);
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(svc::run_campaign(spec, workers).digest, pinned);
  }
}

struct PinnedWarmStart {
  std::uint64_t snapshot_hash;
  std::uint64_t outcome_digest;
  std::uint64_t events_fired;
};

/// The converged prelude's bytes (pending events are serialized in
/// backend-invariant (time, seq) form) and the outcome of a cold run and of
/// a warm start from that prelude. events_fired is the engine's own count
/// (outside the outcome digest); a warm start must continue it exactly.
void expect_warm_start_matches(const Scenario& scenario,
                               const PinnedWarmStart& pinned) {
  const auto outcome_digest = [&](const ExperimentOutcome& out) {
    return svc::trialset_digest(assemble_trials(scenario, {out}));
  };

  Scenario cold = scenario;
  snap::Snapshot converged;
  cold.save_converged = &converged;
  const ExperimentOutcome cold_out = run_experiment(cold);
  ASSERT_FALSE(converged.empty());
  EXPECT_EQ(converged.content_hash(), pinned.snapshot_hash);
  EXPECT_EQ(cold_out.events_fired, pinned.events_fired);
  EXPECT_EQ(outcome_digest(cold_out), pinned.outcome_digest);

  Scenario warm = scenario;
  warm.warm_start = &converged;
  const ExperimentOutcome warm_out = run_experiment(warm);
  EXPECT_EQ(warm_out.events_fired, pinned.events_fired);
  EXPECT_EQ(outcome_digest(warm_out), pinned.outcome_digest);
}

TEST(WheelDigestEquivTest, RunOptionsLeverIsOutputInvariant) {
  std::vector<Pinned> matrix;
  matrix.push_back({"clique-tdown", clique_tdown(), 0x75cc4a5c9b31ee91ULL});
  matrix.push_back(
      {"internet-tlong", internet_tlong(), 0x59e77e70e1cfd0c5ULL});
  const std::pair<bgp::Enhancement, std::uint64_t> enhancements[] = {
      {bgp::Enhancement::kSsld, 0x1a70c537277ae8deULL},
      {bgp::Enhancement::kWrate, 0xc5c4eb53f4b525a5ULL},
      {bgp::Enhancement::kAssertion, 0xe3b1686f08ad9ac1ULL},
      {bgp::Enhancement::kGhostFlushing, 0x387e921473c8b842ULL},
  };
  for (const auto& [e, pinned] : enhancements) {
    Scenario s = clique_tdown();
    s.bgp = s.bgp.with(e);
    matrix.push_back({std::string{"clique-tdown-"} + to_string(e), s, pinned});
  }
  {
    Scenario s = clique_tdown();
    s.event = EventKind::kFlap;
    matrix.push_back({"clique-flap", s, 0xb6975775a9fffc4eULL});
  }
  {
    Scenario s = internet_tlong();
    s.policy_routing = true;
    matrix.push_back({"internet-tlong-policy", s, 0x54c16af057927112ULL});
  }
  expect_matches(matrix);
}

TEST(WheelDigestEquivTest, BackendIsOutputInvariantAcrossThreadCounts) {
  expect_thread_counts_match(internet_tlong(), 0xd9ece23f51791be2ULL);
}

TEST(WheelDigestEquivTest, CampaignWorkersFollowTheEnvKnob) {
  expect_campaign_matches({clique_tdown(), internet_tlong()},
                          0xa4955cf87519f91bULL);
}

TEST(WheelDigestEquivTest, SnapshotsAreBackendPortableBothWays) {
  expect_warm_start_matches(clique_tdown(),
                            {.snapshot_hash = 0xca74a923f271b045ULL,
                             .outcome_digest = 0xcc5b3440532e839cULL,
                             .events_fired = 5935});
}

TEST(DataPlaneDigestEquivTest, RunOptionsLeverIsOutputInvariant) {
  std::vector<Pinned> matrix;
  matrix.push_back({"clique-tdown-synchronized", clique_synchronized(),
                    0x96f8a39ca88837a1ULL});
  {
    Scenario s = clique_tdown();
    s.traffic.ttl = 6;  // loops exhaust TTL within a few turns
    matrix.push_back({"clique-tdown-ttl6", s, 0x3c0a00966885b196ULL});
  }
  {
    Scenario s = internet_tlong();
    s.prefixes = 3;
    matrix.push_back(
        {"internet-tlong-multiprefix", s, 0x11f9d3382ce44f86ULL});
  }
  {
    Scenario s = clique_multiprefix();
    s.event = EventKind::kFlap;
    s.traffic.interval = sim::SimTime::millis(20);
    matrix.push_back({"clique-flap-multiprefix", s, 0xd722147bf8e7d647ULL});
  }
  expect_matches(matrix);
}

TEST(DataPlaneDigestEquivTest, BackendIsOutputInvariantAcrossThreadCounts) {
  expect_thread_counts_match(clique_multiprefix(), 0xaf211420568aaddcULL);
}

TEST(DataPlaneDigestEquivTest, CampaignWorkersFollowTheEnvKnob) {
  expect_campaign_matches({clique_multiprefix(), clique_synchronized()},
                          0x4bc14ef1c8d5f970ULL);
}

TEST(DataPlaneDigestEquivTest, SnapshotsAreBackendPortableBothWays) {
  expect_warm_start_matches(internet_tlong(),
                            {.snapshot_hash = 0x97ac2b2cc1722239ULL,
                             .outcome_digest = 0x412216fbfdfbc72cULL,
                             .events_fired = 31682});
}

TEST(DataPlaneDigestEquivTest, LeversComposeWithTheSchedulerBackend) {
  // Recorded under all four (queue, hop store) pairings.
  expect_matches({{"clique-multiprefix", clique_multiprefix(),
                   0x313e9364edc0d507ULL}});
}

}  // namespace
}  // namespace bgpsim::core
