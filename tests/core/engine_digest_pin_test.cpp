// Whole-trial digests of the engine, pinned. The event queue runs on the
// timer wheel and the data plane on per-tick FIFO rings; each value below
// was recorded under all four pairings of those with their binary-heap
// references, which agreed bit for bit. So every check here is a
// fast-path-equals-reference check: the heap side of the comparison is the
// pinned value. The references are still diffed against the fast paths
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

/// The converged prelude's bytes (pending events and in-flight hops are
/// serialized in backend-invariant (time, seq) form) and the outcome of a
/// cold run and of a warm start from that prelude.
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
  matrix.push_back({"clique-tdown", clique_tdown(), 0x871530e3a0bcd806ULL});
  matrix.push_back(
      {"internet-tlong", internet_tlong(), 0xcae2d2b0ac5c6bbfULL});
  const std::pair<bgp::Enhancement, std::uint64_t> enhancements[] = {
      {bgp::Enhancement::kSsld, 0xc84a0a199a6de5bdULL},
      {bgp::Enhancement::kWrate, 0x28a2e6d8cb7d696cULL},
      {bgp::Enhancement::kAssertion, 0x80a5c9188445c238ULL},
      {bgp::Enhancement::kGhostFlushing, 0x5265900455167f02ULL},
  };
  for (const auto& [e, pinned] : enhancements) {
    Scenario s = clique_tdown();
    s.bgp = s.bgp.with(e);
    matrix.push_back({std::string{"clique-tdown-"} + to_string(e), s, pinned});
  }
  {
    Scenario s = clique_tdown();
    s.event = EventKind::kFlap;
    matrix.push_back({"clique-flap", s, 0xa61afa385d40ff7eULL});
  }
  {
    Scenario s = internet_tlong();
    s.policy_routing = true;
    matrix.push_back({"internet-tlong-policy", s, 0xa757af98b5b69649ULL});
  }
  expect_matches(matrix);
}

TEST(WheelDigestEquivTest, BackendIsOutputInvariantAcrossThreadCounts) {
  expect_thread_counts_match(internet_tlong(), 0x71e8a2c91fe5568fULL);
}

TEST(WheelDigestEquivTest, CampaignWorkersFollowTheEnvKnob) {
  expect_campaign_matches({clique_tdown(), internet_tlong()},
                          0x3dd701bcd86cb9b1ULL);
}

TEST(WheelDigestEquivTest, SnapshotsAreBackendPortableBothWays) {
  expect_warm_start_matches(clique_tdown(),
                            {.snapshot_hash = 0x561291144e732565ULL,
                             .outcome_digest = 0xbea2c83e559aac0fULL,
                             .events_fired = 205940});
}

TEST(DataPlaneDigestEquivTest, RunOptionsLeverIsOutputInvariant) {
  std::vector<Pinned> matrix;
  matrix.push_back({"clique-tdown-synchronized", clique_synchronized(),
                    0xffae44ab7f310571ULL});
  {
    Scenario s = clique_tdown();
    s.traffic.ttl = 6;  // loops exhaust TTL within a few turns
    matrix.push_back({"clique-tdown-ttl6", s, 0x19d4f80835875ea0ULL});
  }
  {
    Scenario s = internet_tlong();
    s.prefixes = 3;
    matrix.push_back(
        {"internet-tlong-multiprefix", s, 0x31d134c09ca64a90ULL});
  }
  {
    Scenario s = clique_multiprefix();
    s.event = EventKind::kFlap;
    s.traffic.interval = sim::SimTime::millis(20);
    matrix.push_back({"clique-flap-multiprefix", s, 0x678fce304b072acdULL});
  }
  expect_matches(matrix);
}

TEST(DataPlaneDigestEquivTest, BackendIsOutputInvariantAcrossThreadCounts) {
  expect_thread_counts_match(clique_multiprefix(), 0xe616031c747b17cdULL);
}

TEST(DataPlaneDigestEquivTest, CampaignWorkersFollowTheEnvKnob) {
  expect_campaign_matches({clique_multiprefix(), clique_synchronized()},
                          0x33ef495e677399a8ULL);
}

TEST(DataPlaneDigestEquivTest, SnapshotsAreBackendPortableBothWays) {
  expect_warm_start_matches(internet_tlong(),
                            {.snapshot_hash = 0x9f4c2348e42178f9ULL,
                             .outcome_digest = 0x8ed527c9fa7e750bULL,
                             .events_fired = 79468});
}

TEST(DataPlaneDigestEquivTest, LeversComposeWithTheSchedulerBackend) {
  // Recorded under all four (queue, hop store) pairings.
  expect_matches({{"clique-multiprefix", clique_multiprefix(),
                   0x0dc239de4f557e96ULL}});
}

}  // namespace
}  // namespace bgpsim::core
