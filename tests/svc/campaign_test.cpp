// Campaign end-to-end determinism: a multi-process campaign must merge to
// results bit-identical to the in-process runners — at any worker count,
// any unit granularity, and over either transport — and must propagate a
// deterministic unit failure just like the serial runner rethrows it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "svc/coordinator.hpp"
#include "svc/protocol.hpp"
#include "svc/transport.hpp"
#include "svc/worker.hpp"

namespace bgpsim::svc {
namespace {

core::Scenario clique(std::size_t size) {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = size;
  s.event = core::EventKind::kTdown;
  s.seed = 11;
  return s;
}

CampaignSpec small_sweep() {
  CampaignSpec spec;
  spec.scenarios = {clique(5), clique(6)};
  spec.run.trials = 4;
  spec.unit_trials = 1;
  return spec;
}

std::uint64_t serial_digest(const CampaignSpec& spec) {
  std::vector<core::TrialSet> sets;
  for (const core::Scenario& s : spec.scenarios) {
    sets.push_back(core::run_trials(s, spec.run));
  }
  return campaign_digest(sets);
}

TEST(SvcCampaignTest, MatchesInProcessRunnerAtAnyWorkerCount) {
  const CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const CampaignResult result = run_campaign(spec, workers);
    EXPECT_EQ(result.digest, expected);
    ASSERT_EQ(result.sets.size(), 2u);
    EXPECT_EQ(result.sets[0].runs.size(), 4u);
    EXPECT_EQ(result.sets[1].runs.size(), 4u);
    EXPECT_EQ(result.units_dispatched, 8u);
    EXPECT_EQ(result.requeues, 0u);
    EXPECT_EQ(result.workers_lost, 0u);
  }
}

TEST(SvcCampaignTest, UnitGranularityDoesNotChangeTheResult) {
  CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);
  for (const std::size_t unit_trials :
       {std::size_t{2}, std::size_t{3}, std::size_t{10}}) {
    SCOPED_TRACE("unit_trials=" + std::to_string(unit_trials));
    spec.unit_trials = unit_trials;
    EXPECT_EQ(run_campaign(spec, 2).digest, expected);
  }
}

TEST(SvcCampaignTest, TrialSetsMatchTheInProcessRunnerFieldByField) {
  const CampaignSpec spec = small_sweep();
  const CampaignResult result = run_campaign(spec, 3);
  ASSERT_EQ(result.sets.size(), 2u);
  for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
    SCOPED_TRACE("scenario " + std::to_string(si));
    const core::TrialSet serial =
        core::run_trials(spec.scenarios[si], spec.run);
    const core::TrialSet& merged = result.sets[si];
    ASSERT_EQ(merged.runs.size(), serial.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      EXPECT_EQ(merged.runs[i].destination, serial.runs[i].destination);
      EXPECT_EQ(merged.runs[i].metrics.convergence_time_s,
                serial.runs[i].metrics.convergence_time_s);
      EXPECT_EQ(merged.runs[i].metrics.ttl_exhaustions,
                serial.runs[i].metrics.ttl_exhaustions);
    }
    // Bitwise, including the summary fold (same aggregation code path).
    EXPECT_EQ(merged.convergence_time_s.mean, serial.convergence_time_s.mean);
    EXPECT_EQ(merged.looping_duration_s.stddev,
              serial.looping_duration_s.stddev);
    EXPECT_EQ(trialset_digest(merged), trialset_digest(serial));
  }
}

TEST(SvcCampaignTest, TcpTransportProducesTheSameDigest) {
  const CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);

  auto listener = TcpListener::bind_localhost(0);
  constexpr std::size_t kWorkers = 3;
  std::vector<pid_t> pids;
  for (std::uint64_t id = 0; id < kWorkers; ++id) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      Connection conn = connect_localhost(listener.port());
      ::_exit(worker_loop(std::move(conn), id));
    }
    pids.push_back(pid);
  }

  Coordinator coordinator{spec};
  for (std::size_t i = 0; i < kWorkers; ++i) {
    Connection conn = listener.accept_one(30'000);
    ASSERT_TRUE(conn.valid()) << "worker did not connect";
    auto hello_frame = conn.recv_frame();
    ASSERT_TRUE(hello_frame.has_value());
    const Hello hello = decode_hello(*hello_frame);
    ASSERT_LT(hello.worker_id, pids.size());
    coordinator.add_worker(std::move(conn), pids[hello.worker_id]);
  }
  const CampaignResult result = coordinator.run();
  EXPECT_EQ(result.digest, expected);
  EXPECT_EQ(result.workers_lost, 0u);
}

TEST(SvcCampaignTest, DeterministicUnitFailureFailsTheCampaign) {
  // A scenario that cannot converge inside max_sim_time throws the same
  // way on every worker; the campaign must surface that error instead of
  // retrying forever (requeues are for worker death, not unit bugs).
  CampaignSpec spec;
  core::Scenario s = clique(8);
  s.max_sim_time = sim::SimTime::seconds(1);
  spec.scenarios = {s};
  spec.run.trials = 2;
  EXPECT_THROW((void)run_campaign(spec, 2), std::runtime_error);
}

TEST(SvcCampaignTest, EmptyCampaignIsRejected) {
  EXPECT_THROW(Coordinator({}, {}), std::invalid_argument);
}

TEST(SvcCampaignTest, ScenarioWithHooksIsRejectedBeforeSpawning) {
  metrics::TraceRecorder trace;
  CampaignSpec spec = small_sweep();
  spec.scenarios[0].trace = &trace;
  EXPECT_THROW(Coordinator(std::move(spec), {}), std::invalid_argument);
}

TEST(SvcCampaignTest, DecomposeTrialsCoversExactly) {
  const auto units = core::decompose_trials(10, 3);
  ASSERT_EQ(units.size(), 4u);
  std::size_t next = 0;
  for (const core::TrialRange& r : units) {
    EXPECT_EQ(r.begin, next);
    EXPECT_GE(r.count, 1u);
    EXPECT_LE(r.count, 3u);
    next = r.begin + r.count;
  }
  EXPECT_EQ(next, 10u);
  EXPECT_TRUE(core::decompose_trials(0, 3).empty());
  EXPECT_EQ(core::decompose_trials(5, 0).size(), 5u);  // 0 resolves to 1
}

}  // namespace
}  // namespace bgpsim::svc
