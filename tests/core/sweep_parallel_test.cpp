// The parallel trial runner must be indistinguishable from the serial one:
// same seed layout (base.seed + i), results collected in trial order, and
// bit-identical Summary statistics at any job count.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/sweep.hpp"
#include "metrics/trace.hpp"

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

void expect_identical(const TrialSet& a, const TrialSet& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    EXPECT_EQ(a.runs[i].destination, b.runs[i].destination);
    EXPECT_EQ(a.runs[i].failed_link, b.runs[i].failed_link);
    EXPECT_EQ(a.runs[i].events_fired, b.runs[i].events_fired);
    const auto& ma = a.runs[i].metrics;
    const auto& mb = b.runs[i].metrics;
    EXPECT_EQ(ma.convergence_time_s, mb.convergence_time_s);
    EXPECT_EQ(ma.looping_duration_s, mb.looping_duration_s);
    EXPECT_EQ(ma.ttl_exhaustions, mb.ttl_exhaustions);
    EXPECT_EQ(ma.looping_ratio, mb.looping_ratio);
    EXPECT_EQ(ma.loops_formed, mb.loops_formed);
    EXPECT_EQ(ma.updates_sent, mb.updates_sent);
    EXPECT_EQ(ma.packets_sent_total, mb.packets_sent_total);
  }
  const auto expect_summary_eq = [](const metrics::Summary& x,
                                    const metrics::Summary& y) {
    EXPECT_EQ(x.n, y.n);
    EXPECT_EQ(x.mean, y.mean);  // bitwise: same values, same fold order
    EXPECT_EQ(x.stddev, y.stddev);
    EXPECT_EQ(x.min, y.min);
    EXPECT_EQ(x.max, y.max);
    EXPECT_EQ(x.median, y.median);
  };
  expect_summary_eq(a.convergence_time_s, b.convergence_time_s);
  expect_summary_eq(a.looping_duration_s, b.looping_duration_s);
  expect_summary_eq(a.ttl_exhaustions, b.ttl_exhaustions);
  expect_summary_eq(a.looping_ratio, b.looping_ratio);
  expect_summary_eq(a.loops_formed, b.loops_formed);
  expect_summary_eq(a.max_loop_duration_s, b.max_loop_duration_s);
}

TEST(SweepParallelTest, CliqueTdownMatchesSerialAtAnyJobCount) {
  const TrialSet serial =
      run_trials(clique_tdown(), RunOptions{.trials = 4, .jobs = 1});
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_identical(serial, run_trials(clique_tdown(),
                                        RunOptions{.trials = 4, .jobs = jobs}));
  }
}

TEST(SweepParallelTest, InternetTlongMatchesSerialAtAnyJobCount) {
  const TrialSet serial =
      run_trials(internet_tlong(), RunOptions{.trials = 3, .jobs = 1});
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_identical(serial, run_trials(internet_tlong(),
                                        RunOptions{.trials = 3, .jobs = jobs}));
  }
}

TEST(SweepParallelTest, TraceScenarioFallsBackToSerial) {
  // A caller-owned trace sink is unsynchronized, so the parallel entry
  // point must run such scenarios serially — and still record events.
  metrics::TraceRecorder trace;
  Scenario s = clique_tdown();
  s.trace = &trace;
  const TrialSet set = run_trials(s, RunOptions{.trials = 2, .jobs = 8});
  EXPECT_EQ(set.runs.size(), 2u);
  EXPECT_GT(trace.size(), 0u);
}

TEST(SweepParallelTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(default_jobs(), 1u);
}

TEST(SweepParallelTest, EnvOrRejectsTrailingGarbageWithFallback) {
  ::setenv("BGPSIM_TEST_KNOB", "8x", 1);
  EXPECT_EQ(env_or("BGPSIM_TEST_KNOB", 3), 3u);  // warns on stderr
  ::setenv("BGPSIM_TEST_KNOB", "8", 1);
  EXPECT_EQ(env_or("BGPSIM_TEST_KNOB", 3), 8u);
  ::unsetenv("BGPSIM_TEST_KNOB");
  EXPECT_EQ(env_or("BGPSIM_TEST_KNOB", 3), 3u);
}

}  // namespace
}  // namespace bgpsim::core
