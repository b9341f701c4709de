// The prelude cache keys a relationship-file topology by the file's
// content, not its path: editing the file between two runs must never
// serve the converged prelude of the old graph. And every driver's prelude
// hash tells apart preludes that converge around different destinations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <unistd.h>

#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "core/ls_experiment.hpp"
#include "core/sweep.hpp"
#include "snap/cache.hpp"
#include "snap/snapshot.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

// A 12-AS hierarchy: two peering tier-1s (1, 2), four transits, six stubs.
constexpr const char* kRelationships =
    "1|2|0\n"
    "1|3|-1\n"
    "1|4|-1\n"
    "2|5|-1\n"
    "2|6|-1\n"
    "3|4|0\n"
    "4|5|0\n"
    "5|6|0\n"
    "3|7|-1\n"
    "3|8|-1\n"
    "4|9|-1\n"
    "5|10|-1\n"
    "6|11|-1\n"
    "6|12|-1\n"
    "7|8|0\n"
    "4|8|-1\n"
    "5|9|-1\n";

/// kRelationships with whole lines replaced; the adjacencies stay the same.
std::string edited(
    std::initializer_list<std::pair<std::string, std::string>> lines) {
  std::string text = kRelationships;
  for (const auto& [from, to] : lines) {
    text.replace(text.find(from + "\n"), from.size(), to);
  }
  return text;
}

class PreludeCacheRelFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "prelude_cache_" + info->name() + "_" +
            std::to_string(::getpid()) + ".rel";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write(const std::string& content) const {
    std::ofstream out{path_, std::ios::trunc};
    out << content;
  }

  [[nodiscard]] Scenario scenario() const {
    Scenario s;
    s.topology.kind = TopologyKind::kRelFile;
    s.topology.rel_file = path_;
    s.policy_routing = true;
    s.event = EventKind::kTdown;
    s.seed = 5;
    return s;
  }

  [[nodiscard]] std::uint64_t run(bool snap_cache) const {
    return svc::trialset_digest(run_trials(
        scenario(),
        RunOptions{.trials = 2, .jobs = 1, .snap_cache = snap_cache}));
  }

  std::string path_;
};

TEST_F(PreludeCacheRelFileTest, EditedRelationshipCodesMissTheCache) {
  write(kRelationships);
  const std::uint64_t before = run(true);  // fills the cache
  // The transit peerings become provider-customer links.
  write(edited(
      {{"3|4|0", "3|4|-1"}, {"4|5|0", "4|5|-1"}, {"5|6|0", "5|6|-1"}}));
  const std::uint64_t cold = run(false);
  ASSERT_NE(before, cold) << "the edit must change the routing outcome";
  EXPECT_EQ(run(true), cold);
}

TEST_F(PreludeCacheRelFileTest, FlippedEdgeOrientationMissesTheCache) {
  write(kRelationships);
  const std::uint64_t before = run(true);  // fills the cache
  write(edited({{"4|8|-1", "8|4|-1"}}));  // 8 becomes 4's provider
  const std::uint64_t cold = run(false);
  ASSERT_NE(before, cold) << "the edit must change the routing outcome";
  EXPECT_EQ(run(true), cold);
}

TEST(PreludeCacheStaleEntryTest, MismatchedSnapshotIsEvictedAndReplaced) {
  // A cache hit whose snapshot belongs to another scenario (planted here:
  // another seed's converged prelude under this trial's key) must cost a
  // cold run, never the trial.
  snap::PreludeCache& cache = snap::PreludeCache::instance();
  const std::size_t capacity = cache.capacity();
  cache.set_capacity(snap::PreludeCache::kDefaultCapacity);
  cache.clear();
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 5;
  s.event = EventKind::kTdown;
  s.seed = 11;
  Scenario other = s;
  other.seed = 12;
  snap::Snapshot planted;
  other.save_converged = &planted;
  (void)run_experiment(other);
  const std::uint64_t key = prelude_cache_key(s);
  cache.insert(key, std::make_shared<const snap::Snapshot>(std::move(planted)));

  const auto digest = [&s](bool snap_cache) {
    return svc::trialset_digest(run_trials(
        s, RunOptions{.trials = 1, .jobs = 1, .snap_cache = snap_cache}));
  };
  const std::uint64_t cold = digest(false);
  std::uint64_t warm = 0;
  ASSERT_NO_THROW(warm = digest(true));
  EXPECT_EQ(warm, cold);
  // The cold run's own prelude replaced the planted entry and serves the
  // next trial.
  const std::shared_ptr<const snap::Snapshot> entry = cache.find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->meta().seed, s.seed);
  EXPECT_EQ(digest(true), cold);
  cache.clear();
  cache.set_capacity(capacity);
}

// On an AS graph the destination of a link event must survive losing a
// link, so a Tdown and a Tlong run converge around different destinations
// (48 and 29 here). Their converged preludes must not share a config hash:
// the baseline drivers mix the survivable-link filter exactly as the BGP
// driver does.
template <typename S, typename Run>
void expect_link_event_preludes_differ(S s, Run run) {
  s.topology.kind = TopologyKind::kAsGraph;
  s.topology.size = 64;
  s.seed = 5;
  snap::Snapshot tdown;
  snap::Snapshot tlong;
  s.event = EventKind::kTdown;
  s.save_converged = &tdown;
  EXPECT_EQ(run(s).destination, 48U);
  s.event = EventKind::kTlong;
  s.save_converged = &tlong;
  EXPECT_EQ(run(s).destination, 29U);
  EXPECT_NE(tdown.meta().config_hash, tlong.meta().config_hash);
}

TEST(PreludeHashTest, DvLinkEventOnAsGraphHasItsOwnPrelude) {
  DvScenario s;
  s.dv.periodic = sim::SimTime::zero();  // checkpoints need triggered-only
  expect_link_event_preludes_differ(
      s, [](const DvScenario& x) { return run_dv_experiment(x); });
}

TEST(PreludeHashTest, LsLinkEventOnAsGraphHasItsOwnPrelude) {
  expect_link_event_preludes_differ(
      LsScenario{}, [](const LsScenario& x) { return run_ls_experiment(x); });
}

}  // namespace
}  // namespace bgpsim::core
