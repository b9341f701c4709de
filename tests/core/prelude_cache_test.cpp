// The prelude cache keys a relationship-file topology by the file's
// content, not its path: editing the file between two runs must never
// serve the converged prelude of the old graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <unistd.h>

#include "core/sweep.hpp"
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

}  // namespace
}  // namespace bgpsim::core
