#include "core/scenario_file.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace bgpsim::core {
namespace {

TEST(ScenarioFile, ParsesFullDescription) {
  const auto s = parse_scenario_string(R"(
# A Tlong comparison point
topology = bclique
size = 15
event = tlong
protocol = ghost
mrai = 45
jitter_lo = 1.0
jitter_hi = 1.0
seed = 9
processing_min_ms = 50
processing_max_ms = 250
traffic_pps = 20
ttl = 64
caution = 2.5
)");
  EXPECT_EQ(s.topology.kind, TopologyKind::kBClique);
  EXPECT_EQ(s.topology.size, 15u);
  EXPECT_EQ(s.event, EventKind::kTlong);
  EXPECT_TRUE(s.bgp.ghost_flushing);
  EXPECT_FALSE(s.bgp.ssld);
  EXPECT_EQ(s.bgp.mrai, sim::SimTime::seconds(45));
  EXPECT_EQ(s.bgp.jitter_lo, 1.0);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.processing.min, sim::SimTime::millis(50));
  EXPECT_EQ(s.processing.max, sim::SimTime::millis(250));
  EXPECT_EQ(s.traffic.interval, sim::SimTime::millis(50));
  EXPECT_EQ(s.traffic.ttl, 64);
  EXPECT_EQ(s.bgp.backup_caution, sim::SimTime::seconds(2.5));
}

TEST(ScenarioFile, DefaultsMatchScenarioDefaults) {
  const auto s = parse_scenario_string("topology = clique\nsize = 10\n");
  const Scenario defaults;
  EXPECT_EQ(s.event, EventKind::kTdown);
  EXPECT_EQ(s.bgp.mrai, defaults.bgp.mrai);
  EXPECT_EQ(s.bgp.jitter_lo, defaults.bgp.jitter_lo);
  EXPECT_EQ(s.seed, defaults.seed);
  EXPECT_FALSE(s.policy_routing);
}

TEST(ScenarioFile, CommentsAndBlanksIgnored) {
  const auto s = parse_scenario_string(
      "# header\n\n  topology = ring   # inline\n\tsize = 7\n\n");
  EXPECT_EQ(s.topology.kind, TopologyKind::kRing);
  EXPECT_EQ(s.topology.size, 7u);
}

TEST(ScenarioFile, OptionalOverrides) {
  const auto s = parse_scenario_string(
      "topology = bclique\nsize = 5\nevent = tlong\n"
      "destination = 3\ntlong_link = 2\npolicy = false\n");
  EXPECT_EQ(s.destination, 3u);
  EXPECT_EQ(s.tlong_link, 2u);
}

TEST(ScenarioFile, ErrorsCarryLineNumbers) {
  try {
    (void)parse_scenario_string("topology = clique\nsize = banana\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

TEST(ScenarioFile, RejectsUnknownKey) {
  EXPECT_THROW(
      (void)parse_scenario_string("topology = clique\nsize = 5\nfoo = 1\n"),
      std::runtime_error);
}

TEST(ScenarioFile, RejectsUnknownEnumValues) {
  EXPECT_THROW((void)parse_scenario_string("topology = mesh\nsize = 5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 5\nevent = boom\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 5\nprotocol = rip\n"),
               std::runtime_error);
}

TEST(ScenarioFile, RejectsDuplicateKeys) {
  try {
    (void)parse_scenario_string(
        "topology = clique\nsize = 5\nmrai = 30\nmrai = 45\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what{e.what()};
    // The diagnostic names the duplicate and points at the first definition.
    EXPECT_NE(what.find("mrai"), std::string::npos);
    EXPECT_NE(what.find("line 3"), std::string::npos);
  }
}

TEST(ScenarioFile, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_scenario_string("topology = clique\nsize\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario_string("topology = clique\nsize =\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario_string("topology = clique\nsize = 5\nmrai = -3\n"),
      std::runtime_error);
}

TEST(ScenarioFile, ParsesFlapEvent) {
  const auto s = parse_scenario_string(
      "topology = bclique\nsize = 4\nevent = flap\nflap_s = 7.5\n");
  EXPECT_EQ(s.event, EventKind::kFlap);
  EXPECT_EQ(s.flap_interval, sim::SimTime::seconds(7.5));
}

TEST(ScenarioFile, FlapIntervalMustBePositive) {
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = bclique\nsize = 4\nevent = flap\nflap_s = 0\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario_string(
          "topology = bclique\nsize = 4\nevent = flap\nflap_s = -2\n"),
      std::runtime_error);
}

TEST(ScenarioFile, FlapRoundTripsThroughText) {
  Scenario original;
  original.topology.kind = TopologyKind::kBClique;
  original.topology.size = 4;
  original.event = EventKind::kFlap;
  original.flap_interval = sim::SimTime::seconds(9);
  const auto restored = parse_scenario_string(to_scenario_text(original));
  EXPECT_EQ(restored.event, EventKind::kFlap);
  EXPECT_EQ(restored.flap_interval, original.flap_interval);
}

TEST(ScenarioFile, RequiresTopologyAndSize) {
  EXPECT_THROW((void)parse_scenario_string("size = 5\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario_string("topology = clique\n"),
               std::runtime_error);
}

TEST(ScenarioFile, RejectsInvertedRanges) {
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 5\n"
                   "jitter_lo = 1.0\njitter_hi = 0.5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 5\n"
                   "processing_min_ms = 500\nprocessing_max_ms = 100\n"),
               std::runtime_error);
}

TEST(ScenarioFile, RoundTripsThroughText) {
  Scenario whole;
  whole.topology.kind = TopologyKind::kInternet;
  whole.topology.size = 48;
  whole.topology.topo_seed = 11;
  whole.event = EventKind::kTlong;
  whole.bgp = whole.bgp.with(bgp::Enhancement::kWrate);
  whole.bgp.mrai = sim::SimTime::seconds(12);
  whole.bgp.backup_caution = sim::SimTime::seconds(3);
  whole.policy_routing = true;
  whole.seed = 21;
  whole.destination = 40;
  // Values that need more than six significant digits to survive.
  Scenario precise = whole;
  precise.bgp.mrai = sim::SimTime::micros(12'345'678);
  precise.bgp.jitter_lo = 0.7512345;

  for (const Scenario& original : {whole, precise}) {
    const std::string text = to_scenario_text(original);
    SCOPED_TRACE(text);
    const auto restored = parse_scenario_string(text);
    EXPECT_EQ(restored.topology.kind, original.topology.kind);
    EXPECT_EQ(restored.topology.size, original.topology.size);
    EXPECT_EQ(restored.topology.topo_seed, original.topology.topo_seed);
    EXPECT_EQ(restored.event, original.event);
    EXPECT_TRUE(restored.bgp.wrate);
    EXPECT_EQ(restored.bgp.mrai, original.bgp.mrai);
    EXPECT_EQ(restored.bgp.jitter_lo, original.bgp.jitter_lo);
    EXPECT_EQ(restored.bgp.jitter_hi, original.bgp.jitter_hi);
    EXPECT_EQ(restored.bgp.backup_caution, original.bgp.backup_caution);
    EXPECT_EQ(restored.policy_routing, original.policy_routing);
    EXPECT_EQ(restored.seed, original.seed);
    EXPECT_EQ(restored.destination, original.destination);
  }
}

TEST(ScenarioFile, AsGraphRoundTripsThroughText) {
  Scenario original;
  original.topology.kind = TopologyKind::kAsGraph;
  original.topology.size = 1000;
  original.topology.topo_seed = 4;
  original.policy_routing = true;
  const auto restored = parse_scenario_string(to_scenario_text(original));
  EXPECT_EQ(restored.topology.kind, TopologyKind::kAsGraph);
  EXPECT_EQ(restored.topology.size, 1000u);
  EXPECT_TRUE(restored.policy_routing);
}

TEST(ScenarioFile, RelFileWaivesSizeAndRoundTrips) {
  const auto s = parse_scenario_string(
      "topology = relfile\nrel_file = /data/as-rel.txt\npolicy = true\n");
  EXPECT_EQ(s.topology.kind, TopologyKind::kRelFile);
  EXPECT_EQ(s.topology.rel_file, "/data/as-rel.txt");
  const auto restored = parse_scenario_string(to_scenario_text(s));
  EXPECT_EQ(restored.topology.rel_file, "/data/as-rel.txt");
}

TEST(ScenarioFile, RelFileTopologyRequiresThePath) {
  EXPECT_THROW((void)parse_scenario_string("topology = relfile\n"),
               std::runtime_error);
}

TEST(ScenarioFile, RelFileKeyRequiresRelFileTopology) {
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 5\nrel_file = x.txt\n"),
               std::runtime_error);
}

TEST(ScenarioFile, ParsesMultiPrefixKeys) {
  const auto s = parse_scenario_string(
      "topology = clique\nsize = 6\nprefixes = 8\norigins = 1, 3, 4\n");
  EXPECT_EQ(s.prefixes, 8u);
  EXPECT_EQ(s.origins, (std::vector<net::NodeId>{1, 3, 4}));
}

TEST(ScenarioFile, MultiPrefixRoundTripsThroughText) {
  Scenario original;
  original.topology.kind = TopologyKind::kClique;
  original.topology.size = 6;
  original.prefixes = 16;
  original.origins = {2, 5};
  const auto restored = parse_scenario_string(to_scenario_text(original));
  EXPECT_EQ(restored.prefixes, 16u);
  EXPECT_EQ(restored.origins, original.origins);
}

TEST(ScenarioFile, RejectsDuplicatePrefixesKey) {
  try {
    (void)parse_scenario_string(
        "topology = clique\nsize = 6\nprefixes = 4\nprefixes = 8\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("duplicate key 'prefixes'"), std::string::npos);
    EXPECT_NE(what.find("line 4"), std::string::npos);
    EXPECT_NE(what.find("line 3"), std::string::npos);
  }
}

TEST(ScenarioFile, PrefixCountMustBePositive) {
  try {
    (void)parse_scenario_string(
        "topology = clique\nsize = 6\nprefixes = 0\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("line 3"), std::string::npos);
    EXPECT_NE(what.find("at least 1"), std::string::npos);
  }
  // stoull would silently wrap a negative count to a huge table.
  try {
    (void)parse_scenario_string(
        "topology = clique\nsize = 6\nprefixes = -4\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("positive count"),
              std::string::npos);
  }
}

TEST(ScenarioFile, OriginMustNameATopologyNode) {
  try {
    (void)parse_scenario_string(
        "topology = clique\nsize = 6\nprefixes = 4\norigins = 2, 6\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("line 4"), std::string::npos);
    EXPECT_NE(what.find("origin AS 6 out of range"), std::string::npos);
  }
  // BClique topologies have 2×size nodes; origin 7 is valid there.
  const auto s = parse_scenario_string(
      "topology = bclique\nsize = 4\nprefixes = 4\norigins = 7\n");
  EXPECT_EQ(s.origins, (std::vector<net::NodeId>{7}));
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = bclique\nsize = 4\nprefixes = 4\n"
                   "origins = 8\n"),
               std::runtime_error);
}

TEST(ScenarioFile, OriginsRequireAMultiPrefixTable) {
  // origins without prefixes, and origins with prefixes = 1, are both
  // configuration mistakes (prefix 0 always originates at the destination).
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 6\norigins = 2\n"),
               std::runtime_error);
  try {
    (void)parse_scenario_string(
        "topology = clique\nsize = 6\nprefixes = 1\norigins = 2\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("prefixes >= 2"), std::string::npos);
  }
}

TEST(ScenarioFile, RejectsMalformedOriginLists) {
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 6\nprefixes = 4\n"
                   "origins = 1,,2\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario_string(
                   "topology = clique\nsize = 6\nprefixes = 4\n"
                   "origins = -1\n"),
               std::runtime_error);
}

/// The message of the error parsing `text`, or "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)parse_scenario_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioFile, RejectsNegativeIntegers) {
  // A wrapping parse would turn each into a huge value; none is ever run.
  for (const char* key :
       {"size", "topo_seed", "seed", "ttl", "destination", "tlong_link"}) {
    SCOPED_TRACE(key);
    const std::string size = key == std::string{"size"} ? "" : "size = 4\n";
    const std::string what = parse_error("topology = clique\n" + size +
                                         std::string{key} + " = -3\n");
    EXPECT_NE(what.find(std::string{key} + " must be non-negative"),
              std::string::npos)
        << what;
  }
}

TEST(ScenarioFile, RejectsTtlBeyondInt) {
  // 4294967424 = 2^32 + 128 would truncate to TTL 128.
  const std::string what =
      parse_error("topology = clique\nsize = 4\nttl = 4294967424\n");
  EXPECT_NE(what.find("ttl = 4294967424 is out of range"), std::string::npos)
      << what;
}

TEST(ScenarioFile, RejectsSecondsBeyondSimTime) {
  // 1e300 s overflows SimTime's microseconds: it would run as a negative
  // MRAI.
  for (const char* key : {"mrai", "caution", "flap_s", "processing_max_ms"}) {
    SCOPED_TRACE(key);
    const std::string what = parse_error(
        "topology = clique\nsize = 4\n" + std::string{key} + " = 1e300\n");
    EXPECT_NE(what.find(std::string{key} + " = 1e300 is beyond"),
              std::string::npos)
        << what;
  }
}

TEST(ScenarioFile, RejectsNegativeDelaysAndJitter) {
  for (const char* key :
       {"processing_min_ms", "processing_max_ms", "jitter_lo", "jitter_hi"}) {
    SCOPED_TRACE(key);
    const std::string what = parse_error(
        "topology = clique\nsize = 4\n" + std::string{key} + " = -0.5\n");
    EXPECT_NE(what.find(std::string{key} + " must be non-negative"),
              std::string::npos)
        << what;
  }
}

TEST(ScenarioFile, RejectsTrafficRateBelowOneMicrosecond) {
  // 1e7 packets per second is a 0.1 us interval, which rounds to 0 us.
  const std::string what =
      parse_error("topology = clique\nsize = 4\ntraffic_pps = 1e7\n");
  EXPECT_NE(what.find("traffic_pps = 1e7"), std::string::npos) << what;
  EXPECT_EQ(parse_error("topology = clique\nsize = 4\ntraffic_pps = 1e5\n"),
            "");
}

TEST(ScenarioFile, DestinationAndTlongLinkMustBeInTheTopology) {
  // A 4-node clique has 6 links; either override past them would index
  // out of range in the run.
  std::string what =
      parse_error("topology = clique\nsize = 4\ndestination = 99\n");
  EXPECT_NE(what.find("destination 99 out of range for 4-node topology"),
            std::string::npos)
      << what;
  what = parse_error(
      "topology = clique\nsize = 4\nevent = tlong\ntlong_link = 99\n");
  EXPECT_NE(what.find("tlong_link 99 out of range for 6-link topology"),
            std::string::npos)
      << what;
  EXPECT_EQ(parse_error("topology = bclique\nsize = 4\ndestination = 7\n"),
            "");
}

TEST(ScenarioFile, ParsedScenarioActuallyRuns) {
  const auto s = parse_scenario_string(
      "topology = clique\nsize = 5\nevent = tdown\nseed = 2\n");
  const auto out = run_experiment(s);
  EXPECT_GT(out.metrics.convergence_time_s, 0.0);
}

}  // namespace
}  // namespace bgpsim::core
