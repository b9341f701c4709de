// Field coverage: every Scenario field is one row of the field table
// (core/scenario_fields.hpp), and these tests walk the table. A new row is
// held to the file, wire and prelude-hash contracts as soon as it has a
// variant below, and to the fuzzer unless it joins the exclusion list.
#include "core/scenario_fields.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "core/fuzz.hpp"
#include "core/ls_experiment.hpp"
#include "core/scenario_file.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

/// A value of a row that differs from the base scenario's, and the keys to
/// set first, in the base and the varied scenario alike, for it to apply.
struct Variant {
  std::string value;
  std::vector<std::pair<std::string, std::string>> context = {};
};

class ScenarioFieldsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = ::testing::TempDir();
    rel_a_ = dir + "scenario_fields_a.rel";
    rel_b_ = dir + "scenario_fields_b.rel";
    std::ofstream{rel_a_} << "1|2|-1\n2|3|-1\n1|3|0\n";
    std::ofstream{rel_b_} << "1|2|-1\n2|3|-1\n1|3|-1\n";
  }
  void TearDown() override {
    std::remove(rel_a_.c_str());
    std::remove(rel_b_.c_str());
  }

  [[nodiscard]] std::map<std::string, Variant> variants() const {
    return {
        {"topology", {"ring"}},
        {"size", {"7"}},
        {"rel_file",
         {rel_b_, {{"topology", "relfile"}, {"rel_file", rel_a_}}}},
        {"topo_seed", {"9"}},
        {"event", {"tup"}},
        {"seed", {"2"}},
        {"destination", {"3"}},
        {"tlong_link", {"2"}},
        {"processing_min_ms", {"50"}},
        {"processing_max_ms", {"400"}},
        {"traffic_pps", {"20"}},
        {"ttl", {"64"}},
        {"stagger", {"false"}},
        {"traffic_lead", {"1"}},
        {"settle_margin", {"6"}},
        {"max_sim_time", {"100"}},
        {"snap_roundtrip", {"verify"}},
        {"snap_roundtrip_after", {"3"}},
        {"protocol", {"wrate"}},
        {"mrai", {"12.5"}},
        {"jitter_lo", {"0.5"}},
        {"jitter_hi", {"0.9"}},
        {"caution", {"2"}},
        {"policy", {"true"}},
        {"prefixes", {"4"}},
        {"origins", {"1,2", {{"prefixes", "4"}}}},
        {"flap_s", {"9"}},
    };
  }

  std::string rel_a_;
  std::string rel_b_;
};

/// Set any row of `s` (file or wire-only) from its text.
void set(Scenario& s, const std::string& key, const std::string& value) {
  bool found = false;
  for_each_field([&](const auto& f) {
    if (f.key != key) return;
    f.parse(s, f.key, value);
    found = true;
  });
  ASSERT_TRUE(found) << key;
}

void set_shared(ScenarioBase& s, const std::string& key,
                const std::string& value) {
  for (const Field<ScenarioBase>& f : shared_fields()) {
    if (f.key == key) f.parse(s, f.key, value);
  }
}

std::vector<std::uint8_t> wire(const Scenario& s) {
  snap::Writer w;
  svc::write_scenario(w, s);
  return w.bytes();
}

Scenario base_scenario() {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  return s;
}

TEST_F(ScenarioFieldsTest, EveryRowRoundTripsAndShapesThePreludeByPhase) {
  const std::map<std::string, Variant> all = variants();
  std::set<std::string> keys;
  for_each_field([&](const auto& f) {
    const std::string key{f.key};
    SCOPED_TRACE(key);
    ASSERT_TRUE(keys.insert(key).second) << "duplicate row";
    const auto variant = all.find(key);
    ASSERT_NE(variant, all.end()) << "a new row needs a variant here";
    Scenario base = base_scenario();
    for (const auto& [k, v] : variant->second.context) set(base, k, v);
    Scenario varied = base;
    f.parse(varied, f.key, variant->second.value);
    ASSERT_NE(f.format(varied), f.format(base)) << "the variant is a no-op";

    // Wire: every row survives write_scenario / read_scenario.
    const std::vector<std::uint8_t> bytes = wire(varied);
    snap::Reader r{bytes};
    const Scenario decoded = svc::read_scenario(r);
    r.finish();
    EXPECT_EQ(f.format(decoded), f.format(varied));
    EXPECT_EQ(wire(decoded), bytes);

    // File: every file row survives to_scenario_text / parse_scenario.
    if (f.exposure == Exposure::kFile) {
      const std::string text = to_scenario_text(varied);
      EXPECT_EQ(wire(parse_scenario_string(text)), bytes) << text;
    }

    // Prelude hash: moved by exactly the prelude-phase rows.
    const bool prelude = f.phase == Phase::kPrelude;
    EXPECT_EQ(scenario_prelude_hash(varied) != scenario_prelude_hash(base),
              prelude);
  });
  EXPECT_EQ(keys.size(), all.size()) << "a variant names no row";
}

TEST_F(ScenarioFieldsTest, SharedRowsShapeEveryDriversPreludeAlike) {
  // The DV and LS prelude hashes take the same shared rows as the BGP one.
  const std::map<std::string, Variant> all = variants();
  for (const Field<ScenarioBase>& f : shared_fields()) {
    SCOPED_TRACE(std::string{f.key});
    const Variant& variant = all.at(std::string{f.key});
    DvScenario dv;
    LsScenario ls;
    for (ScenarioBase* s : {static_cast<ScenarioBase*>(&dv),
                            static_cast<ScenarioBase*>(&ls)}) {
      s->topology.kind = TopologyKind::kClique;
      s->topology.size = 6;
      for (const auto& [k, v] : variant.context) set_shared(*s, k, v);
    }
    DvScenario dv_varied = dv;
    LsScenario ls_varied = ls;
    f.parse(dv_varied, f.key, variant.value);
    f.parse(ls_varied, f.key, variant.value);
    const bool prelude = f.phase == Phase::kPrelude;
    EXPECT_EQ(dv_prelude_hash(dv_varied) != dv_prelude_hash(dv), prelude);
    EXPECT_EQ(ls_prelude_hash(ls_varied) != ls_prelude_hash(ls), prelude);
  }
}

TEST(ScenarioFieldsFuzzTest, FuzzerVariesEveryFileRowButTheExcludedOnes) {
  // File rows the fuzzer leaves at their defaults: a rel file needs input
  // on disk, fixed targets override what the run chooses, the fuzzer runs
  // the paper's shortest-path policy, and the processing delays, traffic
  // and jitter_hi stay at the paper's §4.2 values.
  const std::set<std::string> excluded = {
      "rel_file",          "destination", "tlong_link", "processing_min_ms",
      "processing_max_ms", "traffic_pps", "ttl",        "policy",
      "jitter_hi"};
  std::map<std::string, std::set<std::string>> seen;
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    const Scenario s = fuzz_scenario(seed, /*multiprefix=*/seed % 2 == 1);
    for_each_field([&](const auto& f) {
      if (f.exposure == Exposure::kFile) {
        seen[std::string{f.key}].insert(f.format(s).value_or("(unset)"));
      }
    });
  }
  for (const auto& [key, values] : seen) {
    SCOPED_TRACE(key);
    EXPECT_EQ(values.size() > 1, !excluded.contains(key))
        << values.size() << " distinct value(s)";
  }
}

}  // namespace
}  // namespace bgpsim::core
