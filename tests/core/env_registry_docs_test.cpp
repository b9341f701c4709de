// docs/RUNNING.md's knob table must list exactly the rows of
// core::env::registry(), in registry order: a knob added, removed, or
// renamed on one side only fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "core/env.hpp"

namespace bgpsim::core {
namespace {

/// Knob names from the first table whose header row starts "| Knob": the
/// backquoted first cell of every row after the separator.
std::vector<std::string> documented_knobs(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in) << "cannot open " << path;
  std::vector<std::string> knobs;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (!in_table) {
      in_table = line.starts_with("| Knob");
      continue;
    }
    if (!line.starts_with("|")) break;
    const auto open = line.find('`');
    const auto close = line.find('`', open + 1);
    const auto bar = line.find('|', 1);
    if (open == std::string::npos || close == std::string::npos ||
        open > bar) {
      continue;  // the |---| separator row
    }
    knobs.push_back(line.substr(open + 1, close - open - 1));
  }
  return knobs;
}

TEST(EnvRegistryDocsTest, RunningMdKnobTableMatchesTheRegistry) {
  std::vector<std::string> registered;
  for (const env::Knob& k : env::registry()) registered.emplace_back(k.name);
  const std::vector<std::string> documented =
      documented_knobs(RUNNING_MD_PATH);
  ASSERT_FALSE(documented.empty())
      << "no knob table found in " << RUNNING_MD_PATH;

  for (const std::string& name : registered) {
    EXPECT_NE(std::find(documented.begin(), documented.end(), name),
              documented.end())
        << name << " is in env::registry() but not in the RUNNING.md table";
  }
  for (const std::string& name : documented) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), name),
              registered.end())
        << name << " is in the RUNNING.md table but not in env::registry()";
  }
  EXPECT_EQ(documented, registered) << "the table must follow registry order";
}

}  // namespace
}  // namespace bgpsim::core
