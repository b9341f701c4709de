// Shared flag parsing for the example CLIs.
//
// Every example binary used to carry its own copy of the same argv loop:
// a `value()` helper that exits through usage() when a flag's operand is
// missing, plus an if/else chain over the scenario-shaping flags. Args is
// that loop as a cursor, and apply_scenario_flag() is the shared chain —
// a CLI handles its own flags first (or asks apply_scenario_flag to try)
// and calls fail() for anything left over.
//
//   cli::Args args{argc, argv, usage};
//   while (args.next()) {
//     if (cli::apply_scenario_flag(args, scenario)) continue;
//     if (args.arg() == "--trials") trials = args.value_size();
//     else args.fail();
//   }
//
// Numeric operands are parsed strictly: trailing garbage ("10x") exits
// through usage() instead of being silently truncated.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/scenario.hpp"
#include "core/scenario_file.hpp"

namespace bgpsim::cli {

/// Cursor over argv. next() advances to each flag in turn; value() and
/// the typed variants consume the flag's operand. Malformed input exits
/// the process through the usage handler, which must not return (it
/// should print and std::exit(2)).
class Args {
 public:
  using UsageFn = void (*)(const char* argv0);

  Args(int argc, char** argv, UsageFn usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Advance to the next flag. False once argv is exhausted.
  bool next() {
    if (i_ + 1 >= argc_) return false;
    arg_ = argv_[++i_];
    return true;
  }

  /// The flag next() stopped on.
  [[nodiscard]] const std::string& arg() const { return arg_; }

  /// Consume the current flag's operand; exits via usage if missing.
  const char* value() {
    if (i_ + 1 >= argc_) fail();
    return argv_[++i_];
  }

  /// The next token without consuming it; nullptr at the end of argv.
  /// For flags with an *optional* operand (bgpsimd --listen [PORT]).
  [[nodiscard]] const char* peek() const {
    return i_ + 1 >= argc_ ? nullptr : argv_[i_ + 1];
  }

  /// value() parsed as a non-negative integer; exits on garbage.
  std::size_t value_size() {
    return static_cast<std::size_t>(value_u64());
  }

  std::uint64_t value_u64() {
    const char* v = value();
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0') fail();
    return parsed;
  }

  double value_double() {
    const char* v = value();
    char* end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0') fail();
    return parsed;
  }

  /// Exit through the usage handler (unknown flag, bad operand).
  [[noreturn]] void fail() const {
    usage_(argv_[0]);
    std::abort();  // unreachable: the usage handler exits
  }

  /// Print "<prog>: <why>" and exit 2 (an operand the usage line cannot
  /// explain, such as an unreadable --file).
  [[noreturn]] void fail(const std::string& why) const {
    const char* slash = std::strrchr(argv_[0], '/');
    std::fprintf(stderr, "%s: %s\n", slash ? slash + 1 : argv_[0],
                 why.c_str());
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  UsageFn usage_;
  int i_ = 0;
  std::string arg_;
};

/// The scenario-shaping flags shared by run_scenario and run_campaign,
/// for splicing into a usage string.
inline constexpr const char* kScenarioUsage =
    "[--file SCENARIO] "
    "[--topo clique|bclique|chain|ring|internet|asgraph|relfile] "
    "[--size N] [--rel-file PATH] [--event tdown|tlong|tup|flap] "
    "[--proto bgp|ssld|wrate|assertion|ghost] [--mrai SECONDS] [--seed S] "
    "[--policy] [--prefixes P]";

/// Try the current flag against the shared scenario flags; true when it
/// was one of them (operand consumed, `s` updated). Each flag sets the
/// scenario-file key of the same meaning through core::apply_scenario_key,
/// so names and validation are the file format's; a bad operand exits 2
/// with the parser's message. --file replaces the whole scenario, so it
/// must precede any flag it should not override. --seed seeds both the
/// trial RNG and the topology generator, matching every CLI's historical
/// behavior.
inline bool apply_scenario_flag(Args& a, core::Scenario& s) {
  const std::string& arg = a.arg();
  const auto set = [&s](const char* key, const std::string& value) {
    core::apply_scenario_key(s, key, value);
  };
  try {
    if (arg == "--file") {
      s = core::load_scenario_file(a.value());
    } else if (arg == "--topo") {
      set("topology", a.value());
    } else if (arg == "--size") {
      set("size", a.value());
    } else if (arg == "--rel-file") {
      set("topology", "relfile");
      set("rel_file", a.value());
    } else if (arg == "--event") {
      set("event", a.value());
    } else if (arg == "--proto") {
      set("protocol", a.value());
    } else if (arg == "--mrai") {
      set("mrai", a.value());
    } else if (arg == "--seed") {
      const std::string seed = a.value();
      set("seed", seed);
      set("topo_seed", seed);
    } else if (arg == "--policy") {
      s.policy_routing = true;
    } else if (arg == "--prefixes") {
      set("prefixes", a.value());
    } else {
      return false;
    }
  } catch (const std::runtime_error& e) {
    a.fail(e.what());
  }
  return true;
}

}  // namespace bgpsim::cli
