// Deterministic scenario fuzzer: random topologies, events, and protocol
// settings, every run checked by the full invariant oracle.
//
//   fuzz_scenarios [--iters N] [--seed S] [--verbose] [--snap-check]
//                  [--multiprefix]
//   fuzz_scenarios --replay SCENARIO_SEED [--snap-check] [--multiprefix]
//   fuzz_scenarios --canary [...]     # arm a deliberately wrong invariant
//                                     # to demonstrate the failure path
//
// --snap-check runs every iteration twice — with and without a seed-derived
// mid-run snapshot save/restore/re-save round-trip — and fails (with a
// --replay line) if the round-trip changes the outcome fingerprint.
//
// --multiprefix additionally draws a prefix count from {2, 4, 8, 16} (and
// sometimes scattered origins) per scenario, fuzzing the SoA RIB and
// batched decision paths; composes with --snap-check.
//
// BGPSIM_FUZZ_ITERS overrides the default iteration count (100).
// Exit status: 0 = every iteration clean, 1 = failures (replay lines
// printed), 2 = bad usage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "check/invariants.hpp"
#include "check/oracle.hpp"
#include "cli.hpp"
#include "core/env.hpp"
#include "core/fuzz.hpp"

namespace {

using namespace bgpsim;

/// A deliberately inverted poison-reverse check: it reports every path
/// that does NOT contain the adopter — i.e. every correct adoption. Any
/// fuzz iteration that installs a route must trip it, which exercises the
/// whole failure-reporting / --replay pipeline end to end.
class CanaryInvariant final : public check::Invariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "canary"; }
  void on_route_installed(net::NodeId node, net::Prefix,
                          const std::optional<bgp::AsPath>& best,
                          sim::SimTime at) override {
    if (!best) return;
    std::size_t self_hops = 0;
    for (net::NodeId hop : best->hops()) self_hops += hop == node ? 1 : 0;
    if (self_hops <= 1) {
      report(at, node, "canary (inverted poison reverse): adopted path " +
                           best->to_string() + " lacks a second " +
                           std::to_string(node));
    }
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--iters N] [--seed S] [--replay SCENARIO_SEED] "
               "[--verbose] [--canary] [--snap-check] [--multiprefix]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  core::FuzzOptions options;
  options.iters = core::env::fuzz_iters(100);
  options.out = &std::cout;
  std::optional<std::uint64_t> replay;
  bool canary = false;

  cli::Args args{argc, argv, usage};
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--iters") {
      options.iters = args.value_size();
    } else if (arg == "--seed") {
      options.seed = args.value_u64();
    } else if (arg == "--replay") {
      replay = args.value_u64();
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--canary") {
      canary = true;
    } else if (arg == "--snap-check") {
      options.snap_check = true;
    } else if (arg == "--multiprefix") {
      options.multiprefix = true;
    } else {
      args.fail();
    }
  }

  if (canary) {
    options.make_oracle = [] {
      check::Oracle oracle = check::Oracle::standard();
      oracle.add(std::make_unique<CanaryInvariant>());
      return oracle;
    };
  }

  if (replay) {
    const auto failure = core::replay_fuzz_scenario(*replay, options);
    return failure ? 1 : 0;
  }

  const core::FuzzReport report = core::run_fuzz(options);
  std::printf("fuzz: %zu iteration(s), %zu failure(s), digest %016llx\n",
              report.iterations, report.failures.size(),
              static_cast<unsigned long long>(report.digest));
  return report.ok() ? 0 : 1;
}
