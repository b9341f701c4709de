// The paper's headline numbers (§1/§6): on a 110-node Internet-derived
// topology, a Tdown event gave a convergence time of ~527 s and up to 86%
// of packets sent during convergence encountered loops.
#include <chrono>

#include "common.hpp"

int main() {
  using namespace bgpsim;
  using namespace bgpsim::bench;
  using bgpsim::bench::check;  // not the bgpsim::check namespace

  print_header("Headline (110-node Tdown)",
               "paper: ~527 s convergence, up to 86% looping ratio");

  const std::size_t n_trials = trials(full_run() ? 3 : 1);
  const auto set = run_point(core::TopologyKind::kInternet, 110,
                             core::EventKind::kTdown,
                             bgp::Enhancement::kStandard, 30.0, n_trials,
                             /*seed=*/3);

  core::Table table{{"trial", "convergence (s)", "looping duration (s)",
                     "TTL exhaustions", "looping ratio", "loops formed"}};
  for (std::size_t i = 0; i < set.runs.size(); ++i) {
    const auto& m = set.runs[i].metrics;
    table.add_row({std::to_string(i), core::fmt(m.convergence_time_s, 1),
                   core::fmt(m.looping_duration_s, 1),
                   std::to_string(m.ttl_exhaustions),
                   core::fmt_pct(m.looping_ratio, 1),
                   std::to_string(m.loops_formed)});
  }
  table.print(std::cout);
  maybe_csv(table);

  std::printf("\npaper vs measured:\n");
  std::printf("  convergence : paper ~527 s, measured %.1f s (mean)\n",
              set.convergence_time_s.mean);
  std::printf("  loop ratio  : paper up to 86%%, measured %s (mean)\n",
              core::fmt_pct(set.looping_ratio.mean, 1).c_str());

  std::printf("\nshape checks vs the paper:\n");
  check(set.convergence_time_s.mean > 250 && set.convergence_time_s.mean < 900,
        "convergence in the several-hundred-seconds band");
  check(set.looping_ratio.mean > 0.6, "looping ratio in the 60-90% band");
  check(set.convergence_time_s.mean - set.looping_duration_s.mean < 15,
        "looping persists throughout convergence");

  // Convergence hot-loop wall clock: the same headline scenario, timed
  // cold (no prelude cache), with shared and with interned AS paths. Both
  // runs are bit-identical in output (checked below), so the wall-clock
  // delta is pure engine speed — the numbers the BENCH_ artifact tracks
  // over time.
  std::printf("\nconvergence hot-loop wall clock (1 cold trial):\n");
  core::Scenario hot;
  hot.topology.kind = core::TopologyKind::kInternet;
  hot.topology.size = 110;
  hot.topology.topo_seed = 3;
  hot.event = core::EventKind::kTdown;
  hot.bgp.mrai = sim::SimTime::seconds(30.0);
  hot.seed = 3;
  const auto timed = [&](bool interning) {
    core::RunOptions options;
    options.trials = 1;
    options.jobs = 1;
    options.snap_cache = false;
    options.path_interning = interning;
    const auto start = std::chrono::steady_clock::now();
    core::TrialSet result = core::run_trials(hot, options);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::pair{wall_s, std::move(result)};
  };
  const auto [plain_s, plain] = timed(false);
  const auto [interned_s, interned] = timed(true);

  core::Table hot_table{
      {"config", "wall clock (s)", "convergence (s)", "events fired"}};
  const auto hot_row = [&](const char* config, double wall_s,
                           const core::TrialSet& r) {
    hot_table.add_row({config, core::fmt(wall_s, 2),
                       core::fmt(r.convergence_time_s.mean, 1),
                       std::to_string(r.runs.front().events_fired)});
  };
  hot_row("shared paths", plain_s, plain);
  hot_row("interned paths", interned_s, interned);
  hot_table.print(std::cout);
  emit_table(hot_table, "convergence hot-loop wall clock");

  check(interned.convergence_time_s.mean == plain.convergence_time_s.mean &&
            interned.runs.front().events_fired ==
                plain.runs.front().events_fired,
        "interning is output-invariant on the headline scenario");
  return 0;
}
