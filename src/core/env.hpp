// The BGPSIM_* environment-knob registry.
//
// Every runtime knob the tree reads is declared here, once, with its
// default and its documentation — docs/RUNNING.md's knob table mirrors
// this registry (see registry() below; tests/core/env_registry_docs_test
// fails when they disagree). Each knob has a typed accessor;
// RunOptions::defaults() is built from these, so a knob set in the
// environment flows into every runner that doesn't explicitly override
// the corresponding option.
//
// Parsing (and the warn-on-garbage contract) is sim::env_u64_or — one
// parser for the whole tree, shared even by layers below core (snap/'s
// BGPSIM_SNAP_CACHE read). BGPSIM_SANITIZE is absent here on purpose:
// it is a CMake configure-time option, not a runtime knob.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bgpsim::core::env {

/// One registry row: knob name, human-readable default, one-line doc.
struct Knob {
  const char* name;
  const char* fallback;
  const char* doc;
};

/// Every runtime BGPSIM_* knob, in docs/RUNNING.md table order.
[[nodiscard]] std::span<const Knob> registry();

/// Legacy spelling of sim::env_u64_or, kept because call sites and tests
/// predate the registry. Prefer the typed accessors below.
[[nodiscard]] std::size_t u64_or(const char* name, std::size_t fallback);

// ---- typed accessors, one per registry row -------------------------------

/// BGPSIM_JOBS: worker threads per in-process run (run_trials fan-out).
/// Default: std::thread::hardware_concurrency(), never less than 1.
[[nodiscard]] std::size_t jobs();

/// BGPSIM_WORKERS: campaign worker processes (run_campaign). Default:
/// jobs().
[[nodiscard]] std::size_t workers();

/// BGPSIM_TRIALS: trials per bench data point. Default: per bench.
[[nodiscard]] std::size_t trials(std::size_t fallback);

/// BGPSIM_FULL=1: benches sweep the paper's full size range.
[[nodiscard]] bool full_run();

/// BGPSIM_CSV=1: benches append CSV dumps after each table.
[[nodiscard]] bool csv();

/// BGPSIM_JSON=DIR: drop BENCH_<bench>.json artifacts into DIR
/// (schema bgpsim-bench-1). nullptr when unset.
[[nodiscard]] const char* json_dir();

/// BGPSIM_FUZZ_ITERS: fuzz_scenarios default iteration count.
[[nodiscard]] std::size_t fuzz_iters(std::size_t fallback);

/// BGPSIM_SNAP_CACHE: PreludeCache capacity in snapshots; 0 disables
/// warm-start caching. Default 32.
[[nodiscard]] std::size_t snap_cache_capacity();

/// BGPSIM_PREFIXES: prefix-count cap for the multi-prefix bench sweep
/// (headline_multiprefix skips sweep points above it) and the fuzzer's
/// multi-prefix mode. Default 256; 0 is clamped to 1.
[[nodiscard]] std::size_t prefixes_cap();

/// BGPSIM_PATH_INTERN: per-experiment AS-path interning (bgp::PathStore);
/// 0 disables (plain structural sharing, for A/B digest checks). Default 1.
[[nodiscard]] bool path_interning();

/// BGPSIM_JOURNAL_DIR: directory where bgpsimd and run_campaign --journal
/// place campaign journals when given a bare file name instead of a path.
/// nullptr when unset.
[[nodiscard]] const char* journal_dir();

/// BGPSIM_ADMIN_SOCK: default unix-socket path for the bgpsimd admin
/// interface, used by bgpsimd and campaign_ctl when --admin is not given.
/// nullptr when unset.
[[nodiscard]] const char* admin_sock();

/// BGPSIM_POLICY_SIZES: comma-separated AS-graph node counts for the
/// policy-scale bench (headline_policy_scale). Default {1000, 10000},
/// plus 75000 when BGPSIM_FULL=1; an explicit value replaces the whole
/// list (BGPSIM_FULL does not append to it). A garbled list warns on
/// stderr and falls back to the default, like every other knob.
[[nodiscard]] std::vector<std::size_t> policy_sizes();

}  // namespace bgpsim::core::env
