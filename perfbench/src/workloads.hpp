// The benchmark's three workloads and their timed and traced runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 3;
  double seconds = 20;
  bool trace = false;
  std::string pinned;         // fingerprints file; empty: check nothing pinned
  bool emit_prints = false;   // list every trial fingerprint (for pinning)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One pinned or emitted fingerprint: (workload, variant, trial seed).
struct Print {
  std::string variant;
  std::uint64_t trial_seed = 0;
  std::uint64_t value = 0;
};

/// Fingerprints pinned for known seeds: "workload variant seed hex" lines.
class Pins {
 public:
  void load(const std::string& path);
  /// Returns false when the pin exists and differs; true otherwise.
  [[nodiscard]] bool agrees(const std::string& workload, const Print& p) const;
  [[nodiscard]] bool has(const std::string& workload, const Print& p) const;

 private:
  std::map<std::string, std::uint64_t> pins_;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failure reasons
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> meta;  // key, JSON value
  std::vector<Print> prints;                               // emit_prints
  std::uint64_t pinned_checked = 0;

  void fail(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Run one workload as Args asks: the timed run (trace off) reports the
/// end-to-end metrics, the traced run the per-layer metrics.
[[nodiscard]] Report run_workload(const Args& args);

}  // namespace perfbench
