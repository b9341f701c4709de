#include "workloads.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/selection.hpp"
#include "core/sweep.hpp"
#include "fingerprint.hpp"
#include "replay.hpp"
#include "sim/random.hpp"
#include "snap/cache.hpp"
#include "snap/codec.hpp"
#include "svc/coordinator.hpp"
#include "svc/protocol.hpp"

namespace perfbench {
namespace {

using namespace bgpsim;
using Wall = std::chrono::steady_clock;

/// CPU time of this process, all threads. The timed paths measure it
/// instead of wall time: on a shared host, time spent waiting for a CPU
/// (including time the hypervisor steals) is not the program's work.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point{std::chrono::seconds{ts.tv_sec} +
                      std::chrono::nanoseconds{ts.tv_nsec}};
  }
};

template <class TimePoint>
double since(TimePoint start) {
  return std::chrono::duration<double>(TimePoint::clock::now() - start)
      .count();
}

/// CPU seconds of every child this process has reaped.
double children_cpu_s() {
  struct rusage usage {};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Peak resident set of this process in MiB.
double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Peak resident set (VmHWM) of a live child process in MiB; 0 if gone.
double peak_rss_mb(pid_t pid) {
  std::ifstream status{"/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

template <class T>
std::string json_list(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

/// Trial i of a TrialSet, as core::run_single_trial derives it.
core::Scenario trial_of(const core::Scenario& base, std::size_t i) {
  core::Scenario s = base;
  s.seed = base.seed + i;
  if (core::generated_topology(s.topology.kind)) {
    s.topology.topo_seed = base.topology.topo_seed + i;
  }
  return s;
}

/// Generated inputs must be usable: a disconnected topology would make a
/// trial measure something other than the workload.
void validate(const core::Scenario& s) {
  const net::Topology topo = s.topology.build();
  if (topo.node_count() == 0 || !topo.connected()) {
    throw std::runtime_error{"generated topology " + s.topology.label() +
                             " is not connected"};
  }
}

// ---- workload inputs ------------------------------------------------------

constexpr std::size_t kHeadlineTrials = 24;
constexpr std::size_t kInputSetups = 11;
constexpr std::size_t kFulltablePrefixes = 512;
constexpr std::size_t kFulltableOrigins = 4;
constexpr std::size_t kFulltableTables = 2;
constexpr std::size_t kFulltableSetups = 2;
constexpr std::size_t kCampaignTrials = 16;

core::Scenario internet110(std::uint64_t seed) {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kInternet;
  s.topology.size = 110;
  s.topology.topo_seed = seed;
  s.seed = seed;
  s.event = core::EventKind::kTdown;
  s.bgp.mrai = sim::SimTime::seconds(30);
  return s;
}

/// headline: the paper's 110-node Tdown, default traffic; trial i of the
/// set is seed + i.
std::vector<core::Scenario> headline_trials(std::uint64_t seed) {
  const core::Scenario base = internet110(seed);
  std::vector<core::Scenario> trials;
  for (std::size_t i = 0; i < kHeadlineTrials; ++i) {
    trials.push_back(trial_of(base, i));
  }
  return trials;
}

/// fulltable: P prefixes; prefix 0 at the destination, the rest at the
/// highest-degree ASes other than it, so Tdown withdraws prefix 0 only.
/// Each table (seed, seed + 1, ...) has a cold set-up trial; its what-ifs
/// change only the post-event traffic (rate per source, TTL) and share its
/// prelude.
struct FulltableVariant {
  std::string name;
  double rate_pps = 1;
  int ttl = 128;
};

const std::vector<FulltableVariant>& fulltable_whatifs() {
  static const std::vector<FulltableVariant> v = [] {
    std::vector<FulltableVariant> out;
    int k = 0;
    for (const double rate : {0.5, 1.0, 2.0, 4.0}) {
      for (const int ttl : {64, 128}) {
        out.push_back({"w" + std::to_string(k++), rate, ttl});
      }
    }
    return out;
  }();
  return v;
}

core::Scenario fulltable_cold(std::uint64_t seed) {
  core::Scenario s = internet110(seed);
  net::Topology topo = s.topology.build();
  sim::Rng root{s.seed};
  sim::Rng rng = root.child("scenario");
  const net::NodeId destination = core::choose_destination(
      s.topology.kind, s.event, std::nullopt, topo, rng);
  std::vector<net::NodeId> others;
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    if (n != destination) others.push_back(n);
  }
  std::stable_sort(others.begin(), others.end(),
                   [&](net::NodeId a, net::NodeId b) {
                     return topo.degree(a) > topo.degree(b);
                   });
  others.resize(kFulltableOrigins);
  s.destination = destination;
  s.prefixes = kFulltablePrefixes;
  s.origins = others;
  s.traffic.interval = sim::SimTime::seconds(1);
  return s;
}

core::Scenario fulltable_whatif(const core::Scenario& cold,
                                const FulltableVariant& v) {
  core::Scenario s = cold;
  s.traffic.interval = sim::SimTime::seconds(1.0 / v.rate_pps);
  s.traffic.ttl = v.ttl;
  return s;
}

/// campaign: the Fig 8/9 enhancement comparison as one campaign.
svc::CampaignSpec campaign_spec(std::uint64_t seed) {
  svc::CampaignSpec spec;
  spec.run.trials = kCampaignTrials;
  spec.unit_trials = 1;
  for (const bool tlong : {false, true}) {
    for (const std::size_t size : {5, 10, 15}) {
      for (const bgp::Enhancement e : bgp::kAllEnhancements) {
        core::Scenario s;
        s.topology.kind =
            tlong ? core::TopologyKind::kBClique : core::TopologyKind::kClique;
        s.topology.size = size;
        s.event = tlong ? core::EventKind::kTlong : core::EventKind::kTdown;
        s.bgp = s.bgp.with(e);
        s.seed = seed;
        spec.scenarios.push_back(s);
      }
    }
  }
  return spec;
}

/// Pin variant of the campaign's k-th scenario.
std::string scenario_variant(std::size_t k) {
  std::string v = "s";
  v += std::to_string(k);
  return v;
}

std::size_t campaign_workers() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<std::size_t>(std::clamp<long>(n, 1, 2));
}

// ---- checking ---------------------------------------------------------------

/// Checks one executed trial: against its pin and, when a reference from an
/// earlier round exists, against that.
class Checker {
 public:
  Checker(const std::string& workload, const Pins& pins, Report& report,
          bool emit)
      : workload_{workload}, pins_{pins}, report_{report}, emit_{emit} {}

  /// Record one trial outcome.
  void check(const std::string& variant, std::uint64_t trial_seed,
             const core::ExperimentOutcome& outcome) {
    ++report_.attempted;
    const Print p{variant, trial_seed, fingerprint(outcome)};
    const std::string key = variant + "/" + std::to_string(trial_seed);
    const auto seen = first_.find(key);
    if (seen == first_.end()) {
      first_.emplace(key, p.value);
      if (emit_) report_.prints.push_back(p);
      if (pins_.has(workload_, p)) ++report_.pinned_checked;
    } else if (seen->second != p.value) {
      report_.fail(workload_ + " " + key + ": fingerprint " + hex(p.value) +
                   " differs from the first run's " + hex(seen->second));
      return;
    }
    if (!pins_.agrees(workload_, p)) {
      report_.fail(workload_ + " " + key + ": fingerprint " + hex(p.value) +
                   " does not match the pinned value");
    }
  }

  /// Record a trial that threw.
  void error(const std::string& variant, std::uint64_t trial_seed,
             const std::string& what) {
    ++report_.attempted;
    report_.fail(workload_ + " " + variant + "/" +
                 std::to_string(trial_seed) + " threw: " + what);
  }

 private:
  std::string workload_;
  const Pins& pins_;
  Report& report_;
  bool emit_;
  std::map<std::string, std::uint64_t> first_;
};

struct TimedTrial {
  std::optional<core::ExperimentOutcome> outcome;
  double seconds = 0;
};

/// One in-process trial through core::run_single_trial; a throw is a
/// failed trial, not an aborted benchmark.
TimedTrial timed_trial(Checker& checker, const std::string& variant,
                       const core::Scenario& base, bool cache) {
  TimedTrial t;
  const CpuClock::time_point start = CpuClock::now();
  try {
    t.outcome = core::run_single_trial(base, 0, cache);
    t.seconds = since(start);
    checker.check(variant, base.seed, *t.outcome);
  } catch (const std::exception& e) {
    t.seconds = since(start);
    checker.error(variant, base.seed, e.what());
  }
  return t;
}

/// Runs `round` once, then again while one more round, as long as the
/// longest so far, would still end within `seconds` of the first's start.
template <class Round>
void repeat_rounds(double seconds, Round round) {
  const Wall::time_point start = Wall::now();
  double longest = 0;
  do {
    const Wall::time_point round_start = Wall::now();
    round();
    longest = std::max(longest, since(round_start));
  } while (since(start) + longest <= seconds);
}

void add_end_to_end(Report& r, const std::vector<double>& setups,
                    const std::vector<double>& rounds, double trials_per_round,
                    double peak_mb) {
  const double cpu = median(rounds);
  r.add("cpu_s", cpu, "s");
  r.add("setup_s", median(setups), "s");
  r.add("trials_per_cpu_s", cpu > 0 ? trials_per_round / cpu : 0, "1/s");
  r.add("peak_rss_mb", peak_mb, "MiB");
  r.meta.emplace_back("rounds", std::to_string(rounds.size()));
  r.meta.emplace_back("round_cpu_s", json_list(rounds));
  r.meta.emplace_back("setups", std::to_string(setups.size()));
  r.meta.emplace_back("trials_per_round",
                      std::to_string(static_cast<long>(trials_per_round)));
}

// ---- timed runs (trace off) -------------------------------------------------

Report timed_headline(const Args& args, const Pins& pins) {
  Report r;
  Checker checker{"headline", pins, r, args.emit_prints};
  std::vector<double> setups;
  std::vector<core::Scenario> trials;
  for (std::size_t k = 0; k < kInputSetups; ++k) {
    const CpuClock::time_point start = CpuClock::now();
    trials = headline_trials(args.seed);
    for (const auto& s : trials) validate(s);
    setups.push_back(since(start));
  }
  std::vector<double> rounds;
  std::vector<double> trial_times;
  repeat_rounds(args.seconds, [&] {
    const CpuClock::time_point round_start = CpuClock::now();
    for (const auto& s : trials) {
      trial_times.push_back(timed_trial(checker, "t", s, false).seconds);
    }
    rounds.push_back(since(round_start));
  });
  add_end_to_end(r, setups, rounds, static_cast<double>(trials.size()),
                 peak_rss_mb());
  r.meta.emplace_back("trial_p50_s", std::to_string(median(trial_times)));
  r.meta.emplace_back("trial_cpu_s", json_list(trial_times));
  std::vector<std::uint64_t> seeds;
  for (const auto& s : trials) seeds.push_back(s.seed);
  r.meta.emplace_back("trial_seeds", json_list(seeds));
  return r;
}

Report timed_fulltable(const Args& args, const Pins& pins) {
  Report r;
  Checker checker{"fulltable", pins, r, args.emit_prints};
  auto& cache = snap::PreludeCache::instance();
  if (!cache.enabled()) cache.set_capacity(snap::PreludeCache::kDefaultCapacity);

  std::vector<double> setups;
  std::vector<core::Scenario> colds(kFulltableTables);
  for (std::size_t k = 0; k < kFulltableSetups; ++k) {
    cache.clear();
    const CpuClock::time_point start = CpuClock::now();
    for (std::size_t t = 0; t < kFulltableTables; ++t) {
      colds[t] = fulltable_cold(args.seed + t);
      (void)timed_trial(checker, "cold", colds[t], true);
    }
    setups.push_back(since(start));
  }
  std::vector<core::Scenario> whatifs;
  std::vector<std::string> variants;
  for (const core::Scenario& cold : colds) {
    for (const auto& v : fulltable_whatifs()) {
      whatifs.push_back(fulltable_whatif(cold, v));
      variants.push_back(v.name);
    }
  }
  cache.reset_stats();
  std::vector<double> rounds;
  std::vector<double> trial_times;
  repeat_rounds(args.seconds, [&] {
    const CpuClock::time_point round_start = CpuClock::now();
    for (std::size_t k = 0; k < whatifs.size(); ++k) {
      trial_times.push_back(
          timed_trial(checker, variants[k], whatifs[k], true).seconds);
    }
    rounds.push_back(since(round_start));
  });
  if (cache.misses() != 0) {
    r.fail("fulltable: " + std::to_string(cache.misses()) +
           " what-if trial(s) missed the prelude cache");
  }
  add_end_to_end(r, setups, rounds, static_cast<double>(whatifs.size()),
                 peak_rss_mb());
  r.meta.emplace_back("trial_p50_s", std::to_string(median(trial_times)));
  std::vector<std::uint64_t> seeds;
  for (const auto& cold : colds) seeds.push_back(cold.seed);
  r.meta.emplace_back("trial_seeds", json_list(seeds));
  r.meta.emplace_back("cache_hits", std::to_string(cache.hits()));
  return r;
}

/// One campaign through a fork-worker Coordinator, split into worker
/// spawn (set-up) and the run.
struct CampaignRound {
  std::optional<svc::CampaignResult> result;
  std::string error;
  double spawn_s = 0;                 // coordinator CPU
  double run_s = 0;                   // wall
  double cpu_s = 0;                   // coordinator run + workers' lifetime
  double peak_mb = 0;                 // coordinator + every worker
  std::vector<double> done_at_s;      // per on_unit_done, from run start
};

CampaignRound campaign_round(const svc::CampaignSpec& spec,
                             std::size_t workers) {
  CampaignRound round;
  const std::size_t units = spec.scenarios.size() * spec.run.trials;
  Wall::time_point run_start;
  svc::CampaignOptions options;
  options.on_unit_done = [&](svc::Coordinator& c, std::size_t done) {
    round.done_at_s.push_back(since(run_start));
    if (done != units) return;
    double total = peak_rss_mb();
    for (std::size_t i = 0; i < c.worker_count(); ++i) {
      const pid_t pid = c.worker_pid(i);
      if (pid > 0) total += peak_rss_mb(pid);
    }
    round.peak_mb = total;
  };
  const double children_start = children_cpu_s();
  try {
    const CpuClock::time_point spawn_start = CpuClock::now();
    svc::Coordinator coordinator{spec, std::move(options)};
    for (std::size_t i = 0; i < workers; ++i) coordinator.spawn_fork_worker();
    round.spawn_s = since(spawn_start);
    run_start = Wall::now();
    const CpuClock::time_point cpu_start = CpuClock::now();
    // run() shuts the workers down and reaps them before it returns.
    round.result = coordinator.run();
    round.run_s = since(run_start);
    round.cpu_s = since(cpu_start) + children_cpu_s() - children_start;
  } catch (const std::exception& e) {
    round.error = e.what();
  }
  return round;
}

/// Check every trial of a campaign result; a failed round fails all its
/// trials (none of its outcomes came back).
void check_campaign(Checker& checker, const svc::CampaignSpec& spec,
                    const CampaignRound& round) {
  for (std::size_t k = 0; k < spec.scenarios.size(); ++k) {
    for (std::size_t i = 0; i < spec.run.trials; ++i) {
      const std::string variant = scenario_variant(k);
      const std::uint64_t seed = spec.scenarios[k].seed + i;
      if (!round.result) {
        checker.error(variant, seed, round.error);
      } else {
        checker.check(variant, seed, round.result->sets[k].runs[i]);
      }
    }
  }
}

Report timed_campaign(const Args& args, const Pins& pins) {
  Report r;
  Checker checker{"campaign", pins, r, args.emit_prints};
  const std::size_t workers = campaign_workers();
  std::vector<double> setups;
  std::vector<double> rounds;
  double peak_mb = 0;
  svc::CampaignSpec spec;
  // Set-ups that spawn the workers and shut them down again, so the
  // set-up median rests on more samples than the rounds give.
  for (std::size_t k = 0; k < kInputSetups; ++k) {
    const CpuClock::time_point start = CpuClock::now();
    spec = campaign_spec(args.seed);
    svc::Coordinator coordinator{spec};
    for (std::size_t i = 0; i < workers; ++i) coordinator.spawn_fork_worker();
    setups.push_back(since(start));
  }
  repeat_rounds(args.seconds, [&] {
    const CpuClock::time_point setup_start = CpuClock::now();
    spec = campaign_spec(args.seed);
    const double spec_s = since(setup_start);
    const CampaignRound round = campaign_round(spec, workers);
    setups.push_back(spec_s + round.spawn_s);
    rounds.push_back(round.cpu_s);
    peak_mb = std::max(peak_mb, round.peak_mb);
    check_campaign(checker, spec, round);
  });

  const double units =
      static_cast<double>(spec.scenarios.size() * spec.run.trials);
  add_end_to_end(r, setups, rounds, units, peak_mb);
  r.meta.emplace_back("workers", std::to_string(workers));
  r.meta.emplace_back("trial_seeds",
                      "\"" + std::to_string(args.seed) + ".." +
                          std::to_string(args.seed + kCampaignTrials - 1) +
                          " per scenario\"");
  return r;
}

// ---- traced runs (trace on) -------------------------------------------------

/// What the traced run learned from the timed path's public entry points.
struct TimedPath {
  core::Scenario trial;                            // the replayed trial
  std::optional<core::ExperimentOutcome> outcome;  // run_single_trial's
  double untraced_s = 0;                           // its host time
  bool warm = false;     // the timed path restores it from the cache
  bool capture = false;  // the timed path deposits its prelude
};

struct SvcStats {
  double spawn_s = 0;
  double codec_s = 0;
  double result_bytes = 0;
  double tail_s = 0;
  double busy_frac = 0;
  double units_dispatched = 0;
  double requeues = 0;
};

/// write_outcome / read_outcome over every outcome of a campaign result,
/// the codec work the coordinator and its workers share per unit.
void measure_codec(const svc::CampaignResult& result, SvcStats& stats,
                   Report& r) {
  const CpuClock::time_point start = CpuClock::now();
  std::size_t bytes = 0;
  for (const auto& set : result.sets) {
    for (const auto& o : set.runs) {
      snap::Writer w;
      svc::write_outcome(w, o);
      bytes += w.bytes().size();
      snap::Reader rd{w.bytes()};
      const core::ExperimentOutcome back = svc::read_outcome(rd);
      if (fingerprint(back) != fingerprint(o)) {
        r.fail("svc codec round trip changed an outcome");
      }
    }
  }
  stats.codec_s = since(start);
  stats.result_bytes = static_cast<double>(bytes);
}

SvcStats svc_from_round(const CampaignRound& round, std::size_t workers,
                        double serial_unit_s, Report& r) {
  SvcStats stats;
  stats.spawn_s = round.spawn_s;
  if (!round.result) {
    r.fail("svc: campaign failed: " + round.error);
    return stats;
  }
  measure_codec(*round.result, stats, r);
  const std::size_t n = round.done_at_s.size();
  if (n > 0) {
    const std::size_t from = n > workers ? n - workers : 0;
    const double start = from == 0 ? 0.0 : round.done_at_s[from - 1];
    stats.tail_s = round.done_at_s.back() - start;
  }
  stats.busy_frac = round.run_s > 0
                        ? serial_unit_s /
                              (static_cast<double>(workers) * round.run_s)
                        : 0;
  stats.units_dispatched =
      static_cast<double>(round.result->units_dispatched);
  stats.requeues = static_cast<double>(round.result->requeues);
  return stats;
}

/// The three replays of every replayed trial, summed.
struct Totals {
  std::size_t trials = 0;
  Spans b1, b2, a;
  double untraced_s = 0;
  std::uint64_t nodes = 0;
  std::uint64_t links = 0;
  std::uint64_t a_events = 0;
  std::uint64_t b2_events = 0;
  std::uint64_t fib_changes = 0;     // A, event phase
  std::uint64_t observer_calls = 0;  // A, FIB changes x detectors
  std::uint64_t loops_formed = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t unmatched_updates = 0;
  fwd::DataPlane::Counters plane;     // A, event phase
  bgp::Speaker::Counters bgp;         // B2, event phase
  std::vector<double> waits;          // B2
};

void add_spans(Spans& sum, const Spans& s) {
  sum.topo_build_s += s.topo_build_s;
  sum.construct_s += s.construct_s;
  sum.prelude_s += s.prelude_s;
  sum.restore_s += s.restore_s;
  sum.capture_s += s.capture_s;
  sum.event_s += s.event_s;
  sum.sink_s += s.sink_s;
  sum.total_s += s.total_s;
}

void add_replays(Totals& t, const ReplayResult& b1, const ReplayResult& b2,
                 const ReplayResult& a, double untraced_s) {
  ++t.trials;
  add_spans(t.b1, b1.spans);
  add_spans(t.b2, b2.spans);
  add_spans(t.a, a.spans);
  t.untraced_s += untraced_s;
  t.nodes += a.nodes;
  t.links += a.links;
  t.a_events += a.events_event;
  t.b2_events += b2.events_event;
  t.fib_changes += a.fib_changes_event;
  t.observer_calls += a.fib_changes_total * a.detectors;
  t.loops_formed += a.outcome.metrics.loops_formed;
  t.snapshot_bytes += b1.snapshot_bytes;
  t.unmatched_updates += b2.unmatched_updates;
  t.plane.injected += a.plane.injected;
  t.plane.delivered += a.plane.delivered;
  t.plane.ttl_exhausted += a.plane.ttl_exhausted;
  t.plane.hops += a.plane.hops;
  t.bgp.announcements_sent += b2.bgp_event.announcements_sent;
  t.bgp.withdrawals_sent += b2.bgp_event.withdrawals_sent;
  t.bgp.updates_received += b2.bgp_event.updates_received;
  t.bgp.best_path_changes += b2.bgp_event.best_path_changes;
  t.waits.insert(t.waits.end(), b2.update_waits_sim_s.begin(),
                 b2.update_waits_sim_s.end());
}

double ratio(double num, double den, double scale = 1) {
  return den > 0 ? num * scale / den : 0;
}

void add_layers(Report& r, const Totals& t, const SvcStats& svc_stats,
                std::uint64_t cache_hits, std::uint64_t cache_misses) {
  const double fwd_s = t.a.event_s - t.b2.event_s - t.a.sink_s;
  const auto hops = static_cast<double>(t.plane.hops);
  const auto fib_changes = static_cast<double>(t.fib_changes);
  const auto received = static_cast<double>(t.bgp.updates_received);
  const auto a_events = static_cast<double>(t.a_events);
  const double total = t.a.total_s;

  r.add("core.replay_s", total, "s");
  r.add("core.construct_s", t.a.construct_s, "s");
  r.add("topo.build_s", t.a.topo_build_s, "s");
  r.add("topo.nodes", static_cast<double>(t.nodes), "count");
  r.add("topo.links", static_cast<double>(t.links), "count");
  r.add("sim.events", a_events, "count");
  r.add("sim.events_dataplane", a_events - static_cast<double>(t.b2_events),
        "count");
  r.add("sim.ns_per_event", ratio(t.a.event_s, a_events, 1e9), "ns");
  r.add("fwd.event_s", fwd_s, "s");
  r.add("fwd.share", ratio(fwd_s, total), "frac");
  r.add("fwd.ns_per_hop", ratio(fwd_s, hops, 1e9), "ns");
  r.add("fwd.hops", hops, "count");
  r.add("fwd.injected", static_cast<double>(t.plane.injected), "count");
  r.add("fwd.delivered", static_cast<double>(t.plane.delivered), "count");
  r.add("fwd.ttl_exhausted", static_cast<double>(t.plane.ttl_exhausted),
        "count");
  r.add("fwd.fib_changes", fib_changes, "count");
  r.add("fwd.hops_per_fib_change", ratio(hops, fib_changes), "ratio");
  r.add("bgp.prelude_s", t.b1.prelude_s, "s");
  r.add("bgp.event_s", t.b2.event_s, "s");
  r.add("bgp.share", ratio(t.a.prelude_s + t.b2.event_s, total), "frac");
  r.add("bgp.us_per_update", ratio(t.b2.event_s, received, 1e6), "us");
  r.add("bgp.updates_sent",
        static_cast<double>(t.bgp.announcements_sent +
                            t.bgp.withdrawals_sent),
        "count");
  r.add("bgp.updates_received", received, "count");
  r.add("bgp.best_path_changes", static_cast<double>(t.bgp.best_path_changes),
        "count");
  r.add("metrics.fib_observer_calls", static_cast<double>(t.observer_calls),
        "count");
  r.add("metrics.sink_s", t.a.sink_s, "s");
  r.add("metrics.loops_formed", static_cast<double>(t.loops_formed), "count");
  r.add("net.update_wait_sim_p50_s", percentile(t.waits, 0.5), "sim_s");
  r.add("net.update_wait_sim_p99_s", percentile(t.waits, 0.99), "sim_s");
  r.add("snap.restore_s", t.b2.restore_s, "s");
  r.add("snap.capture_s", t.b1.capture_s, "s");
  r.add("snap.bytes", static_cast<double>(t.snapshot_bytes), "bytes");
  r.add("snap.cache_hits", static_cast<double>(cache_hits), "count");
  r.add("snap.cache_misses", static_cast<double>(cache_misses), "count");
  r.add("svc.spawn_s", svc_stats.spawn_s, "s");
  r.add("svc.codec_s", svc_stats.codec_s, "s");
  r.add("svc.result_bytes", svc_stats.result_bytes, "bytes");
  r.add("svc.tail_s", svc_stats.tail_s, "s");
  r.add("svc.worker_busy_frac", svc_stats.busy_frac, "frac");
  r.add("svc.units_dispatched", svc_stats.units_dispatched, "count");
  r.add("svc.requeues", svc_stats.requeues, "count");
  r.add("trace.overhead_frac", ratio(total, t.untraced_s) - 1, "frac");
  r.meta.emplace_back("replayed_trials", std::to_string(t.trials));
  r.meta.emplace_back("unmatched_updates",
                      std::to_string(t.unmatched_updates));
}

/// Replays each of the timed path's trials three ways — the control-plane
/// twin's prelude (B1), the twin's event phase from B1's capture (B2) and
/// the trial itself (A) — checks A against run_single_trial, and reports
/// the per-layer metrics of their sum.
void replay_and_report(Report& r, const std::string& workload,
                       const std::vector<TimedPath>& paths,
                       const SvcStats& svc_stats, std::uint64_t cache_hits,
                       std::uint64_t cache_misses) {
  Totals totals;
  for (const TimedPath& path : paths) {
    const std::string what = workload + " " + path.trial.label() + " seed " +
                             std::to_string(path.trial.seed);
    if (!path.outcome) {
      r.fail(what + ": no run_single_trial outcome to replay against");
      continue;
    }
    try {
      ReplayOptions b1_mode;
      b1_mode.traffic = false;
      b1_mode.capture = true;
      b1_mode.prelude_only = true;
      const ReplayResult b1 = replay(path.trial, b1_mode);
      ReplayOptions b2_mode;
      b2_mode.traffic = false;
      b2_mode.warm_start = &*b1.captured;
      b2_mode.watch_updates = true;
      const ReplayResult b2 = replay(path.trial, b2_mode);
      ReplayOptions a_mode;
      a_mode.warm_start = path.warm ? &*b1.captured : nullptr;
      a_mode.capture = path.capture;
      const ReplayResult a = replay(path.trial, a_mode);
      r.attempted += 3;

      const std::uint64_t want = fingerprint(*path.outcome);
      const std::uint64_t got = fingerprint(a.outcome);
      if (got != want) {
        r.fail(what + ": replay fingerprint " + hex(got) +
               " != run_single_trial " + hex(want));
      }
      if (a.outcome.events_fired != path.outcome->events_fired) {
        r.fail(what + ": replay fired " +
               std::to_string(a.outcome.events_fired) +
               " events, run_single_trial " +
               std::to_string(path.outcome->events_fired));
      }
      const auto& x = a.bgp_event;
      const auto& y = b2.bgp_event;
      if (x.announcements_sent != y.announcements_sent ||
          x.withdrawals_sent != y.withdrawals_sent ||
          x.updates_received != y.updates_received ||
          x.best_path_changes != y.best_path_changes) {
        r.fail(what +
               ": the no-traffic twin's control plane diverged from the "
               "trial's, so the fwd attribution does not hold");
      }
      // The untraced twin of A for the tracing overhead: the same public
      // entry point, run right after A so both see the same process state.
      if (path.capture) snap::PreludeCache::instance().clear();
      const Wall::time_point start = Wall::now();
      const core::ExperimentOutcome again =
          core::run_single_trial(path.trial, 0, path.warm || path.capture);
      const double untraced_s = since(start);
      ++r.attempted;
      if (fingerprint(again) != want) {
        r.fail(what + ": run_single_trial is not reproducible");
      }
      add_replays(totals, b1, b2, a, untraced_s);
    } catch (const std::exception& e) {
      r.fail(what + ": traced replay threw: " + e.what());
    }
  }
  add_layers(r, totals, svc_stats, cache_hits, cache_misses);
}

/// svc on an in-process workload: its replayed trial as a one-unit
/// campaign on one fork worker — what shipping the trial would cost. The
/// worker's outcome is checked under the trial's own variant, so it must
/// equal the in-process one.
SvcStats svc_probe(Report& r, Checker& checker, const std::string& variant,
                   const TimedPath& path) {
  svc::CampaignSpec spec;
  spec.scenarios.push_back(path.trial);
  spec.run.trials = 1;
  spec.unit_trials = 1;
  const CampaignRound round = campaign_round(spec, 1);
  if (round.result) {
    checker.check(variant, path.trial.seed, round.result->sets[0].runs[0]);
  } else {
    checker.error(variant, path.trial.seed, round.error);
  }
  return svc_from_round(round, 1, path.untraced_s, r);
}

Report traced_headline(const Args& args, const Pins& pins) {
  Report r;
  Checker checker{"headline", pins, r, false};
  TimedPath path;
  path.trial = headline_trials(args.seed).front();
  const TimedTrial t = timed_trial(checker, "t", path.trial, false);
  path.outcome = t.outcome;
  path.untraced_s = t.seconds;
  const SvcStats svc_stats = svc_probe(r, checker, "t", path);
  replay_and_report(r, "headline", {path}, svc_stats, 0, 0);
  return r;
}

Report traced_fulltable(const Args& args, const Pins& pins) {
  Report r;
  Checker checker{"fulltable", pins, r, false};
  auto& cache = snap::PreludeCache::instance();
  if (!cache.enabled()) cache.set_capacity(snap::PreludeCache::kDefaultCapacity);
  cache.clear();
  const core::Scenario cold = fulltable_cold(args.seed);
  (void)timed_trial(checker, "cold", cold, true);
  cache.reset_stats();
  TimedPath path;
  for (const auto& v : fulltable_whatifs()) {
    const core::Scenario w = fulltable_whatif(cold, v);
    const TimedTrial t = timed_trial(checker, v.name, w, true);
    if (!path.outcome) {
      path.trial = w;
      path.outcome = t.outcome;
      path.untraced_s = t.seconds;
    }
  }
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  path.warm = true;
  const SvcStats svc_stats =
      svc_probe(r, checker, fulltable_whatifs().front().name, path);
  replay_and_report(r, "fulltable", {path}, svc_stats, hits, misses);
  return r;
}

Report traced_campaign(const Args& args, const Pins& pins) {
  Report r;
  Checker checker{"campaign", pins, r, false};
  const std::size_t workers = campaign_workers();
  const svc::CampaignSpec spec = campaign_spec(args.seed);
  const CampaignRound round = campaign_round(spec, workers);
  check_campaign(checker, spec, round);

  // The same units serially in-process, through the default cache: the
  // per-unit host times behind svc.worker_busy_frac, and the campaign's
  // fingerprint check against an in-process run.
  auto& cache = snap::PreludeCache::instance();
  cache.clear();
  cache.reset_stats();
  std::vector<std::uint64_t> campaign_prints;
  std::vector<std::uint64_t> serial_prints;
  double serial_s = 0;
  std::vector<double> trial_times;
  std::vector<TimedPath> paths;  // the first trial of every scenario
  for (std::size_t k = 0; k < spec.scenarios.size(); ++k) {
    for (std::size_t i = 0; i < spec.run.trials; ++i) {
      const core::Scenario s = trial_of(spec.scenarios[k], i);
      const TimedTrial t = timed_trial(checker, scenario_variant(k), s,
                                       true);
      serial_s += t.seconds;
      trial_times.push_back(t.seconds);
      serial_prints.push_back(t.outcome ? fingerprint(*t.outcome) : 0);
      if (round.result) {
        campaign_prints.push_back(
            fingerprint(round.result->sets[k].runs[i]));
      }
      if (i == 0) {
        // Every unit misses its worker's cache and deposits its prelude.
        paths.push_back({.trial = s,
                         .outcome = t.outcome,
                         .untraced_s = t.seconds,
                         .capture = true});
      }
    }
  }
  if (round.result && fold(campaign_prints) != fold(serial_prints)) {
    r.fail("campaign: fingerprint " + hex(fold(campaign_prints)) +
           " != serial in-process run " + hex(fold(serial_prints)));
  }
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  const SvcStats svc_stats = svc_from_round(round, workers, serial_s, r);
  replay_and_report(r, "campaign", paths, svc_stats, hits, misses);
  r.meta.emplace_back("trial_p50_s", std::to_string(median(trial_times)));
  r.meta.emplace_back("workers", std::to_string(workers));
  return r;
}

}  // namespace

void Report::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Pins::load(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot read pinned fingerprints " + path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string workload, variant, seed, value;
    if (!(fields >> workload >> variant >> seed >> value)) {
      throw std::runtime_error{"malformed fingerprint line: " + line};
    }
    pins_[workload + " " + variant + " " + seed] =
        std::stoull(value, nullptr, 16);
  }
}

bool Pins::has(const std::string& workload, const Print& p) const {
  return pins_.contains(workload + " " + p.variant + " " +
                        std::to_string(p.trial_seed));
}

bool Pins::agrees(const std::string& workload, const Print& p) const {
  const auto it = pins_.find(workload + " " + p.variant + " " +
                             std::to_string(p.trial_seed));
  return it == pins_.end() || it->second == p.value;
}

Report run_workload(const Args& args) {
  Pins pins;
  if (!args.pinned.empty()) pins.load(args.pinned);
  using Runner = Report (*)(const Args&, const Pins&);
  const std::map<std::string, std::pair<Runner, Runner>> runners{
      {"headline", {timed_headline, traced_headline}},
      {"fulltable", {timed_fulltable, traced_fulltable}},
      {"campaign", {timed_campaign, traced_campaign}},
  };
  const auto it = runners.find(args.workload);
  if (it == runners.end()) {
    throw std::invalid_argument{"unknown workload '" + args.workload +
                                "' (headline, fulltable, campaign)"};
  }
  return args.trace ? it->second.second(args, pins)
                    : it->second.first(args, pins);
}

}  // namespace perfbench
