#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "bgp/network.hpp"
#include "bgp/path_store.hpp"
#include "core/run_options.hpp"
#include "core/selection.hpp"
#include "core/snap_support.hpp"
#include "fwd/traffic.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "net/relationships.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {
namespace {

using namespace bgpsim;
using Clock = std::chrono::steady_clock;

constexpr net::Prefix kPrefix = 0;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Forwards every fate batch to the collector and times the call.
class TimedSink final : public fwd::FateSink {
 public:
  explicit TimedSink(metrics::Collector& collector) : collector_{collector} {}
  void on_fates(std::span<const fwd::FateRecord> batch) override {
    const Clock::time_point start = Clock::now();
    collector_.on_fates(batch);
    seconds += since(start);
  }
  double seconds = 0;

 private:
  metrics::Collector& collector_;
};

/// Pairs each update's sent hook with its received hook. Sessions deliver
/// in order, so the pairing is FIFO per (from, to); a session that drops
/// loses what was in flight on it.
class UpdateWaits {
 public:
  void sent(net::NodeId from, net::NodeId to, sim::SimTime at) {
    queues_[{from, to}].push_back(at);
  }
  void received(net::NodeId node, net::NodeId from, sim::SimTime at) {
    auto it = queues_.find({from, node});
    if (it == queues_.end() || it->second.empty()) {
      ++unmatched;
      return;
    }
    waits.push_back((at - it->second.front()).as_seconds());
    it->second.pop_front();
  }
  void session(net::NodeId node, net::NodeId peer, bool up) {
    if (up) return;
    queues_.erase({node, peer});
    queues_.erase({peer, node});
  }
  std::vector<double> waits;
  std::uint64_t unmatched = 0;

 private:
  std::map<std::pair<net::NodeId, net::NodeId>, std::deque<sim::SimTime>>
      queues_;
};

std::uint64_t fib_version_sum(const std::vector<fwd::Fib>& fibs) {
  std::uint64_t sum = 0;
  for (const fwd::Fib& f : fibs) sum += f.version();
  return sum;
}

bgp::Speaker::Counters minus(const bgp::Speaker::Counters& a,
                             const bgp::Speaker::Counters& b) {
  bgp::Speaker::Counters d;
  d.announcements_sent = a.announcements_sent - b.announcements_sent;
  d.withdrawals_sent = a.withdrawals_sent - b.withdrawals_sent;
  d.updates_received = a.updates_received - b.updates_received;
  d.poison_reverse_discards =
      a.poison_reverse_discards - b.poison_reverse_discards;
  d.assertion_removals = a.assertion_removals - b.assertion_removals;
  d.ghost_flushes = a.ghost_flushes - b.ghost_flushes;
  d.ssld_conversions = a.ssld_conversions - b.ssld_conversions;
  d.best_path_changes = a.best_path_changes - b.best_path_changes;
  d.caution_holds = a.caution_holds - b.caution_holds;
  return d;
}

fwd::DataPlane::Counters minus(const fwd::DataPlane::Counters& a,
                               const fwd::DataPlane::Counters& b) {
  return {a.injected - b.injected,         a.delivered - b.delivered,
          a.ttl_exhausted - b.ttl_exhausted, a.no_route - b.no_route,
          a.link_down - b.link_down,       a.hops - b.hops};
}

}  // namespace

ReplayResult replay(const core::Scenario& scenario,
                    const ReplayOptions& options) {
  if (scenario.trace || scenario.oracle || scenario.warm_start ||
      scenario.save_converged ||
      scenario.snap_roundtrip != core::SnapRoundtrip::kOff) {
    throw std::invalid_argument{
        "replay: scenarios with observation or checkpoint hooks are not "
        "replayed"};
  }
  if (scenario.settle_margin <= scenario.traffic_lead) {
    throw std::invalid_argument{
        "Scenario: settle_margin must exceed traffic_lead"};
  }
  ReplayResult result;
  Spans& spans = result.spans;
  const Clock::time_point replay_start = Clock::now();

  std::optional<bgp::PathStore> path_store;
  std::optional<bgp::PathStore::Scope> path_scope;
  if (core::detail::path_interning_enabled()) {
    path_store.emplace();
    path_scope.emplace(*path_store);
  }

  // ---- topo ------------------------------------------------------------
  Clock::time_point t = Clock::now();
  net::Topology topo;
  net::RelationshipTable relationships;
  if (scenario.policy_routing) {
    auto annotated = scenario.topology.build_annotated();
    topo = std::move(annotated.topology);
    relationships = std::move(annotated.relationships);
  } else {
    topo = scenario.topology.build();
  }
  spans.topo_build_s = since(t);
  result.nodes = topo.node_count();
  result.links = topo.link_count();

  // ---- construction: network, plane, detectors, traffic ------------------
  t = Clock::now();
  sim::Rng root{scenario.seed};
  sim::Rng scenario_rng = root.child("scenario");
  const net::NodeId destination =
      core::choose_destination(scenario.topology.kind, scenario.event,
                               scenario.destination, topo, scenario_rng);
  std::optional<net::LinkId> failed_link;
  if (scenario.event == core::EventKind::kTlong ||
      scenario.event == core::EventKind::kFlap) {
    failed_link = core::choose_tlong_link(
        scenario.topology.kind, scenario.topology.size, scenario.tlong_link,
        topo, destination, scenario_rng);
  }

  const std::size_t prefix_count =
      std::max<std::size_t>(scenario.prefixes, 1);
  const bool multi = prefix_count > 1;
  std::vector<net::NodeId> prefix_origins;
  std::vector<net::Prefix> dest_prefixes;
  std::map<net::NodeId, std::vector<net::Prefix>> origin_groups;
  if (multi) {
    prefix_origins.assign(prefix_count, destination);
    for (std::size_t i = 1; i < prefix_count; ++i) {
      if (!scenario.origins.empty()) {
        prefix_origins[i] =
            scenario.origins[(i - 1) % scenario.origins.size()];
      }
      if (prefix_origins[i] >= topo.node_count()) {
        throw std::invalid_argument{"Scenario: prefix origin " +
                                    std::to_string(prefix_origins[i]) +
                                    " is not a node of the topology"};
      }
    }
    for (std::size_t p = 0; p < prefix_count; ++p) {
      origin_groups[prefix_origins[p]].push_back(static_cast<net::Prefix>(p));
      if (prefix_origins[p] == destination) {
        dest_prefixes.push_back(static_cast<net::Prefix>(p));
      }
    }
  }

  sim::Simulator simulator;
  bgp::BgpConfig bgp_config = scenario.bgp;
  if (scenario.policy_routing) bgp_config.policy = &relationships;
  if (multi) bgp_config.multiprefix = true;
  bgp::BgpNetwork network{simulator, topo, bgp_config, scenario.processing,
                          root};
  metrics::Collector collector;
  if (multi) collector.enable_prefix_lanes(prefix_count);

  UpdateWaits waits;
  bgp::Speaker::Hooks hooks;
  hooks.on_update_sent = [&](net::NodeId from, net::NodeId to,
                             const bgp::UpdateMsg& msg) {
    collector.note_update_sent(simulator.now(), msg.is_withdrawal());
    if (options.watch_updates) waits.sent(from, to, simulator.now());
  };
  if (options.watch_updates) {
    hooks.on_update_received = [&](net::NodeId node, net::NodeId from,
                                   const bgp::UpdateMsg&) {
      waits.received(node, from, simulator.now());
    };
    hooks.on_session_changed = [&](net::NodeId node, net::NodeId peer,
                                   bool up) { waits.session(node, peer, up); };
  }
  network.set_hooks(hooks);

  fwd::DataPlaneOptions plane_options =
      multi ? fwd::DataPlaneOptions{.destinations = prefix_origins}
            : fwd::DataPlaneOptions::single(destination);
  fwd::DataPlane plane{simulator, topo, network.fibs(),
                       std::move(plane_options)};
  TimedSink sink{collector};
  plane.set_fate_sink(&sink);

  std::vector<std::unique_ptr<metrics::LoopDetector>> detectors;
  detectors.push_back(
      std::make_unique<metrics::LoopDetector>(topo.node_count()));
  detectors.front()->attach(simulator, network.fibs(), kPrefix);
  if (multi) {
    for (std::size_t p = 1; p < prefix_count; ++p) {
      detectors.push_back(
          std::make_unique<metrics::LoopDetector>(topo.node_count()));
      detectors.back()->attach_alongside(simulator, network.fibs(),
                                         static_cast<net::Prefix>(p));
    }
  }
  result.detectors = detectors.size();
  metrics::LoopDetector& detector = *detectors.front();

  fwd::TrafficConfig traffic_config = scenario.traffic;
  if (multi) traffic_config.prefix_count = prefix_count;
  fwd::TrafficGenerator traffic{simulator, plane, traffic_config,
                                root.child("traffic")};
  traffic.set_send_hook([&](net::NodeId, net::Prefix p, sim::SimTime when) {
    collector.note_packet_sent(when);
    collector.note_packet_sent_for(p);
  });
  spans.construct_s = since(t);
  const std::uint64_t fib_base = fib_version_sum(network.fibs());

  // ---- phase 1: prelude or warm start ------------------------------------
  const std::uint64_t topology_hash = snap::hash_topology(topo);
  const std::uint64_t config_hash = core::scenario_prelude_hash(scenario);
  const bool prelude_originated = scenario.event != core::EventKind::kTup;
  const auto capture = [&] {
    snap::Writer w;
    core::detail::save_run_state(w, simulator, network, plane, traffic,
                                 collector);
    snap::SnapshotMeta meta;
    meta.driver = snap::DriverKind::kBgp;
    meta.topology_hash = topology_hash;
    meta.config_hash = config_hash;
    meta.seed = scenario.seed;
    meta.destination = destination;
    meta.originated = prelude_originated;
    meta.quiescent = true;
    meta.sim_time = simulator.now();
    return snap::Snapshot{std::move(meta), std::move(w).take()};
  };

  if (options.warm_start) {
    t = Clock::now();
    const snap::Snapshot& warm = *options.warm_start;
    core::detail::require_meta_match(warm.meta(), snap::DriverKind::kBgp,
                                     topology_hash, config_hash, scenario.seed,
                                     destination, prelude_originated);
    snap::Reader r{warm.payload()};
    core::detail::restore_run_state(r, simulator, network, plane, traffic,
                                    collector);
    r.finish();
    const snap::Snapshot echo = capture();
    if (echo.content_hash() != warm.content_hash()) {
      throw std::runtime_error{
          "warm start restore is not bit-exact: restored state "
          "re-serializes to a different content hash"};
    }
    spans.restore_s = since(t);
    result.snapshot_bytes = warm.size_bytes();
  } else {
    if (multi) {
      simulator.schedule_at(sim::SimTime::zero(), [&] {
        for (const auto& [origin, group] : origin_groups) {
          if (origin == destination && !prelude_originated) continue;
          network.originate_batch(origin, group);
        }
      });
    } else if (prelude_originated) {
      simulator.schedule_at(sim::SimTime::zero(),
                            [&] { network.originate(destination, kPrefix); });
    }
    t = Clock::now();
    simulator.run_until(scenario.max_sim_time);
    spans.prelude_s = since(t);
    if (simulator.pending() > 0 || network.busy()) {
      throw std::runtime_error{"initial convergence exceeded max_sim_time"};
    }
  }
  const double initial_convergence_s = simulator.now().as_seconds();

  if (options.capture) {
    t = Clock::now();
    result.captured = capture();
    spans.capture_s = since(t);
    result.snapshot_bytes = result.captured->size_bytes();
  }
  if (options.prelude_only) {
    result.fib_changes_total = fib_version_sum(network.fibs()) - fib_base;
    spans.sink_s = sink.seconds;
    spans.total_s = since(replay_start);
    return result;
  }

  // ---- phase 2: traffic + event + convergence ------------------------------
  const sim::SimTime t_event = simulator.now() + scenario.settle_margin;
  const sim::SimTime t_traffic = t_event - scenario.traffic_lead;

  std::vector<net::NodeId> sources;
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    if (n != destination) sources.push_back(n);
  }
  if (options.traffic) traffic.start(sources, t_traffic);

  simulator.schedule_at(t_event, [&] {
    for (auto& d : detectors) d->clear_history();
    switch (scenario.event) {
      case core::EventKind::kTdown:
        if (multi) {
          network.inject_tdown_batch(destination, dest_prefixes);
        } else {
          network.inject_tdown(destination, kPrefix);
        }
        break;
      case core::EventKind::kTlong:
        network.inject_link_failure(*failed_link);
        break;
      case core::EventKind::kTup:
        if (multi) {
          network.originate_batch(destination, dest_prefixes);
        } else {
          network.originate(destination, kPrefix);
        }
        break;
      case core::EventKind::kFlap:
        network.inject_link_failure(*failed_link);
        simulator.schedule_after(scenario.flap_interval, [&] {
          network.transport().restore_link(*failed_link);
        });
        break;
    }
  });

  bool timed_out = false;
  const auto drain = sim::SimTime::seconds(2);
  std::function<void()> poll = [&] {
    if (!network.busy()) {
      traffic.stop();
      simulator.schedule_after(drain, [&] { simulator.clear_pending(); });
      return;
    }
    if (simulator.now() >= scenario.max_sim_time) {
      timed_out = true;
      simulator.clear_pending();
      return;
    }
    simulator.schedule_after(sim::SimTime::seconds(1), poll);
  };
  sim::SimTime poll_start = t_event + sim::SimTime::seconds(1);
  if (scenario.event == core::EventKind::kFlap) {
    poll_start += scenario.flap_interval;
  }
  simulator.schedule_at(poll_start, poll);

  const std::uint64_t events_before = simulator.events_fired();
  const std::uint64_t fib_before = fib_version_sum(network.fibs());
  const fwd::DataPlane::Counters plane_before = plane.counters();
  const bgp::Speaker::Counters bgp_before = network.total_counters();
  const double sink_before = sink.seconds;
  t = Clock::now();
  simulator.run_until(scenario.max_sim_time + sim::SimTime::seconds(10));
  spans.event_s = since(t);
  spans.sink_s = sink.seconds - sink_before;
  if (timed_out || simulator.pending() > 0) {
    throw std::runtime_error{"scenario did not converge within max_sim_time"};
  }
  result.events_event = simulator.events_fired() - events_before;
  result.fib_changes_event = fib_version_sum(network.fibs()) - fib_before;
  result.fib_changes_total = fib_version_sum(network.fibs()) - fib_base;
  result.plane = minus(plane.counters(), plane_before);
  result.bgp_event = minus(network.total_counters(), bgp_before);
  result.update_waits_sim_s = std::move(waits.waits);
  result.unmatched_updates = waits.unmatched;

  // ---- metrics: the same extraction as run_experiment ---------------------
  const sim::SimTime end = simulator.now();
  for (auto& d : detectors) d->finalize(end);

  core::ExperimentOutcome& out = result.outcome;
  out.destination = destination;
  out.failed_link = failed_link;
  out.initial_convergence_s = initial_convergence_s;
  out.events_fired = simulator.events_fired();

  metrics::RunMetrics& m = out.metrics;
  m.event_at = t_event;
  const auto last_update = collector.last_update_at(t_event);
  m.last_update_at = last_update.value_or(t_event);
  m.convergence_time_s = (m.last_update_at - t_event).as_seconds();
  const auto first_exh = collector.first_exhaustion(t_event);
  const auto last_exh = collector.last_exhaustion(t_event);
  m.first_exhaustion_at = first_exh.value_or(t_event);
  m.last_exhaustion_at = last_exh.value_or(t_event);
  m.looping_duration_s =
      first_exh ? (m.last_exhaustion_at - m.first_exhaustion_at).as_seconds()
                : 0.0;
  m.ttl_exhaustions = collector.exhaustions_since(t_event);
  m.packets_sent_during_convergence =
      collector.packets_sent_in(t_event, m.last_update_at);
  m.looping_ratio =
      m.packets_sent_during_convergence == 0
          ? 0.0
          : static_cast<double>(m.ttl_exhaustions) /
                static_cast<double>(m.packets_sent_during_convergence);
  m.packets_sent_total = collector.packets_sent_total();
  m.packets_delivered = collector.delivered_total();
  m.packets_no_route = collector.no_route_total();
  m.packets_link_down = collector.link_down_total();
  m.updates_sent = collector.updates_sent_since(t_event);
  m.updates_sent_total = collector.updates_sent_total();
  m.bgp = network.total_counters();

  const auto profile_end = m.last_update_at + sim::SimTime::seconds(1);
  m.update_activity_1s = collector.update_activity(t_event, profile_end,
                                                   sim::SimTime::seconds(1));
  m.exhaustion_activity_1s = collector.exhaustion_activity(
      t_event, profile_end, sim::SimTime::seconds(1));

  m.loops = detector.records();
  if (multi) {
    for (std::size_t p = 1; p < prefix_count; ++p) {
      const auto& recs = detectors[p]->records();
      m.loops.insert(m.loops.end(), recs.begin(), recs.end());
    }
  }
  m.loops_formed = m.loops.size();
  m.loop_stats = metrics::analyze_loops(m.loops, end);
  if (!m.loops.empty()) {
    double size_sum = 0;
    for (const auto& loop : m.loops) {
      size_sum += static_cast<double>(loop.size());
      m.max_loop_size = std::max(m.max_loop_size, loop.size());
      m.max_loop_duration_s =
          std::max(m.max_loop_duration_s, loop.duration_seconds(end));
    }
    m.mean_loop_size = size_sum / static_cast<double>(m.loops.size());
  }
  if (multi) {
    m.per_prefix.resize(prefix_count);
    const auto& lanes = collector.prefix_lanes();
    for (std::size_t p = 0; p < prefix_count; ++p) {
      metrics::RunMetrics::PrefixLane& lane = m.per_prefix[p];
      const auto& recs = detectors[p]->records();
      lane.loops_formed = recs.size();
      for (const auto& loop : recs) {
        lane.max_loop_duration_s =
            std::max(lane.max_loop_duration_s, loop.duration_seconds(end));
      }
      lane.packets_sent = lanes[p].sent;
      lane.packets_delivered = lanes[p].delivered;
      lane.ttl_exhaustions = lanes[p].ttl_exhausted;
    }
  }
  spans.total_s = since(replay_start);
  return result;
}

}  // namespace perfbench
