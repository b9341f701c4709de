#include "core/run_skeleton.hpp"

#include <stdexcept>
#include <utility>

#include "check/oracle.hpp"

namespace bgpsim::core::detail {

std::string RunSkeleton::label() const {
  if (meta_.driver == snap::DriverKind::kBgp) return "";
  return std::string{snap::to_string(meta_.driver)} + " ";
}

snap::Snapshot RunSkeleton::capture(bool quiescent,
                                    std::size_t reserve) const {
  snap::Writer w;
  w.reserve(reserve);
  save_network_(*this, w);
  if (extras_.save) extras_.save(w);
  snap::SnapshotMeta meta = meta_;
  meta.quiescent = quiescent;
  meta.sim_time = simulator_.now();
  return snap::Snapshot{std::move(meta), std::move(w).take()};
}

void RunSkeleton::restore(const snap::Snapshot& snapshot) {
  snap::Reader r{snapshot.payload()};
  restore_network_(*this, r);
  if (extras_.restore) extras_.restore(r);
  r.finish();
}

bool RunSkeleton::warm_start() {
  if (scenario_.warm_start == nullptr) return false;
  const snap::Snapshot& snapshot = *scenario_.warm_start;
  require_meta_match(snapshot.meta(), meta_.driver, meta_.topology_hash,
                     meta_.config_hash, meta_.seed, meta_.destination,
                     meta_.originated);
  restore(snapshot);
  // Re-serializing the restored graph must reproduce the snapshot's
  // content hash.
  const snap::Snapshot echo =
      capture(/*quiescent=*/true, snapshot.payload().size());
  if (oracle_) {
    oracle_->on_restored(snapshot.content_hash(), echo.content_hash(),
                         simulator_.now());
  } else if (echo.content_hash() != snapshot.content_hash()) {
    throw std::runtime_error{label() +
                             "warm start restore is not bit-exact: restored "
                             "state re-serializes to a different content "
                             "hash"};
  }
  return true;
}

void RunSkeleton::save_converged() const {
  if (scenario_.save_converged == nullptr) return;
  if (simulator_.pending() > 0) {
    throw std::runtime_error{
        label() + "save_converged: event queue not empty at stability"};
  }
  *scenario_.save_converged = capture(/*quiescent=*/true);
}

sim::SimTime RunSkeleton::start_traffic() {
  t_event_ = simulator_.now() + scenario_.settle_margin;
  std::vector<net::NodeId> sources;
  for (net::NodeId n = 0; n < topo_.node_count(); ++n) {
    if (n != meta_.destination) sources.push_back(n);
  }
  traffic_.start(sources, t_event_ - scenario_.traffic_lead);
  return t_event_;
}

sim::SimTime RunSkeleton::run_to_quiescence(std::function<bool()> settled,
                                            sim::SimTime first_poll,
                                            sim::SimTime interval) {
  // The probe: kNoop and kVerify schedule the *same* event (so their event
  // streams stay comparable); only kVerify does work in it: save, restore
  // in place, re-save, and fail the run if the two byte streams differ. A
  // correct codec makes this a perfect no-op. In-place restores work with
  // periodic refresh too: scheduled events stay in the queue untouched.
  if (scenario_.snap_roundtrip != SnapRoundtrip::kOff) {
    simulator_.schedule_at(t_event_ + scenario_.snap_roundtrip_after, [this] {
      if (scenario_.snap_roundtrip != SnapRoundtrip::kVerify) return;
      const snap::Snapshot before = capture(/*quiescent=*/false);
      restore(before);
      const snap::Snapshot after = capture(/*quiescent=*/false);
      if (before.content_hash() == after.content_hash()) return;
      if (oracle_) {
        oracle_->on_restored(before.content_hash(), after.content_hash(),
                             simulator_.now());
      }
      throw std::runtime_error{
          label() +
          "snapshot round-trip diverged mid-run: in-place restore did "
          "not reproduce the saved state byte-for-byte"};
    });
  }

  // In-flight packets die out within the 2 s drain (the TTL lifetime is
  // 256 ms); then the leftover silent timers are cancelled.
  bool timed_out = false;
  std::function<void()> poll = [&] {
    if (settled()) {
      traffic_.stop();
      simulator_.schedule_after(sim::SimTime::seconds(2),
                                [this] { simulator_.clear_pending(); });
      return;
    }
    if (simulator_.now() >= scenario_.max_sim_time) {
      timed_out = true;
      simulator_.clear_pending();
      return;
    }
    simulator_.schedule_after(interval, poll);
  };
  simulator_.schedule_at(first_poll, poll);

  simulator_.run_until(scenario_.max_sim_time + sim::SimTime::seconds(10));
  if (timed_out || simulator_.pending() > 0) {
    throw std::runtime_error{label() +
                             "scenario did not converge within max_sim_time"};
  }
  return simulator_.now();
}

ExperimentOutcome RunSkeleton::measure(
    std::optional<net::LinkId> failed_link, double initial_convergence_s,
    std::vector<metrics::LoopRecord> loops,
    std::optional<sim::SimTime> last_update_at) const {
  const sim::SimTime t_event = t_event_;
  ExperimentOutcome out;
  out.destination = meta_.destination;
  out.failed_link = failed_link;
  out.initial_convergence_s = initial_convergence_s;
  out.events_fired = simulator_.events_fired();
  out.plane_hops = plane_.counters().hops;
  out.plane_segments = plane_.counters().segments;

  metrics::RunMetrics& m = out.metrics;
  m.event_at = t_event;
  m.last_update_at =
      last_update_at ? *last_update_at
                     : collector_.last_update_at(t_event).value_or(t_event);
  m.convergence_time_s = (m.last_update_at - t_event).as_seconds();

  const auto first_exh = collector_.first_exhaustion(t_event);
  m.first_exhaustion_at = first_exh.value_or(t_event);
  m.last_exhaustion_at = collector_.last_exhaustion(t_event).value_or(t_event);
  m.looping_duration_s =
      first_exh ? (m.last_exhaustion_at - m.first_exhaustion_at).as_seconds()
                : 0.0;

  m.ttl_exhaustions = collector_.exhaustions_since(t_event);
  m.packets_sent_during_convergence =
      collector_.packets_sent_in(t_event, m.last_update_at);
  m.looping_ratio =
      m.packets_sent_during_convergence == 0
          ? 0.0
          : static_cast<double>(m.ttl_exhaustions) /
                static_cast<double>(m.packets_sent_during_convergence);

  m.packets_sent_total = collector_.packets_sent_total();
  m.packets_delivered = collector_.delivered_total();
  m.packets_no_route = collector_.no_route_total();
  m.packets_link_down = collector_.link_down_total();
  m.updates_sent = collector_.updates_sent_since(t_event);
  m.updates_sent_total = collector_.updates_sent_total();

  const auto profile_end = m.last_update_at + sim::SimTime::seconds(1);
  m.update_activity_1s = collector_.update_activity(t_event, profile_end,
                                                    sim::SimTime::seconds(1));
  m.exhaustion_activity_1s = collector_.exhaustion_activity(
      t_event, profile_end, sim::SimTime::seconds(1));

  m.loops = std::move(loops);
  m.loops_formed = m.loops.size();
  m.loop_stats = metrics::analyze_loops(m.loops, simulator_.now());
  m.max_loop_size = m.loop_stats.max_size;
  m.mean_loop_size = m.loop_stats.mean_size;
  m.max_loop_duration_s = m.loop_stats.duration_s.max;
  return out;
}

}  // namespace bgpsim::core::detail
