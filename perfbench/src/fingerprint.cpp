#include "fingerprint.hpp"

#include <cstdio>
#include <cstring>

#include "snap/codec.hpp"

namespace perfbench {
namespace {

void mix_double(bgpsim::snap::Hasher& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  h.mix(bits);
}

}  // namespace

std::uint64_t fingerprint(const bgpsim::core::ExperimentOutcome& outcome) {
  const bgpsim::metrics::RunMetrics& m = outcome.metrics;
  bgpsim::snap::Hasher h;
  h.mix(outcome.destination);
  h.mix(outcome.failed_link ? *outcome.failed_link + 1 : 0);
  mix_double(h, outcome.initial_convergence_s);

  mix_double(h, m.convergence_time_s);
  mix_double(h, m.looping_duration_s);
  h.mix(m.ttl_exhaustions);
  mix_double(h, m.looping_ratio);
  h.mix(m.packets_sent_during_convergence);
  h.mix(m.packets_sent_total);
  h.mix(m.packets_delivered);
  h.mix(m.packets_no_route);
  h.mix(m.packets_link_down);
  h.mix(m.updates_sent);
  h.mix(m.updates_sent_total);

  const auto& c = m.bgp;
  for (const std::uint64_t v :
       {c.announcements_sent, c.withdrawals_sent, c.updates_received,
        c.poison_reverse_discards, c.assertion_removals, c.ghost_flushes,
        c.ssld_conversions, c.best_path_changes, c.caution_holds}) {
    h.mix(v);
  }

  h.mix(m.per_prefix.size());
  for (const auto& lane : m.per_prefix) {
    h.mix(lane.loops_formed);
    mix_double(h, lane.max_loop_duration_s);
    h.mix(lane.ttl_exhaustions);
    h.mix(lane.packets_sent);
    h.mix(lane.packets_delivered);
  }

  h.mix(m.loops_formed);
  mix_double(h, m.max_loop_duration_s);
  mix_double(h, m.mean_loop_size);
  h.mix(m.max_loop_size);
  h.mix(m.loops.size());
  for (const auto& loop : m.loops) {
    h.mix(loop.members.size());
    for (const auto member : loop.members) h.mix(member);
    h.mix_time(loop.formed_at);
    h.mix(loop.resolved_at ? 1 : 0);
    if (loop.resolved_at) h.mix_time(*loop.resolved_at);
  }

  for (const auto* profile : {&m.update_activity_1s, &m.exhaustion_activity_1s}) {
    h.mix(profile->size());
    for (const std::uint64_t v : *profile) h.mix(v);
  }

  h.mix_time(m.event_at);
  h.mix_time(m.last_update_at);
  h.mix_time(m.first_exhaustion_at);
  h.mix_time(m.last_exhaustion_at);
  return h.value();
}

std::uint64_t fold(const std::vector<std::uint64_t>& prints) {
  bgpsim::snap::Hasher h;
  h.mix(prints.size());
  for (const std::uint64_t p : prints) h.mix(p);
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
