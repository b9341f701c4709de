// Operation-level rings-vs-fast-forward differential suite: both data-plane
// backends replay identical scripted histories — injections, FIB edits,
// link flaps, same-tick bursts, ops scheduled from inside running events,
// clear_pending, restores — and must agree on every model observable: the
// ordered fate stream, the counters, the clock, the in-flight count, and
// the serialized bytes. The simulator's events_fired and seq counter are
// engine counts that differ between the backends (fast-forward fires only
// where it wakes), so they are compared only within one backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fwd/engine.hpp"
#include "sim/random.hpp"
#include "snap/codec.hpp"
#include "topo/generators.hpp"

namespace bgpsim::fwd {
namespace {

struct FateRow {
  std::uint64_t id = 0;
  PacketFate fate = PacketFate::kDelivered;
  net::NodeId where = net::kInvalidNode;
  sim::SimTime when;
  int hops = 0;
  int ttl = 0;
  bool operator==(const FateRow&) const = default;
};

class FateRecorder final : public FateSink {
 public:
  void on_fates(std::span<const FateRecord> batch) override {
    for (const FateRecord& r : batch) {
      rows.push_back(FateRow{r.packet.id, r.fate, r.where, r.when,
                             r.packet.hops_taken, r.packet.ttl});
    }
  }
  std::vector<FateRow> rows;
};

/// One scripted control- or data-plane action, applied at `at`.
struct Op {
  enum class Kind : std::uint8_t {
    kInject,
    kSetRoute,
    kClearRoute,
    kLinkToggle,
    kClearPending
  };
  Kind kind = Kind::kInject;
  sim::SimTime at;
  net::NodeId a = 0;  // inject source / FIB node / link endpoint
  net::NodeId b = 0;  // FIB next hop / other link endpoint
  net::Prefix prefix = 0;
  int ttl = kDefaultTtl;
  bool up = true;
  /// When set, an event running at this time schedules the op (zero delay
  /// when it equals `at`), so the op's tie-break seq is drawn mid-run —
  /// possibly after the bridge for `at` was armed. Otherwise the op is
  /// scheduled up front, before anything runs.
  std::optional<sim::SimTime> scheduled_at{};
};

/// How the probe at `probe_at` exercises the serialized state.
enum class Probe : std::uint8_t {
  kSave,         // serialize only
  kRoundTrip,    // restore in place and re-serialize (must be invisible)
  kFreshRestore  // also restore into a fresh simulator and plane
};

struct Observed {
  std::vector<FateRow> fates;
  DataPlane::Counters counters;
  std::uint64_t events_fired = 0;
  std::uint64_t event_seq = 0;
  sim::SimTime now;
  std::size_t in_flight = 0;
  std::vector<std::uint8_t> bytes;      // save_state payload at probe_at
  std::vector<std::uint8_t> end_bytes;  // save_state payload at the end
  // The fresh plane restored from `bytes` (Probe::kFreshRestore), after a
  // few more injections and a run of its own simulator.
  std::vector<FateRow> fresh_fates;
  std::size_t fresh_in_flight = 0;
  std::vector<std::uint8_t> fresh_bytes;
};

constexpr std::size_t kNodes = 6;

/// The 6-ring every script runs on, all links at kDefaultLinkDelay.
net::Topology uniform_ring() { return topo::make_ring(kNodes); }

/// The same 6-ring with one 3 ms link (5—0): delays are mixed.
net::Topology mixed_ring() {
  net::Topology t{kNodes};
  for (net::NodeId a = 0; a + 1 < kNodes; ++a) t.add_link(a, a + 1);
  t.add_link(kNodes - 1, 0, sim::SimTime::millis(3));
  return t;
}

std::vector<std::uint8_t> save(const DataPlane& plane) {
  snap::Writer w;
  plane.save_state(w);
  return std::move(w).take();
}

void apply(const Op& op, sim::Simulator& sim, net::Topology& topo,
           std::vector<Fib>& fibs, DataPlane& plane) {
  switch (op.kind) {
    case Op::Kind::kInject:
      plane.inject(Injection{op.a, op.prefix, op.ttl});
      break;
    case Op::Kind::kSetRoute:
      fibs[op.a].set_next_hop(op.prefix, op.b);
      break;
    case Op::Kind::kClearRoute:
      fibs[op.a].clear_route(op.prefix);
      break;
    case Op::Kind::kLinkToggle:
      topo.set_link_state(*topo.link_between(op.a, op.b), op.up);
      break;
    case Op::Kind::kClearPending:
      sim.clear_pending();
      break;
  }
}

/// How one replay is observed beyond the script itself.
struct Replay {
  sim::SimTime probe_at;
  Probe probe = Probe::kSave;
  /// When set, an event running at this time schedules the probe (else it
  /// is scheduled up front, like the script's ops).
  std::optional<sim::SimTime> probe_scheduled_at{};
  /// After the run, inject three more packets from outside any event and
  /// run again, so a plane frozen by clear_pending is observed too.
  bool tail = false;
  net::Topology topo = uniform_ring();
};

/// Replay `script` on a fresh 6-ring under the given backend. At
/// `run.probe_at` the plane is serialized (see Probe).
Observed execute(PlaneBackend backend, const std::vector<Op>& script,
                 Replay run) {
  net::Topology& topo = run.topo;
  const Probe probe = run.probe;
  sim::Simulator sim;
  std::vector<Fib> fibs(topo.node_count());
  DataPlaneOptions options;
  options.destinations = {0, 1};  // prefix 0 lives at node 0, prefix 1 at 1
  options.backend = backend;
  DataPlane plane{sim, topo, fibs, options};
  FateRecorder recorder;
  plane.set_fate_sink(&recorder);

  for (const Op& op : script) {
    const auto run_op = [&, op] { apply(op, sim, topo, fibs, plane); };
    if (op.scheduled_at) {
      sim.schedule_at(*op.scheduled_at,
                      [&sim, op, run_op] { sim.schedule_at(op.at, run_op); });
    } else {
      sim.schedule_at(op.at, run_op);
    }
  }

  Observed out;
  struct Fresh {
    sim::Simulator sim;
    std::vector<Fib> fibs;
    std::unique_ptr<DataPlane> plane;
    FateRecorder recorder;
  };
  std::unique_ptr<Fresh> fresh;
  const auto probe_fn = [&] {
    out.bytes = save(plane);
    if (probe == Probe::kRoundTrip) {
      snap::Reader r{out.bytes};
      plane.restore_state(r);
      r.finish();
      ASSERT_EQ(out.bytes, save(plane));
    }
    if (probe == Probe::kFreshRestore) {
      fresh = std::make_unique<Fresh>();
      fresh->fibs = fibs;
      fresh->plane = std::make_unique<DataPlane>(fresh->sim, topo,
                                                 fresh->fibs, options);
      fresh->plane->set_fate_sink(&fresh->recorder);
      fresh->sim.restore_clock(sim.now(), sim.events_fired(),
                               sim.event_seq());
      snap::Reader r{out.bytes};
      fresh->plane->restore_state(r);
      r.finish();
      ASSERT_EQ(out.bytes, save(*fresh->plane));
    }
  };
  if (run.probe_scheduled_at) {
    sim.schedule_at(*run.probe_scheduled_at,
                    [&] { sim.schedule_at(run.probe_at, probe_fn); });
  } else {
    sim.schedule_at(run.probe_at, probe_fn);
  }

  sim.run();
  if (run.tail) {
    for (const net::NodeId source : {2U, 4U, 5U}) {
      plane.inject(Injection{.source = source, .ttl = 9});
    }
    sim.run();
  }
  out.fates = recorder.rows;
  out.counters = plane.counters();
  out.events_fired = sim.events_fired();
  out.event_seq = sim.event_seq();
  out.now = sim.now();
  out.in_flight = plane.in_flight();
  out.end_bytes = save(plane);
  if (fresh) {
    for (const net::NodeId source : {3U, 5U}) {
      fresh->plane->inject(Injection{.source = source, .ttl = 7});
    }
    fresh->sim.run();
    out.fresh_fates = fresh->recorder.rows;
    out.fresh_in_flight = fresh->plane->in_flight();
    out.fresh_bytes = save(*fresh->plane);
  }
  return out;
}

void expect_equal(const Observed& rings, const Observed& ff) {
  EXPECT_EQ(rings.fates, ff.fates);
  EXPECT_EQ(rings.counters.injected, ff.counters.injected);
  EXPECT_EQ(rings.counters.delivered, ff.counters.delivered);
  EXPECT_EQ(rings.counters.ttl_exhausted, ff.counters.ttl_exhausted);
  EXPECT_EQ(rings.counters.no_route, ff.counters.no_route);
  EXPECT_EQ(rings.counters.link_down, ff.counters.link_down);
  EXPECT_EQ(rings.counters.hops, ff.counters.hops);
  EXPECT_EQ(rings.now, ff.now);
  EXPECT_EQ(rings.in_flight, ff.in_flight);
  EXPECT_EQ(rings.bytes, ff.bytes);
  EXPECT_EQ(rings.end_bytes, ff.end_bytes);
  EXPECT_EQ(rings.fresh_fates, ff.fresh_fates);
  EXPECT_EQ(rings.fresh_in_flight, ff.fresh_in_flight);
  EXPECT_EQ(rings.fresh_bytes, ff.fresh_bytes);
  // The ring store predicts nothing.
  EXPECT_EQ(rings.counters.segments, 0u);
  EXPECT_EQ(rings.counters.repredictions, 0u);
}

/// Routes every node around the ring toward node 0 on both prefixes
/// (prefix 1's destination, node 1, still terminates its own packets).
std::vector<Op> ring_routes() {
  std::vector<Op> ops;
  for (net::NodeId v = 1; v < kNodes; ++v) {
    for (net::Prefix p = 0; p < 2; ++p) {
      ops.push_back(Op{.kind = Op::Kind::kSetRoute,
                       .at = sim::SimTime::zero(),
                       .a = v,
                       .b = static_cast<net::NodeId>(v - 1),
                       .prefix = p});
    }
  }
  return ops;
}

/// One random non-inject op at `at`: rewires toward arbitrary nodes
/// (neighbors form loops, strangers hit kLinkDown), route clears
/// (kNoRoute), and link flaps.
Op random_control(sim::Rng& rng, sim::SimTime at) {
  Op op;
  op.at = at;
  const auto node = static_cast<net::NodeId>(rng.next_below(kNodes));
  op.a = node;
  op.prefix = static_cast<net::Prefix>(rng.next_below(2));
  switch (rng.next_below(4)) {
    case 0:
    case 1:
      op.kind = Op::Kind::kSetRoute;
      op.b = static_cast<net::NodeId>(
          (node + 1 + rng.next_below(kNodes - 1)) % kNodes);
      break;
    case 2:
      op.kind = Op::Kind::kClearRoute;
      break;
    default:
      op.kind = Op::Kind::kLinkToggle;
      op.b = static_cast<net::NodeId>((node + 1) % kNodes);
      op.up = rng.chance(0.5);
      break;
  }
  return op;
}

/// Seed-derived history: ring routes, then a mix of injections (bursty,
/// loop-prone TTLs), route rewires toward arbitrary nodes (kLinkDown when
/// no ring edge exists), route clears (kNoRoute), and link flaps, all
/// scheduled up front.
std::vector<Op> random_script(std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<Op> ops = ring_routes();
  constexpr int kTtls[] = {1, 2, 5, 10, kDefaultTtl};
  for (int i = 0; i < 60; ++i) {
    Op op;
    op.at = sim::SimTime::micros(
        static_cast<std::int64_t>(rng.next_below(50'000)));
    const auto node = static_cast<net::NodeId>(rng.next_below(kNodes));
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // half the script is traffic, often same-tick bursts
        op.kind = Op::Kind::kInject;
        op.a = node;
        op.prefix = static_cast<net::Prefix>(rng.next_below(2));
        op.ttl = kTtls[rng.next_below(5)];
        const auto burst = static_cast<std::size_t>(rng.uniform_int(1, 4));
        for (std::size_t j = 0; j < burst; ++j) {
          Op copy = op;
          copy.a = static_cast<net::NodeId>(rng.next_below(kNodes));
          ops.push_back(copy);
        }
        continue;
      }
      case 4: {  // rewire: neighbors form loops, strangers hit kLinkDown
        op.kind = Op::Kind::kSetRoute;
        op.a = node;
        op.b = static_cast<net::NodeId>(
            (node + 1 + rng.next_below(kNodes - 1)) % kNodes);
        op.prefix = static_cast<net::Prefix>(rng.next_below(2));
        break;
      }
      case 5: {
        op.kind = Op::Kind::kClearRoute;
        op.a = node;
        op.prefix = static_cast<net::Prefix>(rng.next_below(2));
        break;
      }
      default: {
        op.kind = Op::Kind::kLinkToggle;
        op.a = node;
        op.b = static_cast<net::NodeId>((node + 1) % kNodes);
        op.up = rng.chance(0.5);
        break;
      }
    }
    ops.push_back(op);
  }
  return ops;
}

/// Seed-derived history whose ops land on hop instants: a few injection
/// instants, then injections and control ops at exact multiples of the
/// link delay after them, each scheduled from inside an event — up front,
/// at the previous instant of its phase, a fraction of a delay earlier, or
/// at its own instant (zero delay). Some land after the bridge for their
/// instant was armed, some before.
std::vector<Op> lockstep_script(std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<Op> ops = ring_routes();
  const sim::SimTime d = topo::kDefaultLinkDelay;
  std::vector<sim::SimTime> bases;
  for (int i = 0; i < 4; ++i) {
    bases.push_back(sim::SimTime::micros(
        1'000 + static_cast<std::int64_t>(rng.next_below(8'000))));
  }
  constexpr int kTtls[] = {3, 6, 12, 40, kDefaultTtl};
  for (int i = 0; i < 70; ++i) {
    const sim::SimTime base = bases[rng.next_below(bases.size())];
    const sim::SimTime at =
        base + d * static_cast<std::int64_t>(rng.next_below(24));
    Op op;
    if (rng.next_below(2) == 0) {
      op.kind = Op::Kind::kInject;
      op.at = at;
      op.a = static_cast<net::NodeId>(rng.next_below(kNodes));
      op.prefix = static_cast<net::Prefix>(rng.next_below(2));
      op.ttl = kTtls[rng.next_below(5)];
    } else {
      op = random_control(rng, at);
    }
    switch (rng.next_below(4)) {
      case 0:
        break;  // up front
      case 1:
        op.scheduled_at = at >= d ? at - d : at;
        break;
      case 2:
        op.scheduled_at =
            at - sim::SimTime::micros(static_cast<std::int64_t>(
                     rng.next_below(static_cast<std::uint64_t>(
                         std::min(at, d).as_micros() + 1))));
        break;
      default:
        op.scheduled_at = at;  // zero delay
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

TEST(DataPlaneBackendTest, RandomHistoriesAgree) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Op> script = random_script(seed);
    const sim::SimTime probe = sim::SimTime::micros(25'001);
    const Observed rings = execute(PlaneBackend::kRings, script, {probe});
    const Observed ff = execute(PlaneBackend::kFastForward, script, {probe});
    expect_equal(rings, ff);
    EXPECT_FALSE(rings.fates.empty());
    EXPECT_GT(ff.counters.segments, 0u);
  }
}

TEST(DataPlaneBackendTest, SameTickBurstsKeepFifoOrder) {
  // 20 packets injected at the same instant from alternating sources:
  // FIFO within every tick cohort means fates must come out in exactly
  // injection order under both backends.
  std::vector<Op> script = ring_routes();
  for (int i = 0; i < 20; ++i) {
    script.push_back(Op{.kind = Op::Kind::kInject,
                        .at = sim::SimTime::millis(1),
                        .a = static_cast<net::NodeId>(2 + (i % 4)),
                        .prefix = 0});
  }
  const sim::SimTime probe = sim::SimTime::millis(3);
  const Observed rings = execute(PlaneBackend::kRings, script, {probe});
  const Observed ff = execute(PlaneBackend::kFastForward, script, {probe});
  expect_equal(rings, ff);
  ASSERT_EQ(rings.fates.size(), 20u);
  for (std::size_t i = 1; i < rings.fates.size(); ++i) {
    // Same hop distance ⇒ same arrival tick ⇒ ids must stay ascending.
    if (rings.fates[i].when == rings.fates[i - 1].when) {
      EXPECT_GT(rings.fates[i].id, rings.fates[i - 1].id);
    }
  }
}

TEST(DataPlaneBackendTest, TerminalEdgesAgree) {
  // One script that forces every terminal fate: a delivery, a TTL death
  // in a 2-loop, a mid-path no-route, and a link-down drop.
  std::vector<Op> script = ring_routes();
  const auto t = [](std::int64_t ms) { return sim::SimTime::millis(ms); };
  script.push_back(Op{.kind = Op::Kind::kInject, .at = t(1), .a = 2});
  // 4 <-> 5 loop on prefix 1, entered at 5 with a tiny TTL.
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = t(2), .a = 4, .b = 5, .prefix = 1});
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = t(2), .a = 5, .b = 4, .prefix = 1});
  script.push_back(Op{
      .kind = Op::Kind::kInject, .at = t(3), .a = 5, .prefix = 1, .ttl = 7});
  // No-route mid-path: clear node 1's prefix-0 route, inject at 3 (the
  // packet walks 3 → 2 → 1 and dies at 1, reaching it at t(5) + 4 ms).
  script.push_back(Op{.kind = Op::Kind::kClearRoute, .at = t(4), .a = 1});
  script.push_back(Op{.kind = Op::Kind::kInject, .at = t(5), .a = 3});
  // Link-down drop: cut 2-1 after the no-route packet has cleared node 2,
  // then inject at 3 again (node 2's FIB still points at 1).
  script.push_back(Op{
      .kind = Op::Kind::kLinkToggle, .at = t(10), .a = 2, .b = 1, .up = false});
  script.push_back(Op{.kind = Op::Kind::kInject, .at = t(11), .a = 3});
  const Observed rings = execute(PlaneBackend::kRings, script, {t(12)});
  const Observed ff = execute(PlaneBackend::kFastForward, script, {t(12)});
  expect_equal(rings, ff);
  EXPECT_EQ(rings.counters.delivered, 1u);
  EXPECT_EQ(rings.counters.ttl_exhausted, 1u);
  EXPECT_EQ(rings.counters.no_route, 1u);
  EXPECT_EQ(rings.counters.link_down, 1u);
}

TEST(DataPlaneBackendTest, MidRunRoundTripIsInvisible) {
  // Serialize/restore/re-serialize mid-flight under both backends: the
  // bytes must be stable and the downstream fate stream identical to an
  // uninterrupted run.
  for (std::uint64_t seed : {3ULL, 7ULL, 19ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const std::vector<Op>& script :
         {random_script(seed), lockstep_script(seed)}) {
      const sim::SimTime probe = sim::SimTime::micros(25'001);
      for (const PlaneBackend backend :
           {PlaneBackend::kRings, PlaneBackend::kFastForward}) {
        SCOPED_TRACE(backend == PlaneBackend::kRings ? "rings"
                                                     : "fastforward");
        const Observed plain = execute(backend, script, {probe});
        const Observed cycled =
            execute(backend, script, {probe, Probe::kRoundTrip});
        EXPECT_EQ(plain.fates, cycled.fates);
        EXPECT_EQ(plain.bytes, cycled.bytes);
        EXPECT_EQ(plain.end_bytes, cycled.end_bytes);
        EXPECT_EQ(plain.events_fired, cycled.events_fired);
        EXPECT_EQ(plain.event_seq, cycled.event_seq);
      }
    }
  }
}

TEST(DataPlaneBackendTest, RoundTripBetweenADrainAndItsReArm) {
  // Three packets of one phase circle a 3 <-> 4 loop, so every drain of
  // that phase forwards a packet while others are still due and re-arms
  // the bridge at the same instant. A probe scheduled one millisecond
  // before a drain instant runs after that drain (its bridge was armed
  // earlier) but before the re-arm fires; a round trip or a fresh-plane
  // restore there must match the ring model and change nothing.
  std::vector<Op> script = ring_routes();
  const auto ms = [](std::int64_t v) { return sim::SimTime::millis(v); };
  script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(0), .a = 3,
                      .b = 4});
  script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(0), .a = 4,
                      .b = 3});
  for (const std::int64_t at : {1, 1, 3}) {
    script.push_back(
        Op{.kind = Op::Kind::kInject, .at = ms(at), .a = 4, .ttl = 40});
  }
  for (std::int64_t k = 0; k < 6; ++k) {
    SCOPED_TRACE("drain " + std::to_string(k));
    const sim::SimTime t = ms(5 + 2 * k);
    for (const Probe probe : {Probe::kRoundTrip, Probe::kFreshRestore}) {
      const Replay run{.probe_at = t,
                       .probe = probe,
                       .probe_scheduled_at = t - ms(1),
                       .tail = true};
      const Observed rings = execute(PlaneBackend::kRings, script, run);
      const Observed ff = execute(PlaneBackend::kFastForward, script, run);
      expect_equal(rings, ff);
      const Observed plain = execute(PlaneBackend::kFastForward, script,
                                     {t, Probe::kSave, t - ms(1), true});
      EXPECT_EQ(plain.fates, ff.fates);
      EXPECT_EQ(plain.events_fired, ff.events_fired);
      EXPECT_EQ(plain.end_bytes, ff.end_bytes);
    }
  }
}

TEST(DataPlaneBackendTest, SerializedBytesAreBackendInvariantWhileLooping) {
  // Pin a long-lived 2-loop so the probe catches a non-trivial in-flight
  // set; the canonical (at, seq) ascending serialization must agree.
  std::vector<Op> script = ring_routes();
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = sim::SimTime::millis(1), .a = 3,
         .b = 4});
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = sim::SimTime::millis(1), .a = 4,
         .b = 3});
  for (int i = 0; i < 8; ++i) {
    script.push_back(Op{.kind = Op::Kind::kInject,
                        .at = sim::SimTime::millis(2 + i),
                        .a = 4});
  }
  const sim::SimTime probe = sim::SimTime::millis(30);
  const Observed rings = execute(PlaneBackend::kRings, script, {probe});
  const Observed ff = execute(PlaneBackend::kFastForward, script, {probe});
  expect_equal(rings, ff);
  // The probe must have caught packets in flight: the payload holds the
  // 81-byte fixed prologue plus 52 bytes per serialized hop event.
  EXPECT_GE(rings.bytes.size(), 81u + 52u);
  EXPECT_EQ(rings.counters.ttl_exhausted, 8u);
}

TEST(DataPlaneBackendTest, OpsScheduledFromRunningEventsKeepTheTieRule) {
  // Control ops and injections at exact hop instants, scheduled mid-run
  // (including at zero delay): whether each runs before or after the
  // bridge of its instant depends on when its seq was drawn, and both
  // backends must make the same call every time.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Op> script = lockstep_script(seed);
    const Replay run{.probe_at = sim::SimTime::micros(21'000), .tail = true};
    const Observed rings = execute(PlaneBackend::kRings, script, run);
    const Observed ff = execute(PlaneBackend::kFastForward, script, run);
    expect_equal(rings, ff);
    EXPECT_GT(ff.counters.segments, 0u);
  }
}

TEST(DataPlaneBackendTest, RouteChangeOnACycleMemberWhileCircling) {
  // A 3 <-> 4 loop fed by 2, with packets circling it; then member 3
  // turns to 2 at every offset of the cycle — on hop instants and between
  // them, scheduled at zero delay — moving the loop to 2 <-> 3, which
  // node 2 opens toward the destination 6 ms later.
  for (std::int64_t shift = 0; shift < 12; ++shift) {
    SCOPED_TRACE("shift " + std::to_string(shift));
    std::vector<Op> script = ring_routes();
    const auto ms = [](std::int64_t v) { return sim::SimTime::millis(v); };
    script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(0), .a = 2,
                        .b = 3});
    script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(0), .a = 4,
                        .b = 3});
    script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(0), .a = 3,
                        .b = 4});
    for (int i = 0; i < 5; ++i) {
      script.push_back(Op{.kind = Op::Kind::kInject,
                          .at = ms(1) + sim::SimTime::micros(300 * i),
                          .a = static_cast<net::NodeId>(2 + i % 3)});
    }
    const sim::SimTime t = ms(9) + sim::SimTime::micros(500 * shift);
    script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = t, .a = 3,
                        .b = 2, .scheduled_at = t});
    script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = t + ms(6), .a = 2,
                        .b = 1});
    const Replay run{.probe_at = ms(12), .tail = true};
    const Observed rings = execute(PlaneBackend::kRings, script, run);
    const Observed ff = execute(PlaneBackend::kFastForward, script, run);
    expect_equal(rings, ff);
    EXPECT_GT(ff.counters.repredictions, 0u);
  }
}

TEST(DataPlaneBackendTest, SourceInjectsAsItsPreviousPacketPassesIt) {
  // Node 3 sits on a 3 <-> 4 loop and sends every 4 ms — exactly when its
  // previous packets come back through it — first up front, then from
  // inside its own previous send (the traffic generator's pattern).
  std::vector<Op> script = ring_routes();
  const auto ms = [](std::int64_t v) { return sim::SimTime::millis(v); };
  script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(0), .a = 3,
                      .b = 4});
  script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(0), .a = 4,
                      .b = 3});
  for (int i = 0; i < 12; ++i) {
    Op op{.kind = Op::Kind::kInject,
          .at = ms(1 + 4 * i),
          .a = 3,
          .ttl = 9 + i % 4};
    if (i % 2 == 1) op.scheduled_at = op.at - ms(4);
    script.push_back(op);
  }
  script.push_back(Op{.kind = Op::Kind::kSetRoute, .at = ms(31), .a = 4,
                      .b = 5, .scheduled_at = ms(27)});
  const Replay run{.probe_at = ms(17), .tail = true};
  const Observed rings = execute(PlaneBackend::kRings, script, run);
  const Observed ff = execute(PlaneBackend::kFastForward, script, run);
  expect_equal(rings, ff);
}

TEST(DataPlaneBackendTest, MidRunRestoreIntoAFreshPlane) {
  // The probe also restores its bytes into a fresh simulator and plane
  // (clock, fired count and seq carried over), then both planes take more
  // traffic. A mid-run state's bridge is not armed in the fresh simulator,
  // so the ring model leaves the restored packets where they are.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const std::vector<Op>& script :
         {random_script(seed), lockstep_script(seed)}) {
      for (const sim::SimTime probe :
           {sim::SimTime::micros(9'001), sim::SimTime::micros(60'000)}) {
        const Replay run{.probe_at = probe, .probe = Probe::kFreshRestore,
                      .tail = true};
        const Observed rings = execute(PlaneBackend::kRings, script, run);
        const Observed ff = execute(PlaneBackend::kFastForward, script, run);
        expect_equal(rings, ff);
      }
    }
  }
}

TEST(DataPlaneBackendTest, ClearPendingWithPacketsInFlight) {
  // clear_pending drops the bridge under packets in flight: they never
  // arrive anywhere again, and later injections queue behind them.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<Op> script = lockstep_script(seed);
    script.push_back(Op{.kind = Op::Kind::kClearPending,
                        .at = sim::SimTime::micros(
                            5'000 + 1'000 * static_cast<std::int64_t>(seed))});
    const Replay run{.probe_at = sim::SimTime::micros(4'001), .tail = true};
    const Observed rings = execute(PlaneBackend::kRings, script, run);
    const Observed ff = execute(PlaneBackend::kFastForward, script, run);
    expect_equal(rings, ff);
  }
}

TEST(DataPlaneBackendTest, MixedLinkDelaysStepHopByHop) {
  // One 3 ms link breaks the lockstep invariant: fast-forward steps hop by
  // hop through the ring store and predicts nothing.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const std::vector<Op>& script :
         {random_script(seed), lockstep_script(seed)}) {
      const Replay run{.probe_at = sim::SimTime::micros(25'001),
                    .probe = Probe::kRoundTrip,
                    .tail = true,
                    .topo = mixed_ring()};
      const Observed rings = execute(PlaneBackend::kRings, script, run);
      const Observed ff = execute(PlaneBackend::kFastForward, script, run);
      expect_equal(rings, ff);
      EXPECT_EQ(ff.counters.segments, 0u);
    }
  }
}

}  // namespace
}  // namespace bgpsim::fwd
