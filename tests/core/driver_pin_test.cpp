// What the three experiment drivers compute, pinned. DigestEquivTest and
// the warm-start tests compare one run against another, so a change that
// moves the DV or LS driver's output in lockstep would pass them; these
// values hold each driver to what it computed when they were recorded.
//
// Each case pins the outcome's svc wire bytes (FNV-1a over
// svc::write_outcome) and, where the driver can checkpoint its converged
// prelude, the snapshot's payload hash and the hash of its whole encoded
// blob (meta included).
//
// A change that moves a value here changes what a driver computes. If that
// is intended, re-record the values and say why in the change.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <utility>

#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "core/ls_experiment.hpp"
#include "snap/codec.hpp"
#include "snap/snapshot.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

struct Pinned {
  std::uint64_t outcome = 0;
  std::uint64_t content = 0;  // Snapshot::content_hash(); 0: no snapshot
  std::uint64_t blob = 0;     // fnv1a(Snapshot::encode())
};

std::uint64_t outcome_fingerprint(const ExperimentOutcome& o) {
  snap::Writer w;
  svc::write_outcome(w, o);
  return snap::fnv1a(w.bytes());
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << "0x" << std::hex << v;
  return s.str();
}

void expect_pinned(const ExperimentOutcome& out, const snap::Snapshot* snap,
                   const Pinned& pinned) {
  const std::uint64_t outcome = outcome_fingerprint(out);
  EXPECT_EQ(outcome, pinned.outcome) << "outcome " << hex(outcome);
  if (snap == nullptr) return;
  ASSERT_FALSE(snap->empty());
  EXPECT_EQ(snap->content_hash(), pinned.content)
      << "content " << hex(snap->content_hash());
  const std::uint64_t blob = snap::fnv1a(snap->encode());
  EXPECT_EQ(blob, pinned.blob) << "blob " << hex(blob);
}

/// Run `scenario` with save_converged and pin its outcome and snapshot.
template <typename S, typename Run>
snap::Snapshot expect_run_pinned(S scenario, Run run, const Pinned& pinned) {
  snap::Snapshot converged;
  scenario.save_converged = &converged;
  expect_pinned(run(scenario), &converged, pinned);
  return converged;
}

Scenario bgp_clique() {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.bgp.mrai = sim::SimTime::seconds(5);
  s.seed = 17;
  return s;
}

DvScenario dv_clique(EventKind event, bool periodic) {
  DvScenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 5;
  s.event = event;
  if (!periodic) s.dv.periodic = sim::SimTime::zero();
  s.seed = 23;
  return s;
}

LsScenario ls_ring(EventKind event) {
  LsScenario s;
  s.topology.kind = TopologyKind::kRing;
  s.topology.size = 6;
  s.event = event;
  s.seed = 29;
  return s;
}

const auto run_bgp = [](const Scenario& s) { return run_experiment(s); };
const auto run_dv = [](const DvScenario& s) { return run_dv_experiment(s); };
const auto run_ls = [](const LsScenario& s) { return run_ls_experiment(s); };

TEST(DriverPinTest, DvTriggeredOnly) {
  const std::pair<EventKind, Pinned> cases[] = {
      {EventKind::kTdown,
       {0x38e976e3bf243e79ULL, 0x7ae72f1acdb98eacULL, 0x8c57e04abc4aa00fULL}},
      {EventKind::kTlong,
       {0xef85380422e016a0ULL, 0x7ae72f1acdb98eacULL, 0x8c57e04abc4aa00fULL}},
      {EventKind::kTup,
       {0x32b3e9c81fa7b98fULL, 0x39a73a28f967f143ULL, 0x8d04dbf4bd0f9aa8ULL}},
  };
  for (const auto& [event, pinned] : cases) {
    SCOPED_TRACE(to_string(event));
    (void)expect_run_pinned(dv_clique(event, /*periodic=*/false), run_dv,
                            pinned);
  }
}

TEST(DriverPinTest, DvPeriodic) {
  // Periodic refresh never empties the event queue, so there is no
  // converged-prelude snapshot to pin.
  const std::pair<EventKind, std::uint64_t> cases[] = {
      {EventKind::kTdown, 0xee6ea77f56348d2dULL},
      {EventKind::kTlong, 0xda64f3b362347097ULL},
      {EventKind::kTup, 0x78985333c150e159ULL},
  };
  for (const auto& [event, pinned] : cases) {
    SCOPED_TRACE(to_string(event));
    expect_pinned(run_dv_experiment(dv_clique(event, /*periodic=*/true)),
                  nullptr, {.outcome = pinned});
  }
}

TEST(DriverPinTest, Ls) {
  const std::pair<EventKind, Pinned> cases[] = {
      {EventKind::kTdown,
       {0xb34451ce8b5d6ea8ULL, 0x25a7398968b5d7a4ULL, 0xad2a0be6e6a68156ULL}},
      {EventKind::kTlong,
       {0x2208441b9a6720a2ULL, 0x25a7398968b5d7a4ULL, 0xad2a0be6e6a68156ULL}},
      {EventKind::kTup,
       {0xfcfce082dd5428eaULL, 0x321cd26f47f498ffULL, 0x6e80e97580e70535ULL}},
  };
  for (const auto& [event, pinned] : cases) {
    SCOPED_TRACE(to_string(event));
    (void)expect_run_pinned(ls_ring(event), run_ls, pinned);
  }
}

TEST(DriverPinTest, RoundTripVerifyPerDriver) {
  // The mid-run probe saves, restores in place and re-saves; a correct
  // codec leaves the rest of the run untouched.
  {
    SCOPED_TRACE("bgp");
    Scenario s = bgp_clique();
    s.snap_roundtrip = SnapRoundtrip::kVerify;
    expect_pinned(run_experiment(s), nullptr,
                  {.outcome = 0xf985de7bcd57fb53ULL});
  }
  {
    SCOPED_TRACE("dv");
    DvScenario s = dv_clique(EventKind::kTdown, /*periodic=*/false);
    s.snap_roundtrip = SnapRoundtrip::kVerify;
    expect_pinned(run_dv_experiment(s), nullptr,
                  {.outcome = 0xbc882f9cb3f26d58ULL});
  }
  {
    SCOPED_TRACE("ls");
    LsScenario s = ls_ring(EventKind::kTlong);
    s.snap_roundtrip = SnapRoundtrip::kVerify;
    // LS settles within milliseconds; probe while the SPF runs are pending.
    s.snap_roundtrip_after = sim::SimTime::millis(3);
    expect_pinned(run_ls_experiment(s), nullptr,
                  {.outcome = 0xd30a2e5387520861ULL});
  }
}

TEST(DriverPinTest, WarmStartPerDriver) {
  // The warm run re-captures its restored state as an echo; its outcome is
  // pinned, and the snapshot it started from is pinned by the cold run.
  {
    SCOPED_TRACE("bgp");
    const snap::Snapshot converged =
        expect_run_pinned(bgp_clique(), run_bgp,
                          {0x541ff5aaac3cf6bcULL, 0x1f77571a9a4fbb28ULL,
                           0x6d23a7bf3d926216ULL});
    Scenario warm = bgp_clique();
    warm.warm_start = &converged;
    expect_pinned(run_experiment(warm), nullptr,
                  {.outcome = 0x541ff5aaac3cf6bcULL});
  }
  {
    SCOPED_TRACE("dv");
    const DvScenario cold = dv_clique(EventKind::kTlong, /*periodic=*/false);
    const snap::Snapshot converged = expect_run_pinned(
        cold, run_dv,
        {0xef85380422e016a0ULL, 0x7ae72f1acdb98eacULL, 0x8c57e04abc4aa00fULL});
    DvScenario warm = cold;
    warm.warm_start = &converged;
    expect_pinned(run_dv_experiment(warm), nullptr,
                  {.outcome = 0xef85380422e016a0ULL});
  }
  {
    SCOPED_TRACE("ls");
    const LsScenario cold = ls_ring(EventKind::kTdown);
    const snap::Snapshot converged = expect_run_pinned(
        cold, run_ls,
        {0xb34451ce8b5d6ea8ULL, 0x25a7398968b5d7a4ULL, 0xad2a0be6e6a68156ULL});
    LsScenario warm = cold;
    warm.warm_start = &converged;
    expect_pinned(run_ls_experiment(warm), nullptr,
                  {.outcome = 0xb34451ce8b5d6ea8ULL});
  }
}

TEST(DriverPinTest, BgpFlapPrelude) {
  // On an Internet topology the destination must survive losing a link,
  // so the Flap prelude differs from the Tdown one.
  Scenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 10;
  s.topology.topo_seed = 5;
  s.event = EventKind::kFlap;
  s.seed = 17;
  (void)expect_run_pinned(
      s, run_bgp,
      {0x9fce75df84204f35ULL, 0x0aabbe9e7dac164cULL, 0x81450c2b3b6c9550ULL});
  EXPECT_EQ(scenario_prelude_hash(s), 0x18bb1fd5158ff0e4ULL)
      << "prelude " << hex(scenario_prelude_hash(s));
}

}  // namespace
}  // namespace bgpsim::core
