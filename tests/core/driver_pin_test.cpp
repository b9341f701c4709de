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
       {0xac26e9e114849bc2ULL, 0x1fd3e220dd977e2cULL, 0x27780caefed04977ULL}},
      {EventKind::kTlong,
       {0xecf713d0853cda6cULL, 0x1fd3e220dd977e2cULL, 0x27780caefed04977ULL}},
      {EventKind::kTup,
       {0x77fd8356ac7ff7c9ULL, 0xe94a694340d0e7c3ULL, 0x99a1fe1c25c1983bULL}},
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
      {EventKind::kTdown, 0x70d5ee5081c23c17ULL},
      {EventKind::kTlong, 0x8771a110f9debd4bULL},
      {EventKind::kTup, 0x1a58e698fbd64d5bULL},
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
       {0x5c7c8285b33d30dfULL, 0x1e2d7921d9f0d764ULL, 0x9402cc4024b7e721ULL}},
      {EventKind::kTlong,
       {0x3485b890e527d257ULL, 0x1e2d7921d9f0d764ULL, 0x9402cc4024b7e721ULL}},
      {EventKind::kTup,
       {0x2ac9b349c5f6033cULL, 0xbc212735d2e05f9fULL, 0x8fee4f621cc25810ULL}},
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
                  {.outcome = 0x8e86a14d7bd9c187ULL});
  }
  {
    SCOPED_TRACE("dv");
    DvScenario s = dv_clique(EventKind::kTdown, /*periodic=*/false);
    s.snap_roundtrip = SnapRoundtrip::kVerify;
    expect_pinned(run_dv_experiment(s), nullptr,
                  {.outcome = 0xac26e9e114849bc2ULL});
  }
  {
    SCOPED_TRACE("ls");
    LsScenario s = ls_ring(EventKind::kTlong);
    s.snap_roundtrip = SnapRoundtrip::kVerify;
    // LS settles within milliseconds; probe while the SPF runs are pending.
    s.snap_roundtrip_after = sim::SimTime::millis(3);
    expect_pinned(run_ls_experiment(s), nullptr,
                  {.outcome = 0x3485b890e527d257ULL});
  }
}

TEST(DriverPinTest, WarmStartPerDriver) {
  // The warm run re-captures its restored state as an echo; its outcome is
  // pinned, and the snapshot it started from is pinned by the cold run.
  {
    SCOPED_TRACE("bgp");
    const snap::Snapshot converged =
        expect_run_pinned(bgp_clique(), run_bgp,
                          {0x8e86a14d7bd9c187ULL, 0x524dbd495d8d2e08ULL,
                           0x5d4f0f58306d0673ULL});
    Scenario warm = bgp_clique();
    warm.warm_start = &converged;
    expect_pinned(run_experiment(warm), nullptr,
                  {.outcome = 0x8e86a14d7bd9c187ULL});
  }
  {
    SCOPED_TRACE("dv");
    const DvScenario cold = dv_clique(EventKind::kTlong, /*periodic=*/false);
    const snap::Snapshot converged = expect_run_pinned(
        cold, run_dv,
        {0xecf713d0853cda6cULL, 0x1fd3e220dd977e2cULL, 0x27780caefed04977ULL});
    DvScenario warm = cold;
    warm.warm_start = &converged;
    expect_pinned(run_dv_experiment(warm), nullptr,
                  {.outcome = 0xecf713d0853cda6cULL});
  }
  {
    SCOPED_TRACE("ls");
    const LsScenario cold = ls_ring(EventKind::kTdown);
    const snap::Snapshot converged = expect_run_pinned(
        cold, run_ls,
        {0x5c7c8285b33d30dfULL, 0x1e2d7921d9f0d764ULL, 0x9402cc4024b7e721ULL});
    LsScenario warm = cold;
    warm.warm_start = &converged;
    expect_pinned(run_ls_experiment(warm), nullptr,
                  {.outcome = 0x5c7c8285b33d30dfULL});
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
      {0xbeb4f092661dbeb5ULL, 0x5e20d2ab51e2d3ccULL, 0xd5d0e62b957bf530ULL});
  EXPECT_EQ(scenario_prelude_hash(s), 0x18bb1fd5158ff0e4ULL)
      << "prelude " << hex(scenario_prelude_hash(s));
}

}  // namespace
}  // namespace bgpsim::core
