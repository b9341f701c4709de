// Fault tolerance: the campaign must survive workers dying mid-flight —
// including SIGKILL, which leaves no chance to say goodbye — and still
// merge to the exact single-process result: every trial present exactly
// once, digest bit-identical.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "svc/coordinator.hpp"
#include "svc/protocol.hpp"
#include "svc/transport.hpp"
#include "svc/worker.hpp"

namespace bgpsim::svc {
namespace {

core::Scenario clique(std::size_t size) {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = size;
  s.event = core::EventKind::kTdown;
  s.seed = 11;
  return s;
}

CampaignSpec small_sweep() {
  CampaignSpec spec;
  spec.scenarios = {clique(5), clique(6)};
  spec.run.trials = 4;
  spec.unit_trials = 1;
  return spec;
}

std::uint64_t serial_digest(const CampaignSpec& spec) {
  std::vector<core::TrialSet> sets;
  for (const core::Scenario& s : spec.scenarios) {
    sets.push_back(core::run_trials(s, spec.run));
  }
  return campaign_digest(sets);
}

TEST(SvcFaultTest, SigkilledWorkerIsDetectedAndItsUnitRequeued) {
  const CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);

  CampaignOptions options;
  bool killed = false;
  options.on_unit_done = [&](Coordinator& c, std::size_t units_done) {
    // After the first completed unit, SIGKILL one worker outright. Its
    // in-flight unit (if any) must be requeued onto a survivor; no trial
    // may be lost or duplicated.
    if (units_done != 1 || killed) return;
    for (std::size_t i = 0; i < c.worker_count(); ++i) {
      const pid_t pid = c.worker_pid(i);
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        killed = true;
        break;
      }
    }
  };

  Coordinator coordinator{spec, options};
  for (int i = 0; i < 4; ++i) coordinator.spawn_fork_worker();
  const CampaignResult result = coordinator.run();

  ASSERT_TRUE(killed);
  EXPECT_EQ(result.workers_lost, 1u);
  EXPECT_EQ(result.digest, expected) << "merged campaign diverged from the "
                                        "single-process digest after a "
                                        "worker was SIGKILLed";
  ASSERT_EQ(result.sets.size(), 2u);
  EXPECT_EQ(result.sets[0].runs.size(), 4u);
  EXPECT_EQ(result.sets[1].runs.size(), 4u);
}

TEST(SvcFaultTest, EveryWorkerKilledFailsTheCampaignLoudly) {
  CampaignOptions options;
  options.on_unit_done = [](Coordinator& c, std::size_t units_done) {
    if (units_done != 1) return;
    for (std::size_t i = 0; i < c.worker_count(); ++i) {
      const pid_t pid = c.worker_pid(i);
      if (pid > 0) ::kill(pid, SIGKILL);
    }
  };
  Coordinator coordinator{small_sweep(), options};
  for (int i = 0; i < 2; ++i) coordinator.spawn_fork_worker();
  EXPECT_THROW((void)coordinator.run(), std::runtime_error);
}

TEST(SvcFaultTest, StalledWorkerBlowsItsDeadlineAndIsReplaced) {
  // Small units and a deadline with generous headroom over a real unit's
  // duration: sanitizer builds slow trials by an order of magnitude, and
  // the deadline must only ever fire for the stalled impostor below.
  CampaignSpec spec;
  spec.scenarios = {clique(5)};
  spec.run.trials = 3;
  spec.unit_trials = 1;
  const std::uint64_t expected = serial_digest(spec);

  // One impostor worker that completes the handshake, then sits on every
  // unit forever; one honest worker. The impostor's units must come back
  // via the deadline and finish on the honest worker.
  SocketPair pair = make_socketpair();
  const pid_t impostor = ::fork();
  ASSERT_GE(impostor, 0);
  if (impostor == 0) {
    pair.coordinator.close();
    (void)pair.worker.send_frame(
        encode_hello(Hello{0, static_cast<std::uint64_t>(::getpid())}));
    for (;;) ::pause();  // never answer a work frame
  }
  pair.worker.close();

  CampaignOptions options;
  options.deadline_s = 8;
  Coordinator coordinator{spec, options};
  coordinator.add_worker(std::move(pair.coordinator), impostor);
  coordinator.spawn_fork_worker();
  const CampaignResult result = coordinator.run();

  EXPECT_GE(result.requeues, 1u);
  EXPECT_GE(result.workers_lost, 1u);
  EXPECT_EQ(result.digest, expected);
}

TEST(SvcFaultTest, ProtocolViolationDropsTheWorkerNotTheCampaign) {
  const CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);

  // A worker that answers its first unit with garbage bytes. The
  // coordinator must treat the corrupt stream as a dead worker (the
  // stream cannot be resynchronized) and finish on the honest one.
  SocketPair pair = make_socketpair();
  const pid_t liar = ::fork();
  ASSERT_GE(liar, 0);
  if (liar == 0) {
    pair.coordinator.close();
    (void)pair.worker.send_frame(
        encode_hello(Hello{0, static_cast<std::uint64_t>(::getpid())}));
    // Wait for work, then reply with bytes that are not a frame.
    (void)pair.worker.recv_frame();
    const std::uint8_t garbage[32] = {0xBA, 0xAD};
    (void)::write(pair.worker.fd(), garbage, sizeof garbage);
    ::_exit(0);
  }
  pair.worker.close();

  Coordinator coordinator{spec, {}};
  coordinator.add_worker(std::move(pair.coordinator), liar);
  coordinator.spawn_fork_worker();
  const CampaignResult result = coordinator.run();

  EXPECT_GE(result.workers_lost, 1u);
  EXPECT_EQ(result.digest, expected);
}

TEST(SvcFaultTest, ExecWorkerStderrIsRelayedWhenItDies) {
  // The child of an exec spawn reports a failed exec on its stderr and
  // exits 127. The relay must drain the pipe when it fails the worker,
  // so the line reaches our stderr with the worker's prefix.
  Coordinator coordinator{small_sweep()};
  coordinator.spawn_exec_worker("/nonexistent/bgpsim_worker");
  testing::internal::CaptureStderr();
  EXPECT_THROW((void)coordinator.run(), std::runtime_error);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(
      err.find("[worker 0] svc: exec /nonexistent/bgpsim_worker failed"),
      std::string::npos)
      << err;
}

TEST(SvcFaultTest, CrossVersionCoordinatorIsRejectedByWorkerPromptly) {
  // A worker handed a frame from a protocol-v3 coordinator must refuse it
  // through the shared version check and exit non-zero — not hang waiting
  // for bytes that will never parse, not serve the unit anyway.
  SocketPair pair = make_socketpair();
  const pid_t worker = ::fork();
  ASSERT_GE(worker, 0);
  if (worker == 0) {
    pair.coordinator.close();
    ::_exit(worker_loop(std::move(pair.worker), 0));
  }
  pair.worker.close();

  std::optional<Frame> hello = pair.coordinator.recv_frame();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->type, FrameType::kHello);

  Frame work;
  work.type = FrameType::kWork;
  work.payload = {1, 2, 3};
  const std::vector<std::uint8_t> v3_bytes = encode_frame(work, 3);
  ASSERT_EQ(::write(pair.coordinator.fd(), v3_bytes.data(), v3_bytes.size()),
            static_cast<ssize_t>(v3_bytes.size()));

  // The worker's EOF-or-exit must arrive promptly: block on its status
  // rather than sleeping, and require the explicit failure exit code.
  int status = 0;
  ASSERT_EQ(::waitpid(worker, &status, 0), worker);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  // The stream is dead from the worker's side. The worker throws on the
  // frame header and exits without draining the payload bytes, so the
  // parent sees either clean EOF or a connection reset — never a frame.
  try {
    EXPECT_FALSE(pair.coordinator.recv_frame().has_value());
  } catch (const std::exception&) {
    // Connection reset by peer: the bad payload was still unread.
  }
}

}  // namespace
}  // namespace bgpsim::svc
