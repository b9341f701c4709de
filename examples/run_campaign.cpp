// run_campaign: distributed campaign execution over the src/svc/ service.
//
//   $ run_campaign --topo clique --sizes 5,10,15 --event tdown --trials 8 --workers 4
//
// Decomposes a sweep (one scenario per --sizes entry, or a single
// --size scenario) into (scenario, trial-range) work units and runs them
// across worker *processes* — spawned locally over socketpairs (default),
// spawned locally but attached over loopback TCP (--tcp), or attached
// from outside (--listen PORT + `bgpsim_worker --connect`). The merged
// aggregate is bit-identical to the in-process `run_trials` at
// any worker count; --check-serial re-runs the campaign in-process and
// verifies exactly that by content digest (the svc_smoke CTest entry).
//
// Flags:
//   --file SCENARIO          load base scenario from a scenario file
//   --topo/--size/--event/--proto/--mrai/--seed/--policy
//                            as in run_scenario
//   --sizes A,B,C            sweep: one scenario per size (overrides --size)
//   --trials K               trials per scenario (default 4)
//   --unit-trials U          trials per work unit (default 1)
//   --workers N              worker processes (default: BGPSIM_WORKERS,
//                            else BGPSIM_JOBS, else all cores)
//   --deadline-s D           per-unit deadline; a worker that exceeds it is
//                            killed and its unit requeued (default: off)
//   --tcp                    spawn workers that attach over loopback TCP
//   --listen PORT            serve PORT and wait for N external workers
//   --worker-bin PATH        bgpsim_worker binary (default: sibling of
//                            this binary)
//   --fork                   spawn by fork() without exec (self-contained)
//   --journal PATH           write a write-ahead journal while running, so
//                            a killed campaign resumes with --resume PATH
//                            (bare names resolve under BGPSIM_JOURNAL_DIR)
//   --resume PATH            resume a journaled campaign: completed units
//                            are restored from the journal, only units in
//                            flight at the crash re-run, and the digest is
//                            bit-identical to an uninterrupted run
//   --check-serial           verify the campaign digest against the
//                            in-process runner; non-zero exit on mismatch
//   --verbose                info-level service logging
//
// A campaign whose units fail permanently (a worker reports a
// deterministic per-unit error, or a unit exhausts its attempt cap on
// dying workers) exits non-zero after printing one line per failed unit.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/env.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "metrics/stats.hpp"
#include "sim/logging.hpp"
#include "svc/coordinator.hpp"
#include "svc/transport.hpp"
#include "svc/units.hpp"
#include "svcd/daemon.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s %s [--sizes A,B,C] [--trials K] [--unit-trials U] "
      "[--workers N] [--deadline-s D] [--tcp] [--listen PORT] "
      "[--worker-bin PATH] [--fork] [--journal PATH] [--resume PATH] "
      "[--check-serial] [--verbose]\n",
      argv0, bgpsim::cli::kScenarioUsage);
  std::exit(2);
}

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v == 0) {
      std::fprintf(stderr, "run_campaign: bad --sizes entry '%s'\n",
                   tok.c_str());
      std::exit(2);
    }
    sizes.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

/// Resolve a journal path: bare file names (no '/') land under
/// BGPSIM_JOURNAL_DIR when that knob is set.
std::string resolve_journal_path(const std::string& path) {
  if (path.find('/') != std::string::npos) return path;
  const char* dir = bgpsim::core::env::journal_dir();
  return dir == nullptr ? path : std::string{dir} + "/" + path;
}

/// Satellite of the failure contract: a campaign with permanently failed
/// units prints the headline plus one line per failed unit and exits 1.
void print_campaign_failure(const bgpsim::svc::CampaignError& e) {
  // what() is multi-line (headline + one line per failure); keep only the
  // headline here so the per-unit lines below are not printed twice.
  const std::string what = e.what();
  const std::size_t nl = what.find('\n');
  std::fprintf(stderr, "run_campaign: %s\n",
               what.substr(0, nl == std::string::npos ? what.size() : nl)
                   .c_str());
  for (const bgpsim::svc::UnitFailure& f : e.failures()) {
    std::fprintf(stderr, "run_campaign:   %s\n", f.to_string().c_str());
  }
}

/// Locate the bgpsim_worker binary next to this executable.
std::string default_worker_bin(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  std::string self = n > 0 ? std::string{buf, static_cast<std::size_t>(n)}
                           : std::string{argv0};
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/bgpsim_worker";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgpsim;

  core::Scenario base;
  base.topology.kind = core::TopologyKind::kClique;
  base.topology.size = 8;
  std::vector<std::size_t> sizes;
  std::size_t trials = 4;
  std::size_t unit_trials = 1;
  std::size_t workers = 0;  // 0: BGPSIM_WORKERS, else BGPSIM_JOBS, else cores
  double deadline_s = 0;
  bool use_tcp = false;
  bool use_fork = false;
  bool check_serial = false;
  int listen_port = -1;
  std::string worker_bin;
  std::string journal_path;
  std::string resume_path;

  cli::Args args{argc, argv, usage};
  while (args.next()) {
    if (cli::apply_scenario_flag(args, base)) continue;
    const std::string& arg = args.arg();
    if (arg == "--sizes") {
      sizes = parse_sizes(args.value());
    } else if (arg == "--trials") {
      trials = args.value_size();
    } else if (arg == "--unit-trials") {
      unit_trials = args.value_size();
    } else if (arg == "--workers") {
      workers = args.value_size();
    } else if (arg == "--deadline-s") {
      deadline_s = args.value_double();
    } else if (arg == "--tcp") {
      use_tcp = true;
    } else if (arg == "--listen") {
      listen_port = static_cast<int>(args.value_size());
    } else if (arg == "--worker-bin") {
      worker_bin = args.value();
    } else if (arg == "--fork") {
      use_fork = true;
    } else if (arg == "--journal") {
      journal_path = args.value();
    } else if (arg == "--resume") {
      resume_path = args.value();
    } else if (arg == "--check-serial") {
      check_serial = true;
    } else if (arg == "--verbose") {
      sim::Log::set_level(sim::LogLevel::kInfo);
    } else {
      args.fail();
    }
  }

  if (workers == 0) workers = core::env::workers();
  if (worker_bin.empty()) worker_bin = default_worker_bin(argv[0]);
  if (!journal_path.empty() && !resume_path.empty()) {
    std::fprintf(stderr,
                 "run_campaign: --journal and --resume are mutually "
                 "exclusive\n");
    return 2;
  }
  if ((!journal_path.empty() || !resume_path.empty()) &&
      (use_tcp || listen_port >= 0)) {
    std::fprintf(stderr,
                 "run_campaign: journaled campaigns run over fork workers "
                 "(--journal/--resume exclude --tcp/--listen)\n");
    return 2;
  }

  // Resume path: the spec (scenarios, trials, unit split) comes from the
  // journal, not the command line; completed units are restored and only
  // the remainder re-runs. The digest contract is machine-checked by
  // tests/svcd; here we just print the merged result.
  if (!resume_path.empty()) {
    svcd::JournaledRunOptions jopts;
    jopts.workers = workers;
    jopts.deadline_s = deadline_s;
    try {
      const svc::CampaignResult result =
          svcd::resume_journaled_campaign(resolve_journal_path(resume_path),
                                          jopts);
      std::printf("campaign digest: %016llx  (resumed; units=%zu "
                  "requeues=%zu)\n",
                  static_cast<unsigned long long>(result.digest),
                  result.units_dispatched, result.requeues);
      return 0;
    } catch (const svc::CampaignError& e) {
      print_campaign_failure(e);
      return 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run_campaign: %s\n", e.what());
      return 1;
    }
  }

  svc::CampaignSpec spec;
  spec.run.trials = trials;
  spec.unit_trials = unit_trials;
  if (sizes.empty()) {
    spec.scenarios.push_back(base);
  } else {
    for (const std::size_t n : sizes) {
      core::Scenario s = base;
      s.topology.size = n;
      spec.scenarios.push_back(s);
    }
  }

  svc::CampaignOptions options;
  options.deadline_s = deadline_s;

  std::printf("campaign: %zu scenario(s) x %zu trial(s), unit=%zu trial(s), "
              "%zu worker(s), transport=%s\n",
              spec.scenarios.size(), trials, unit_trials == 0 ? 1 : unit_trials,
              workers,
              !journal_path.empty() ? "fork+journal"
              : listen_port >= 0    ? "listen"
              : use_tcp             ? "tcp"
                                    : "socketpair");

  svc::CampaignResult result;
  try {
    if (!journal_path.empty()) {
      svcd::JournaledRunOptions jopts;
      jopts.workers = workers;
      jopts.deadline_s = deadline_s;
      result = svcd::run_journaled_campaign(
          spec, resolve_journal_path(journal_path), jopts);
    } else {
      svc::Coordinator coordinator{spec, options};
      if (listen_port >= 0) {
        auto listener = svc::TcpListener::bind_localhost(
            static_cast<std::uint16_t>(listen_port));
        std::printf("listening on 127.0.0.1:%u — start %zu x "
                    "`bgpsim_worker --connect 127.0.0.1:%u`\n",
                    listener.port(), workers, listener.port());
        std::fflush(stdout);
        for (std::size_t i = 0; i < workers; ++i) {
          svc::Connection conn = listener.accept_one(-1);
          coordinator.add_worker(std::move(conn), -1, -1);
        }
      } else if (use_tcp) {
        auto listener = svc::TcpListener::bind_localhost(0);
        std::vector<pid_t> pids;
        pids.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
          pids.push_back(
              coordinator.spawn_exec_worker_tcp(worker_bin, listener.port()));
        }
        for (std::size_t i = 0; i < workers; ++i) {
          svc::Connection conn = listener.accept_one(30'000);
          if (!conn.valid()) {
            std::fprintf(
                stderr, "run_campaign: worker failed to connect within 30 s\n");
            return 1;
          }
          // The accept order need not match the spawn order; the Hello frame
          // says which worker this is, and its pid enables deadline kills.
          std::optional<svc::Frame> hello_frame = conn.recv_frame();
          if (!hello_frame || hello_frame->type != svc::FrameType::kHello) {
            std::fprintf(stderr, "run_campaign: worker handshake failed\n");
            return 1;
          }
          const svc::Hello hello = svc::decode_hello(*hello_frame);
          const pid_t pid =
              hello.worker_id < pids.size()
                  ? pids[static_cast<std::size_t>(hello.worker_id)]
                  : -1;
          coordinator.add_worker(std::move(conn), pid, -1);
        }
      } else if (use_fork) {
        for (std::size_t i = 0; i < workers; ++i) {
          coordinator.spawn_fork_worker();
        }
      } else {
        for (std::size_t i = 0; i < workers; ++i) {
          coordinator.spawn_exec_worker(worker_bin);
        }
      }
      result = coordinator.run();
    }
  } catch (const svc::CampaignError& e) {
    print_campaign_failure(e);
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_campaign: %s\n", e.what());
    return 1;
  }

  for (std::size_t si = 0; si < result.sets.size(); ++si) {
    const core::TrialSet& set = result.sets[si];
    std::printf("%-28s conv=%s s  loopdur=%s s  ratio=%.1f%%  digest=%016llx\n",
                set.scenario.label().c_str(),
                metrics::mean_pm(set.convergence_time_s).c_str(),
                metrics::mean_pm(set.looping_duration_s).c_str(),
                set.looping_ratio.mean * 100.0,
                static_cast<unsigned long long>(svc::trialset_digest(set)));
  }
  std::printf("campaign digest: %016llx  (units=%zu requeues=%zu "
              "workers_lost=%zu)\n",
              static_cast<unsigned long long>(result.digest),
              result.units_dispatched, result.requeues, result.workers_lost);

  if (check_serial) {
    std::vector<core::TrialSet> serial;
    serial.reserve(spec.scenarios.size());
    for (const core::Scenario& s : spec.scenarios) {
      serial.push_back(core::run_trials(s, spec.run));
    }
    const std::uint64_t serial_digest = svc::campaign_digest(serial);
    const bool ok = serial_digest == result.digest;
    std::printf("[%s] campaign digest %s in-process run_trials "
                "digest %016llx\n",
                ok ? "PASS" : "FAIL", ok ? "matches" : "DIFFERS FROM",
                static_cast<unsigned long long>(serial_digest));
    if (!ok) return 1;
  }
  return 0;
}
