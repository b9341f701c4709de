#include "svc/coordinator.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace bgpsim::svc {
namespace {

svcd::DaemonOptions one_campaign(Coordinator& self, CampaignOptions options) {
  svcd::DaemonOptions daemon;
  daemon.deadline_s = options.deadline_s;
  daemon.max_attempts = options.max_attempts;
  daemon.exit_when_idle = true;
  if (options.on_unit_done) {
    daemon.on_unit_done = [&self, hook = std::move(options.on_unit_done)](
                              svcd::Daemon&, std::uint64_t,
                              std::size_t units_done) {
      hook(self, units_done);
    };
  }
  return daemon;
}

}  // namespace

Coordinator::Coordinator(CampaignSpec spec, CampaignOptions options)
    : daemon_{one_campaign(*this, std::move(options))},
      campaign_id_{daemon_.submit(std::move(spec))} {}

pid_t Coordinator::worker_pid(std::size_t index) const {
  const std::vector<pid_t> pids = daemon_.worker_pids();
  return index < pids.size() ? pids[index] : -1;
}

CampaignResult Coordinator::run() {
  if (daemon_.live_workers() == 0) {
    throw std::invalid_argument{"svc: campaign has no workers"};
  }
  daemon_.run();
  return daemon_.take_result(campaign_id_);
}

CampaignResult run_campaign(const CampaignSpec& spec, std::size_t workers,
                            CampaignOptions options) {
  if (workers == 0) workers = core::default_jobs();
  Coordinator coordinator{spec, std::move(options)};
  for (std::size_t i = 0; i < workers; ++i) coordinator.spawn_fork_worker();
  return coordinator.run();
}

}  // namespace bgpsim::svc
