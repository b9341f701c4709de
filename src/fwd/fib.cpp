#include "fwd/fib.hpp"

#include <algorithm>
#include <map>

namespace bgpsim::fwd {

bool Fib::set_next_hop(net::Prefix prefix, net::NodeId next_hop) {
  auto [it, inserted] = routes_.try_emplace(prefix, next_hop);
  if (!inserted && it->second == next_hop) return false;
  const std::optional<net::NodeId> previous =
      inserted ? std::nullopt : std::optional{it->second};
  it->second = next_hop;
  ++version_;
  if (hot_valid_ && hot_prefix_ == prefix) hot_next_hop_ = next_hop;
  notify(prefix, previous, next_hop);
  return true;
}

bool Fib::clear_route(net::Prefix prefix) {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return false;
  const net::NodeId previous = it->second;
  routes_.erase(it);
  ++version_;
  if (hot_valid_ && hot_prefix_ == prefix) hot_valid_ = false;
  notify(prefix, previous, std::nullopt);
  return true;
}

std::optional<net::NodeId> Fib::next_hop(net::Prefix prefix) const {
  if (hot_valid_ && hot_prefix_ == prefix) return hot_next_hop_;
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return std::nullopt;
  hot_prefix_ = prefix;
  hot_next_hop_ = it->second;
  hot_valid_ = true;
  return it->second;
}

void Fib::save_state(snap::Writer& w) const {
  std::vector<std::pair<net::Prefix, net::NodeId>> entries{routes_.begin(),
                                                           routes_.end()};
  std::sort(entries.begin(), entries.end());
  w.u64(entries.size());
  for (const auto& [prefix, hop] : entries) {
    w.u32(prefix);
    w.u32(hop);
  }
}

void Fib::restore_state(snap::Reader& r) {
  std::map<net::Prefix, net::NodeId> desired;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::Prefix prefix = r.u32();
    desired[prefix] = r.u32();
  }
  // Clear stale entries first (sorted, for a deterministic notify order),
  // then install the checkpointed ones.
  std::vector<net::Prefix> stale;
  for (const auto& [prefix, hop] : routes_) {
    if (!desired.contains(prefix)) stale.push_back(prefix);
  }
  std::sort(stale.begin(), stale.end());
  for (const net::Prefix prefix : stale) clear_route(prefix);
  for (const auto& [prefix, hop] : desired) set_next_hop(prefix, hop);
}

void Fib::notify(net::Prefix prefix, std::optional<net::NodeId> previous,
                 std::optional<net::NodeId> current) const {
  if (listener_ != nullptr) listener_->on_route_change(listener_node_, prefix);
  for (const auto& observer : observers_) {
    if (observer) observer(prefix, previous, current);
  }
}

}  // namespace bgpsim::fwd
