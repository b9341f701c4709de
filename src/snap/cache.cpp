#include "snap/cache.hpp"

#include <utility>

#include "sim/env.hpp"

namespace bgpsim::snap {

// snap sits below core, so the knob is read through the shared sim-level
// parser (same contract: warn on garbage, fall back); the registry entry
// documenting BGPSIM_SNAP_CACHE lives in core/env.cpp.
PreludeCache::PreludeCache()
    : capacity_{sim::env_u64_or("BGPSIM_SNAP_CACHE",
                                PreludeCache::kDefaultCapacity)} {}

PreludeCache& PreludeCache::instance() {
  static PreludeCache cache;
  return cache;
}

std::shared_ptr<const Snapshot> PreludeCache::find(std::uint64_t key) {
  std::lock_guard lock{mu_};
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second.first;
}

void PreludeCache::insert(std::uint64_t key,
                          std::shared_ptr<const Snapshot> snapshot) {
  if (!snapshot) return;
  std::lock_guard lock{mu_};
  if (capacity_ == 0 || entries_.contains(key)) return;
  order_.push_back(key);
  entries_.emplace(key, std::pair{std::move(snapshot), std::prev(order_.end())});
  evict_to_capacity_locked();
}

void PreludeCache::evict(std::uint64_t key, const Snapshot* snapshot) {
  std::lock_guard lock{mu_};
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.first.get() != snapshot) return;
  order_.erase(it->second.second);
  entries_.erase(it);
}

bool PreludeCache::enabled() const {
  std::lock_guard lock{mu_};
  return capacity_ > 0;
}

std::size_t PreludeCache::capacity() const {
  std::lock_guard lock{mu_};
  return capacity_;
}

std::size_t PreludeCache::size() const {
  std::lock_guard lock{mu_};
  return entries_.size();
}

void PreludeCache::set_capacity(std::size_t capacity) {
  std::lock_guard lock{mu_};
  capacity_ = capacity;
  evict_to_capacity_locked();
}

void PreludeCache::clear() {
  std::lock_guard lock{mu_};
  entries_.clear();
  order_.clear();
}

std::uint64_t PreludeCache::hits() const {
  std::lock_guard lock{mu_};
  return hits_;
}

std::uint64_t PreludeCache::misses() const {
  std::lock_guard lock{mu_};
  return misses_;
}

void PreludeCache::reset_stats() {
  std::lock_guard lock{mu_};
  hits_ = 0;
  misses_ = 0;
}

void PreludeCache::evict_to_capacity_locked() {
  while (entries_.size() > capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

}  // namespace bgpsim::snap
