#include "service/network_session.hpp"

#include <unordered_set>
#include <utility>

namespace elpc::service {

NetworkSession::NetworkSession(std::string id, graph::Network network,
                               std::size_t checkpoint_budget_bytes)
    : id_(std::move(id)), checkpoint_budget_bytes_(checkpoint_budget_bytes) {
  network.finalize();
  current_ = std::make_shared<const graph::Network>(std::move(network));
}

NetworkSnapshot NetworkSession::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t NetworkSession::revision() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return revision_;
}

NetworkSession::Current NetworkSession::current() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Current{current_, revision_};
}

std::size_t NetworkSession::finalize_builds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_->finalize_build_count();
}

void NetworkSession::apply_link_updates(
    std::span<const graph::LinkUpdate> updates) {
  // Declared before the lock so it is destroyed after the unlock: when
  // no solve holds the superseded revision, this is its last reference,
  // and freeing a large network must not stall current() callers.
  NetworkSnapshot superseded;
  // The clone is private until published and the source snapshot stays
  // immutable, so readers holding older snapshots are unaffected.  The
  // lock spans the whole clone-patch-publish step so concurrent delta
  // batches linearize instead of cloning from the same base and losing
  // one another's updates.
  const std::lock_guard<std::mutex> lock(mutex_);
  // The copy shares every edge chunk; the patch copies only the chunks
  // it writes, and never rebuilds the rows.
  auto next = std::make_shared<graph::Network>(*current_);
  next->apply_link_updates(updates);
  std::erase_if(superseded_,
                [](const std::weak_ptr<const graph::Network>& s) {
                  return s.expired();
                });
  superseded_.emplace_back(current_);
  superseded = std::exchange(current_, std::move(next));
  ++revision_;
  evict_over_budget();
}

SessionCacheStats NetworkSession::cache_stats() const {
  // Declared before the lock so a revision whose solve lets go meanwhile
  // is freed after the unlock (see apply_link_updates).
  std::vector<NetworkSnapshot> pinned;
  const std::lock_guard<std::mutex> lock(mutex_);
  evict_over_budget();
  SessionCacheStats stats;
  // Revisions share chunks: count each block once, the current
  // revision's first, so a pinned one is charged only for what it holds
  // alone.
  std::unordered_set<const void*> seen;
  stats.cached_bytes = current_->approx_bytes(seen);
  for (const std::weak_ptr<const graph::Network>& s : superseded_) {
    if (NetworkSnapshot held = s.lock()) {
      ++stats.pinned_revisions;
      stats.pinned_bytes += held->approx_bytes(seen);
      pinned.push_back(std::move(held));
    }
  }
  stats.cached_bytes += stats.pinned_bytes;
  stats.checkpoints = checkpoints_.size();
  for (const auto& [key, entry] : checkpoints_) {
    stats.checkpoint_bytes += entry.bytes;
  }
  stats.checkpoint_evictions = checkpoint_evictions_;
  return stats;
}

NetworkSession::CheckpointEntryPtr NetworkSession::checkpoint_entry(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = checkpoints_.find(key);
  if (it == checkpoints_.end()) {
    CachedCheckpoint fresh;
    fresh.entry = std::make_shared<CheckpointEntry>();
    fresh.bytes = fresh.entry->state.approx_bytes();
    it = checkpoints_.emplace(key, std::move(fresh)).first;
  }
  it->second.last_touch = ++touch_clock_;
  return it->second.entry;
}

void NetworkSession::note_checkpoint_update(const std::string& key,
                                            std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = checkpoints_.find(key);
  if (it != checkpoints_.end()) {
    it->second.bytes = bytes;
    it->second.last_touch = ++touch_clock_;
  }
  evict_over_budget();
}

void NetworkSession::drop_checkpoint(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  checkpoints_.erase(key);
}

void NetworkSession::evict_over_budget() const {
  // An entry a solve still holds (it reuses/recaptures the state) is
  // pinned: evicting it would drop the map entry but not the memory.
  // use_count is read under the session mutex — a solve releasing
  // concurrently merely delays that entry to the next sweep.
  std::size_t unpinned_bytes = 0;
  for (const auto& [key, entry] : checkpoints_) {
    if (entry.entry.use_count() == 1) {
      unpinned_bytes += entry.bytes;
    }
  }
  while (unpinned_bytes > checkpoint_budget_bytes_) {
    auto victim = checkpoints_.end();
    for (auto it = checkpoints_.begin(); it != checkpoints_.end(); ++it) {
      if (it->second.entry.use_count() == 1 &&
          (victim == checkpoints_.end() ||
           it->second.last_touch < victim->second.last_touch)) {
        victim = it;
      }
    }
    if (victim == checkpoints_.end()) {
      break;  // everything left is pinned
    }
    unpinned_bytes -= victim->second.bytes;
    checkpoints_.erase(victim);
    ++checkpoint_evictions_;
  }
}

}  // namespace elpc::service
