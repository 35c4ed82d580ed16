#include "service/network_session.hpp"

#include <algorithm>
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

NetworkSession::Published NetworkSession::apply_link_updates(
    std::span<const graph::LinkUpdate> updates) {
  // Declared before the lock so it is destroyed after the unlock: when
  // no solve holds the superseded revision, this is its last reference,
  // and freeing a large network must not stall current() callers.
  NetworkSnapshot superseded;
  Published published;
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
  published.current = Current{current_, revision_};
  published.jobs.reserve(subscriptions_.size());
  published.checkpoints.reserve(subscriptions_.size());
  for (const Subscription& sub : subscriptions_) {
    published.jobs.push_back(sub.job);
    if (sub.checkpoint != nullptr) {
      sub.checkpoint->last_touch = ++touch_clock_;
    }
    published.checkpoints.push_back(sub.checkpoint);
  }
  return published;
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
  stats.subscriptions = subscriptions_.size();
  for (const Subscription& sub : subscriptions_) {
    const std::size_t bytes = sub.checkpoint ? sub.checkpoint->bytes.load() : 0;
    stats.checkpoints += bytes != 0 ? 1 : 0;
    stats.checkpoint_bytes += bytes;
  }
  stats.checkpoint_evictions = checkpoint_evictions_;
  return stats;
}

NetworkSession::CheckpointEntryPtr NetworkSession::checkpoint(
    const std::string& job_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Subscription& sub : subscriptions_) {
    if (sub.job.id == job_id && sub.checkpoint != nullptr) {
      sub.checkpoint->last_touch = ++touch_clock_;
      return sub.checkpoint;
    }
  }
  return nullptr;
}

void NetworkSession::subscribe(const SolveJob& job,
                               CheckpointEntryPtr checkpoint) {
  // Declared before the lock: a replaced checkpoint no solve holds is
  // freed after the unlock.
  CheckpointEntryPtr replaced;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (checkpoint != nullptr) {
    checkpoint->last_touch = ++touch_clock_;
  }
  const auto it = std::find_if(
      subscriptions_.begin(), subscriptions_.end(),
      [&job](const Subscription& sub) { return sub.job.id == job.id; });
  if (it == subscriptions_.end()) {
    subscriptions_.push_back(Subscription{job, std::move(checkpoint)});
  } else {
    it->job = job;
    replaced = std::exchange(it->checkpoint, std::move(checkpoint));
  }
  evict_over_budget();
}

void NetworkSession::unsubscribe(const std::string& job_id) {
  CheckpointEntryPtr dropped;  // freed after the unlock, as in subscribe
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(
      subscriptions_.begin(), subscriptions_.end(),
      [&job_id](const Subscription& sub) { return sub.job.id == job_id; });
  if (it != subscriptions_.end()) {
    dropped = std::move(it->checkpoint);
    subscriptions_.erase(it);
  }
}

void NetworkSession::evict_over_budget() const {
  // A checkpoint a solve still holds (it reuses/recaptures the state) is
  // pinned: its solver owns the state until it lets go.  use_count is
  // read under the session mutex, the only place a checkpoint is handed
  // out — a solve releasing concurrently merely delays that entry to the
  // next sweep.
  std::vector<CheckpointEntry*> unpinned;
  std::size_t unpinned_bytes = 0;
  for (const Subscription& sub : subscriptions_) {
    if (sub.checkpoint.use_count() == 1 && sub.checkpoint->bytes != 0) {
      unpinned.push_back(sub.checkpoint.get());
      unpinned_bytes += sub.checkpoint->bytes;
    }
  }
  std::ranges::sort(unpinned, {}, &CheckpointEntry::last_touch);
  for (CheckpointEntry* victim : unpinned) {
    if (unpinned_bytes <= checkpoint_budget_bytes_) {
      break;
    }
    unpinned_bytes -= victim->bytes;
    // The lock is free (no solver holds the entry); taking it orders
    // this reset after the last solver's writes to the state.
    const std::lock_guard<std::mutex> reset_lock(victim->solve_mutex);
    victim->state = core::IncrementalCheckpoint();
    victim->bytes = 0;
    ++checkpoint_evictions_;
  }
}

}  // namespace elpc::service
