#pragma once
// NetworkSession — one registered network, finalized once, shared
// read-only across many solves, refreshed by metric deltas.
//
// The session holds the current network behind a shared_ptr snapshot.
// Readers (batch solve shards) take a snapshot and keep it for the
// duration of a job: the pointed-to Network is immutable from their
// side, so any number of concurrent solves can sweep its CSR view.
//
// apply_link_updates never mutates a published snapshot (that would race
// with readers).  It copies the current network — a copy shares the row
// layout and every edge chunk with its source, so it costs the row
// tables, not the links — patches the copy via graph::Network::
// update_link, which copies just the chunks holding the touched rows, and
// atomically publishes it.  In-flight solves finish against the snapshot
// they started with; later solves see the new revision.  Across the
// whole session lifecycle the CSR rows are therefore built exactly once
// (finalize_builds() pins this), no matter how many jobs run or deltas
// arrive.
//
// Superseded revisions: the session keeps no history.  A superseded
// snapshot lives exactly as long as something outside the session (an
// in-flight solve) still holds it, and is freed when the last holder
// lets go.  The session only watches them through a weak reference, so
// cache_stats() can report how many are still alive and what they cost:
// the chunks and tables a pinned revision does not share with the
// current one (graph::Network::approx_bytes with a shared `seen` set).
// Results cite their revision number (SolveResult::network_revision),
// never the snapshot, so nothing needs a past revision back.  With no
// solve in flight the count is 0; one that only grows means a leaked
// snapshot — typically a solve that hung.
//
// Incremental checkpoints: the session also retains, keyed by
// subscription id, the per-column DP state (core::IncrementalCheckpoint)
// an incremental re-solve reuses.  Checkpoint bytes are bounded by
// `checkpoint_budget_bytes` and evicted least-recently-touched first (an
// entry held by an in-flight solve is pinned and never evicted); losing
// one merely costs the next re-solve a full recapture.  Each entry
// carries a solve mutex — solvers try-lock it, so two concurrent
// re-solves of one subscription never race on its checkpoint (the loser
// runs a plain full solve).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "graph/network.hpp"

namespace elpc::service {

/// Refcounted immutable view of a session's network at one revision.
using NetworkSnapshot = std::shared_ptr<const graph::Network>;

/// Session memory occupancy and eviction counters (see cache_stats()).
struct SessionCacheStats {
  /// Network bytes the session's revisions hold: the current snapshot
  /// plus every pinned superseded one, each shared block (layout, edge
  /// chunk) counted once.
  std::size_t cached_bytes = 0;
  /// Incremental checkpoints retained / their byte total / dropped by
  /// the budget since registration.
  std::size_t checkpoints = 0;
  std::size_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_evictions = 0;
  /// Superseded revisions whose snapshot is still referenced (an
  /// in-flight solve), plus the bytes they hold that the current
  /// revision does not share.  Steady state is 0; unbounded growth = a
  /// leaked snapshot (e.g. a hung solve) — surfaced in the daemon `stats`
  /// verb.
  std::size_t pinned_revisions = 0;
  std::size_t pinned_bytes = 0;
};

class NetworkSession {
 public:
  /// Takes ownership of the network and finalizes it (the session's one
  /// CSR build, unless the caller already built it).
  /// `checkpoint_budget_bytes` bounds the unpinned incremental
  /// checkpoints (0 = keep none once their solve releases them).
  NetworkSession(std::string id, graph::Network network,
                 std::size_t checkpoint_budget_bytes = 0);

  NetworkSession(const NetworkSession&) = delete;
  NetworkSession& operator=(const NetworkSession&) = delete;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

  /// The current finalized network.  Hold the returned snapshot for the
  /// duration of a solve; it stays valid (and immutable) even if deltas
  /// publish newer revisions meanwhile.
  [[nodiscard]] NetworkSnapshot snapshot() const;

  /// Number of delta batches applied so far (0 = as registered).
  [[nodiscard]] std::uint64_t revision() const;

  /// A snapshot paired with the revision it belongs to, read atomically
  /// (snapshot() then revision() could straddle a concurrent delta).
  struct Current {
    NetworkSnapshot network;
    std::uint64_t revision = 0;
  };
  [[nodiscard]] Current current() const;

  /// Total CSR builds across every snapshot this session ever published.
  /// Stays 1 for a session registered unfinalized: deltas copy + patch,
  /// they never rebuild.
  [[nodiscard]] std::size_t finalize_builds() const;

  /// Applies one batch of metric deltas copy-on-write and publishes the
  /// result as the next revision; the superseded snapshot is released
  /// (after the session mutex) and freed unless a solve still holds it,
  /// and the checkpoint budget sweep runs.  Throws (and publishes
  /// nothing) when any update names a missing link or carries invalid
  /// attributes.
  void apply_link_updates(std::span<const graph::LinkUpdate> updates);

  /// Runs the checkpoint budget sweep (entries unpinned since the last
  /// update can only be reclaimed by a sweep) and reports occupancy.
  [[nodiscard]] SessionCacheStats cache_stats() const;

  /// One subscription's retained incremental-DP state.  Solvers must
  /// hold solve_mutex (try_lock; fall back to a plain full solve on
  /// contention) while touching `state`, and record the session
  /// revision the state was left consistent with.
  struct CheckpointEntry {
    std::mutex solve_mutex;
    core::IncrementalCheckpoint state;
    /// Revision `state`'s columns were computed against; only
    /// meaningful when has_revision (a fresh entry has solved nothing).
    std::uint64_t revision = 0;
    bool has_revision = false;
  };
  using CheckpointEntryPtr = std::shared_ptr<CheckpointEntry>;

  /// The checkpoint slot for a subscription key, created empty when
  /// absent; touches its LRU position.  The returned reference pins the
  /// entry against eviction until released.
  [[nodiscard]] CheckpointEntryPtr checkpoint_entry(const std::string& key);
  /// Re-charges the entry at `bytes` after a solve grew/refreshed it
  /// and runs the budget sweep.  The caller measures
  /// state.approx_bytes() while still holding solve_mutex — this
  /// method must not touch `state` itself, since another solve may
  /// already be resizing it.  No-op when the entry was evicted.
  void note_checkpoint_update(const std::string& key, std::size_t bytes);
  /// Removes the slot outright (unsubscribe path).
  void drop_checkpoint(const std::string& key);

 private:
  struct CachedCheckpoint {
    CheckpointEntryPtr entry;
    std::size_t bytes = 0;
    std::uint64_t last_touch = 0;
  };

  /// Drops least-recently-touched unpinned checkpoints until their total
  /// is within budget.  Caller holds mutex_.
  void evict_over_budget() const;

  const std::string id_;
  const std::size_t checkpoint_budget_bytes_;
  mutable std::mutex mutex_;
  NetworkSnapshot current_;
  std::uint64_t revision_ = 0;
  /// Superseded revisions that were still referenced at the last delta
  /// (each delta drops the expired ones before adding its own).
  std::vector<std::weak_ptr<const graph::Network>> superseded_;
  /// Incremental checkpoints by subscription key; mutable so const
  /// readers can run the sweep.
  mutable std::map<std::string, CachedCheckpoint> checkpoints_;
  std::uint64_t touch_clock_ = 0;
  mutable std::uint64_t checkpoint_evictions_ = 0;
};

}  // namespace elpc::service
