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
// Subscriptions: the session also keeps the jobs (SolveJob, declared
// here) subscribed to it, in the order apply_link_updates hands them
// back: replacing one keeps its place, resubscribing after an
// unsubscribe moves it to the end.  Each owns at most one incremental
// checkpoint (core::IncrementalCheckpoint), bounded by
// `checkpoint_budget_bytes`: over budget, the least-recently-touched
// one no solve holds is reset, and its next re-solve recaptures.  A
// checkpoint's solve mutex is try-locked, so two concurrent re-solves
// never race on its state (the loser runs a plain full solve).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "graph/network.hpp"
#include "pipeline/cost_model.hpp"
#include "pipeline/pipeline.hpp"

namespace elpc::service {

enum class Objective { kMinDelay, kMaxFrameRate };

/// One queued solve: which session, what pipeline, which objective.
struct SolveJob {
  /// Caller-chosen identifier echoed in the result.
  std::string id;
  /// Id of a registered network session.
  std::string network;
  pipeline::Pipeline pipeline;
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  Objective objective = Objective::kMinDelay;
  /// Mapper name resolved by the engine's factory ("ELPC" built in).
  std::string algorithm = "ELPC";
  pipeline::CostOptions cost;
  /// Retain this job as a subscription: apply_link_updates on its
  /// network re-solves it against the new revision.
  bool resolve_on_update = false;
  /// Wall-clock budget for this job, in milliseconds; 0 = none.  The
  /// clock starts when the batch (or re-solve) begins running, and the
  /// engine checks it at the job boundary AND once per DP column inside
  /// the solve, so an over-budget job stops within one column's work and
  /// reports error = kTimedOutError.  The daemon's JobManager starts the
  /// stricter clock at submission, so queue wait counts there too.
  std::int64_t deadline_ms = 0;
  /// Client-stamped request correlation id (optional, never semantic):
  /// the engine installs it as the util::trace_context for the solve, so
  /// profiler events and log lines it causes carry the id, and the
  /// daemon echoes it in responses and the ticket's TraceSpan.  It never
  /// enters the canonical result serialization — answers stay
  /// byte-identical with or without it.
  std::string trace_id;
};

/// Refcounted immutable view of a session's network at one revision.
using NetworkSnapshot = std::shared_ptr<const graph::Network>;

/// Session memory occupancy and eviction counters (see cache_stats()).
struct SessionCacheStats {
  /// Network bytes the session's revisions hold: the current snapshot
  /// plus every pinned superseded one, each shared block (layout, edge
  /// chunk) counted once.
  std::size_t cached_bytes = 0;
  /// Jobs subscribed to the session.
  std::size_t subscriptions = 0;
  /// Incremental checkpoints retained / their byte total / reset by the
  /// budget since registration.  Never more checkpoints than
  /// subscriptions: each belongs to one.
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

  /// One subscription's retained incremental-DP state.  Solvers must
  /// hold solve_mutex (try_lock; fall back to a plain full solve on
  /// contention) while touching `state`, and store its approx_bytes()
  /// into `bytes` before releasing the lock.
  struct CheckpointEntry {
    std::mutex solve_mutex;
    core::IncrementalCheckpoint state;
    /// What the budget charges for `state`; 0 = nothing retained (not
    /// solved yet, or reset by the budget).  Read by the sweep without
    /// solve_mutex.
    std::atomic<std::size_t> bytes{0};
    /// LRU position; guarded by the session mutex.
    std::uint64_t last_touch = 0;
  };
  using CheckpointEntryPtr = std::shared_ptr<CheckpointEntry>;

  /// The revision a delta published and the jobs to re-solve against
  /// it, index-aligned with the checkpoints they own (null = none).  A
  /// held checkpoint is pinned against the budget until released.
  struct Published {
    Current current;
    std::vector<SolveJob> jobs;
    std::vector<CheckpointEntryPtr> checkpoints;
  };

  /// Applies one batch of metric deltas copy-on-write, publishes the
  /// result as the next revision and runs the checkpoint budget sweep;
  /// the superseded snapshot is released (after the session mutex) and
  /// freed unless a solve still holds it.  Hands back, read in the same
  /// lock hold, the new revision and the subscriptions in subscription
  /// order.  Throws (and publishes nothing) when any update names a
  /// missing link or carries invalid attributes.
  Published apply_link_updates(std::span<const graph::LinkUpdate> updates);

  /// Runs the checkpoint budget sweep (entries unpinned since the last
  /// update can only be reclaimed by a sweep) and reports occupancy.
  [[nodiscard]] SessionCacheStats cache_stats() const;

  /// The checkpoint job `job_id`'s subscription owns, touched in the
  /// LRU order; null when the job is not subscribed or owns none.
  [[nodiscard]] CheckpointEntryPtr checkpoint(const std::string& job_id);
  /// Subscribes `job`, or replaces its subscription in place, owning
  /// `checkpoint` (null = none), and runs the budget sweep.
  void subscribe(const SolveJob& job, CheckpointEntryPtr checkpoint);
  /// Drops job `job_id`'s subscription and its checkpoint, if any.
  void unsubscribe(const std::string& job_id);

 private:
  struct Subscription {
    SolveJob job;
    CheckpointEntryPtr checkpoint;
  };

  /// Resets least-recently-touched checkpoints no solve holds until
  /// their total is within budget.  Caller holds mutex_.
  void evict_over_budget() const;

  const std::string id_;
  const std::size_t checkpoint_budget_bytes_;
  mutable std::mutex mutex_;
  NetworkSnapshot current_;
  std::uint64_t revision_ = 0;
  /// Superseded revisions that were still referenced at the last delta
  /// (each delta drops the expired ones before adding its own).
  std::vector<std::weak_ptr<const graph::Network>> superseded_;
  /// In subscription order.
  std::vector<Subscription> subscriptions_;
  std::uint64_t touch_clock_ = 0;
  mutable std::uint64_t checkpoint_evictions_ = 0;
};

}  // namespace elpc::service
