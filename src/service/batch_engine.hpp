#pragma once
// BatchEngine — the serving layer over the mapping algorithms: many
// (network, pipeline, objective) solve jobs per call, amortizing what
// the per-call API pays per solve.
//
// Cost amortization, by lifetime:
//   * per engine   — one worker pool (never one pool per suite run) and
//     one ArenaPool whose arenas cycle between participants;
//   * per network  — one NetworkSession: registered once, finalized
//     once, shared read-only by every job and every revision delta
//     (see network_session.hpp);
//   * per batch    — min(jobs, workers) participants, the calling thread
//     one of them, each lease one arena and pull job indices from a
//     shared cursor: a heavy job never strands the rest behind it, and a
//     one-job batch runs on the caller's thread with no pool hop.
//
// Determinism: results are indexed by job order, each job is solved by
// an identical mapper configuration whichever participant runs it, and
// the serialized result form (service/serialize.hpp) excludes timing and
// participant metadata by default — so the same job list produces
// byte-identical JSON on 1 worker and on N, and values bit-identical to
// direct Mapper calls.  Pinned by tests/service/batch_engine_test.cpp.
//
// Delta-driven re-solves: a job with resolve_on_update = true is
// retained as a subscription by its network's session;
// apply_link_updates(network, deltas) publishes the new revision and
// immediately re-solves the session's subscribed jobs against it,
// returning those results.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/arena_pool.hpp"
#include "core/elpc.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "graph/network.hpp"
#include "mapping/mapper.hpp"
#include "pipeline/cost_model.hpp"
#include "service/network_session.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace elpc::service {

/// The experiment harness's per-objective cost conventions (see
/// experiments/runner.hpp): delay pays the per-hop MLD, frame rate does
/// not (propagation adds latency, not a throughput limit).
[[nodiscard]] pipeline::CostOptions default_cost(Objective objective);

/// One job's outcome plus serving metadata.
struct SolveResult {
  std::string job_id;
  std::string network;
  /// Session revision the solve ran against.
  std::uint64_t network_revision = 0;
  std::string algorithm;
  Objective objective = Objective::kMinDelay;
  mapping::MapResult result;
  /// Non-empty when the solve failed outright (unknown algorithm, mapper
  /// exception) rather than returning an infeasible-but-valid answer.
  std::string error;
  // Machine-dependent metadata, excluded from canonical serialization
  // (which must stay byte-identical across worker counts AND kernels):
  /// Row-kernel variant that served this solve ("scalar"/"avx2"/...);
  /// set for ELPC frame-rate jobs, empty for algorithms/objectives the
  /// kernel never runs under.
  std::string kernel;
  /// Wall time of the job's one solve, the mapper call alone (0 when it
  /// failed or aborted).  Named as its `include_timing` key.
  double mean_runtime_ms = 0.0;
  /// Participant slot that ran the job (0 = the calling thread).
  std::size_t shard = 0;
  /// Solve-phase attribution for trace spans (also non-canonical — the
  /// incremental path is bit-identical to a full solve, so whether it
  /// fired must not change the serialized result): whether the solve
  /// reused checkpoint columns, how the checkpoint split replay vs
  /// recompute, and how many DP columns the solver advanced through
  /// (counted at the existing per-column abort-probe point; 0 when no
  /// probe was installed).
  bool incremental = false;
  std::uint64_t columns_total = 0;
  std::uint64_t columns_reused = 0;
  std::uint64_t dp_columns = 0;
};

/// Per-participant context the mapper factory may use: its leased DP
/// arena (single-threaded while leased) and the engine's resolved
/// frame-rate kernel (never kAuto; identical for every participant, so
/// results cannot depend on scheduling).  The incremental fields are
/// per-JOB: set only for a subscribed ELPC frame-rate job on an engine
/// with incremental re-solves enabled, after its checkpoint entry's
/// solve lock was won (see network_session.hpp).  None of them ever
/// change results — only how much of the DP is recomputed.
struct MapperContext {
  core::FrameRateArena* arena = nullptr;
  core::kernels::Kind kernel = core::kernels::Kind::kAuto;
  /// Cooperative abort hook for THIS job (cancel flag + deadline fused):
  /// factories must forward it to the mapper's per-column probe (see
  /// core::ElpcOptions::abort_probe) or deadlines degrade to
  /// job-boundary granularity.  Null when neither applies.
  core::AbortProbe abort = nullptr;
  /// The job's retained DP checkpoint (null = plain full solve).
  core::IncrementalCheckpoint* checkpoint = nullptr;
  /// Link updates since the checkpoint's capture (null = unknown,
  /// forcing a full solve + recapture; empty = pure replay).
  const std::vector<graph::LinkUpdate>* delta = nullptr;
  /// Filled with the solve's incremental outcome when non-null.
  core::IncrementalStats* incremental_stats = nullptr;
};

/// Resolves a job's algorithm name to a mapper instance.  Called once
/// per (job, run) on a participant's thread; must be thread-safe.
using MapperFactory =
    std::function<mapping::MapperPtr(const SolveJob&, const MapperContext&)>;

/// The ELPC mapper as the engine configures it: leased arena, DP column
/// sweep off (participants already own the machine's parallelism —
/// results are identical either way).  Exposed so custom factories keep
/// the same configuration for "ELPC".
[[nodiscard]] mapping::MapperPtr make_engine_elpc(const MapperContext& ctx);

struct BatchEngineOptions {
  /// Worker threads of the engine-owned pool when `pool` is null
  /// (0 = hardware concurrency).  Ignored with an external pool.  Worker
  /// count never changes results, only scheduling.
  std::size_t threads = 0;
  /// External pool to share with other engines/suites; not owned.
  util::ThreadPool* pool = nullptr;
  /// Algorithm resolution; empty = built-in factory ("ELPC" only; other
  /// names fail the job with an error.  experiments::
  /// engine_mapper_factory() resolves the full registry).
  MapperFactory factory;
  /// Per-session budget for unpinned incremental checkpoints (see
  /// NetworkSession), evicted LRU; checkpoints a solve holds are exempt.
  /// 0 = keep none once their solve releases them.
  std::size_t checkpoint_budget_bytes = 0;
  /// Frame-rate row kernel for every ELPC solve this engine runs
  /// (core/kernels/framerate_kernel.hpp).  Resolved once at
  /// construction — kAuto honours ELPC_FORCE_KERNEL, then the widest
  /// supported variant; forcing an unavailable kernel throws there.
  core::kernels::Kind kernel = core::kernels::Kind::kAuto;
  /// Retain per-subscription incremental DP checkpoints in the session
  /// cache and use them for column-reuse re-solves of subscribed ELPC
  /// frame-rate jobs (apply_link_updates passes the delta through to
  /// the DP).  Results stay bit-identical to full solves — pinned by
  /// tests and the CI incremental-parity job.  When on and
  /// checkpoint_budget_bytes is 0, the budget defaults to
  /// kIncrementalDefaultCheckpointBytes so checkpoints actually survive
  /// between re-solves.
  bool incremental = false;
  /// Registry the engine publishes its serving metrics to (kernel-job
  /// and incremental counters, `elpc_solve_ms` / `elpc_resolve_staleness_ms`
  /// histograms labelled by kernel × objective × incremental).  Null =
  /// the engine owns a private registry, so counters are always
  /// registry-backed; the daemon passes its own so SocketServer,
  /// JobManager, and engine share one source of truth.
  util::MetricsRegistry* metrics = nullptr;
};

/// Checkpoint budget an incremental engine gets when the caller left
/// checkpoint_budget_bytes at 0 (a zero budget would evict every
/// checkpoint immediately, silently disabling the feature).
inline constexpr std::size_t kIncrementalDefaultCheckpointBytes = 64ull << 20;

/// SolveResult::error of a job skipped by a cancellation predicate.
inline constexpr const char* kCancelledError = "cancelled";

/// SolveResult::error of a job stopped by its deadline (either expired
/// while queued/at the job boundary, or aborted mid-DP).
inline constexpr const char* kTimedOutError = "deadline exceeded";

/// What a cancellation predicate wants done with a job: nothing, skip it
/// as cancelled, or skip it as timed out.  Inside a running solve the
/// same signal maps onto core::SolveAbort and stops the DP at the next
/// column.
enum class JobSignal { kNone = 0, kCancel, kTimeout };

/// Checked at each job's start AND once per DP column during the solve:
/// a non-kNone answer for `job_index` skips (or aborts) the job, marking
/// its result with kCancelledError or kTimedOutError.  Must be
/// thread-safe; called concurrently — and frequently — by participants.
using CancelFn = std::function<JobSignal(std::size_t job_index)>;

/// Aggregate serving counters across the engine and all its sessions
/// (what the daemon's `stats` verb reports).
struct EngineStats {
  std::size_t sessions = 0;
  std::size_t subscriptions = 0;
  std::size_t arenas_created = 0;
  /// Network bytes the sessions hold (each current revision plus the
  /// pinned superseded ones), summed over sessions.
  std::size_t cached_bytes = 0;
  /// The engine's resolved frame-rate kernel ("scalar"/"avx2"/...).
  std::string kernel;
  /// ELPC frame-rate solves served, per kernel name (only kernels that
  /// served at least one job appear; an engine whose kernel option never
  /// changes has at most one entry).
  std::vector<std::pair<std::string, std::uint64_t>> kernel_jobs;
  /// Incremental re-solve counters (cumulative): solves that reused
  /// checkpoint columns, eligible solves that fell back to a full solve
  /// (missing/evicted/stale checkpoint, lock contention),
  /// the total DP columns replayed from checkpoints, and the DP cells
  /// re-solves re-ran through the cell kernel.
  std::uint64_t incremental_hits = 0;
  std::uint64_t incremental_misses = 0;
  std::uint64_t incremental_columns_reused = 0;
  std::uint64_t incremental_cells_recomputed = 0;
  /// Session checkpoint occupancy, summed over sessions.
  std::size_t checkpoints = 0;
  std::size_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_evictions = 0;
  /// Superseded revisions still referenced, summed over sessions (see
  /// SessionCacheStats::pinned_revisions): 0 with no solve in flight, so
  /// a value that only climbs exposes a leaked pin — e.g. a solve that
  /// hung.
  std::size_t pinned_revisions = 0;
  std::size_t pinned_bytes = 0;
};

/// register_network found `id` taken by a network with different
/// content.
class NetworkConflict : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One engine's latency histogram family labelled kernel × objective ×
/// incremental, each child's handle cached on first use: recording skips
/// the registry mutex and the label formatting.  Children are still
/// created on first use, so the exported series set is unchanged.  A
/// result's kernel is the engine's or none, so "served" keys the kernel.
class SolveHistograms {
 public:
  SolveHistograms(util::MetricsRegistry& registry, std::string family,
                  std::string help)
      : registry_(&registry), family_(std::move(family)),
        help_(std::move(help)) {}

  [[nodiscard]] util::Histogram& child(const SolveResult& result);

 private:
  util::MetricsRegistry* registry_;
  std::string family_;
  std::string help_;
  std::array<std::atomic<util::Histogram*>, 8> children_{};
};

class BatchEngine {
 public:
  explicit BatchEngine(BatchEngineOptions options = {});

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Registers (and finalizes) a network under `id`.  Registering an
  /// id again with the same content as its current revision
  /// (graph::Network::same_content) is a no-op returning the existing
  /// session; different content throws NetworkConflict.
  NetworkSession& register_network(std::string id, graph::Network network);

  [[nodiscard]] bool has_network(const std::string& id) const;

  /// The session registered under `id`; throws std::out_of_range when
  /// absent.
  [[nodiscard]] NetworkSession& session(const std::string& id) const;

  /// Solves a batch: the caller and up to workers − 1 pool tasks pull
  /// jobs one at a time, one arena lease per participant, and results
  /// come back in job order.  Jobs naming an
  /// unregistered network throw std::invalid_argument before anything
  /// runs; per-job solver failures are captured in SolveResult::error.
  /// Jobs with resolve_on_update are additionally retained as
  /// subscriptions by their network's session, keyed on the job id:
  /// re-submitting a job replaces its subscription in place instead of
  /// duplicating it, and re-submitting with resolve_on_update off
  /// removes it (the unsubscribe path).
  ///
  /// `cancelled`, when set, is checked when the job starts and then once
  /// per DP column while it solves: kCancel marks the result
  /// kCancelledError, kTimeout kTimedOutError, and a job skipped or
  /// aborted either way never touches its subscription nor leaves a
  /// checkpoint behind.  This is the hook the daemon's JobManager uses.
  /// Jobs with deadline_ms > 0 additionally get an engine-side deadline
  /// measured from this call's entry, fused into the same signal.
  std::vector<SolveResult> solve(const std::vector<SolveJob>& jobs,
                                 const CancelFn& cancelled = nullptr);

  /// Applies metric deltas to a session (publishing its next revision)
  /// and re-solves the jobs subscribed to it, returning their results in
  /// subscription order.
  std::vector<SolveResult> apply_link_updates(
      const std::string& id, std::span<const graph::LinkUpdate> updates);

  /// Jobs currently retained for delta-driven re-solves, summed over
  /// sessions.
  [[nodiscard]] std::size_t subscription_count() const;

  /// Arenas the engine ever constructed (bounded by peak participants).
  [[nodiscard]] std::size_t arenas_created() const {
    return arenas_.created();
  }

  /// The pool solves run on; JobManager posts its pull tasks here.
  [[nodiscard]] util::ThreadPool& pool() const { return *pool_; }

  /// Serving counters: session/subscription counts plus session memory
  /// and checkpoint evictions summed over all sessions (each session runs
  /// its checkpoint sweep as part of reporting).
  [[nodiscard]] EngineStats stats() const;

  /// The concrete kernel this engine's ELPC frame-rate solves run
  /// (options.kernel resolved at construction; never kAuto).
  [[nodiscard]] core::kernels::Kind kernel() const { return kernel_; }

  /// The registry this engine publishes to (the caller's, or the
  /// engine-private fallback).
  [[nodiscard]] util::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  [[nodiscard]] NetworkSession* find_session(const std::string& id) const;
  /// True when the engine retains/reuses a checkpoint for this job:
  /// incremental engines, subscribed ELPC frame-rate jobs.
  [[nodiscard]] bool incremental_job(const SolveJob& job) const;
  /// `snapshots` and `checkpoints` (null = plain solve; held = pinned
  /// against eviction) are index-aligned with `jobs`, resolved up front
  /// on the calling thread: workers never touch the engine mutex, and
  /// all jobs of one batch solve against the revisions current at
  /// submission.  `delta` published the batch's revision (null on the
  /// plain solve path).  `staleness_epoch`, when non-null, marks the
  /// instant that delta landed: each job records (its completion −
  /// epoch) into the elpc_resolve_staleness_ms histogram.
  std::vector<SolveResult> run_jobs(
      std::span<const SolveJob> jobs,
      std::span<const NetworkSession::Current> snapshots,
      std::span<const NetworkSession::CheckpointEntryPtr> checkpoints,
      const std::vector<graph::LinkUpdate>* delta, const CancelFn& cancelled,
      const std::chrono::steady_clock::time_point* staleness_epoch = nullptr);
  void solve_one(const SolveJob& job, const NetworkSession::Current& snap,
                 const MapperContext& ctx, std::size_t slot,
                 NetworkSession::CheckpointEntry* checkpoint,
                 const std::vector<graph::LinkUpdate>* delta,
                 const core::AbortProbe& abort,
                 const std::chrono::steady_clock::time_point* staleness_epoch,
                 SolveResult& out);
  BatchEngineOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;
  core::ArenaPool arenas_;
  /// options_.kernel resolved once; what MapperContext hands factories.
  core::kernels::Kind kernel_ = core::kernels::Kind::kScalar;
  /// Metrics live in the registry (the caller's via options.metrics, or
  /// owned_metrics_) — one source of truth; EngineStats is populated from
  /// these.  Counter references are resolved once at construction, so
  /// participants pay one relaxed atomic add each.
  std::unique_ptr<util::MetricsRegistry> owned_metrics_;
  util::MetricsRegistry* metrics_ = nullptr;
  /// ELPC frame-rate solves served by the engine's (fixed) kernel.
  util::Counter* kernel_jobs_ = nullptr;
  /// Incremental serving counters.
  util::Counter* incremental_hits_ = nullptr;
  util::Counter* incremental_misses_ = nullptr;
  util::Counter* incremental_columns_reused_ = nullptr;
  util::Counter* incremental_cells_recomputed_ = nullptr;
  SolveHistograms solve_ms_;
  SolveHistograms staleness_ms_;
  mutable std::mutex mutex_;  // guards sessions_
  std::map<std::string, std::unique_ptr<NetworkSession>> sessions_;
};

}  // namespace elpc::service
