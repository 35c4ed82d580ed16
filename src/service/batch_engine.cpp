#include "service/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/elpc.hpp"
#include "util/fault_injector.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"
#include "util/trace_context.hpp"

namespace elpc::service {

pipeline::CostOptions default_cost(Objective objective) {
  return pipeline::CostOptions{
      .include_link_delay = objective == Objective::kMinDelay};
}

mapping::MapperPtr make_engine_elpc(const MapperContext& ctx) {
  core::ElpcOptions options;
  options.parallel_sweep = false;
  options.arena = ctx.arena;
  options.framerate_kernel = ctx.kernel;
  options.checkpoint = ctx.checkpoint;
  options.delta = ctx.delta;
  options.incremental_stats = ctx.incremental_stats;
  options.abort_probe = ctx.abort;
  return std::make_unique<core::ElpcMapper>(options);
}

namespace {

mapping::MapperPtr builtin_factory(const SolveJob& job,
                                   const MapperContext& ctx) {
  if (job.algorithm == "ELPC") {
    return make_engine_elpc(ctx);
  }
  throw std::invalid_argument(
      "BatchEngine: unknown algorithm '" + job.algorithm +
      "'; install a MapperFactory (experiments::engine_mapper_factory "
      "resolves the full registry)");
}

constexpr const char* kSolveHistogramHelp =
    "Latency histogram in milliseconds, labelled kernel x objective x "
    "incremental";

/// Fuses the caller's signal with per-job engine-side deadlines
/// (measured from now) into one CancelFn; returns `user` unchanged when
/// no job carries a deadline.
CancelFn with_deadlines(std::span<const SolveJob> jobs, const CancelFn& user) {
  using Clock = std::chrono::steady_clock;
  const bool any_deadline =
      std::any_of(jobs.begin(), jobs.end(),
                  [](const SolveJob& job) { return job.deadline_ms > 0; });
  if (!any_deadline) {
    return user;
  }
  const Clock::time_point start = Clock::now();
  auto deadlines = std::make_shared<std::vector<Clock::time_point>>(
      jobs.size(), Clock::time_point::max());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].deadline_ms > 0) {
      (*deadlines)[i] = start + std::chrono::milliseconds(jobs[i].deadline_ms);
    }
  }
  return [user, deadlines](std::size_t i) {
    if (user) {
      const JobSignal signal = user(i);
      if (signal != JobSignal::kNone) {
        return signal;
      }
    }
    return Clock::now() >= (*deadlines)[i] ? JobSignal::kTimeout
                                           : JobSignal::kNone;
  };
}

}  // namespace

BatchEngine::BatchEngine(BatchEngineOptions options)
    : options_(std::move(options)),
      owned_metrics_(options_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<util::MetricsRegistry>()),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      solve_ms_(*metrics_, "elpc_solve_ms", kSolveHistogramHelp),
      staleness_ms_(*metrics_, "elpc_resolve_staleness_ms",
                    kSolveHistogramHelp) {
  // An incremental engine with a zero-byte session budget would evict
  // every checkpoint the moment its solve released it; give it a real
  // budget unless the caller chose one explicitly.
  if (options_.incremental && options_.checkpoint_budget_bytes == 0) {
    options_.checkpoint_budget_bytes = kIncrementalDefaultCheckpointBytes;
  }
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<util::ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
  if (!options_.factory) {
    options_.factory = builtin_factory;
  }
  // Resolve the kernel once, up front: a forced-but-unavailable kernel
  // fails engine construction loudly instead of failing the first job,
  // and every job sees the same concrete kind.
  kernel_ = core::kernels::resolve_kernel(options_.kernel);
  // Counters resolve their registry slot once here; the solve path then
  // pays one relaxed atomic add per event, never a registry lookup.
  kernel_jobs_ = &metrics_->counter(
      "elpc_kernel_jobs_total", "ELPC frame-rate solves served, by kernel",
      {{"kernel", core::kernels::kind_name(kernel_)}});
  incremental_hits_ = &metrics_->counter(
      "elpc_incremental_hits_total",
      "Re-solves that reused checkpoint columns");
  incremental_misses_ = &metrics_->counter(
      "elpc_incremental_misses_total",
      "Checkpoint-eligible solves that fell back to a full solve");
  incremental_columns_reused_ = &metrics_->counter(
      "elpc_incremental_columns_reused_total",
      "DP columns replayed from checkpoints instead of recomputed");
  incremental_cells_recomputed_ = &metrics_->counter(
      "elpc_incremental_cells_recomputed_total",
      "DP cells incremental re-solves re-ran through the cell kernel");
}

util::Histogram& SolveHistograms::child(const SolveResult& result) {
  const bool served = !result.kernel.empty();
  const bool delay = result.objective == Objective::kMinDelay;
  std::atomic<util::Histogram*>& slot = children_[(served ? 4 : 0) +
                                                  (delay ? 0 : 2) +
                                                  (result.incremental ? 1 : 0)];
  if (util::Histogram* cached = slot.load(std::memory_order_acquire)) {
    return *cached;
  }
  // Idempotent resolve-or-create: racing first uses store one handle.
  util::Histogram& child = registry_->histogram(
      family_, help_,
      {{"kernel", served ? result.kernel : "none"},
       {"objective", delay ? "delay" : "framerate"},
       {"incremental", result.incremental ? "1" : "0"}});
  slot.store(&child, std::memory_order_release);
  return child;
}

NetworkSession& BatchEngine::register_network(std::string id,
                                              graph::Network network) {
  const auto same_or_conflict = [&](NetworkSession& existing,
                                    const graph::Network& offered)
      -> NetworkSession& {
    if (!existing.snapshot()->same_content(offered)) {
      throw NetworkConflict("BatchEngine: network '" + existing.id() +
                            "' already registered with different content");
    }
    return existing;
  };
  if (NetworkSession* existing = find_session(id)) {
    return same_or_conflict(*existing, network);
  }
  auto session = std::make_unique<NetworkSession>(
      id, std::move(network), options_.checkpoint_budget_bytes);
  NetworkSession* winner = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // try_emplace leaves `session` alone when the id is taken.
    const auto [it, inserted] = sessions_.try_emplace(std::move(id));
    if (inserted) {
      it->second = std::move(session);
      return *it->second;
    }
    winner = it->second.get();
  }
  // A concurrent registration of the same id got in first.
  return same_or_conflict(*winner, *session->snapshot());
}

NetworkSession* BatchEngine::find_session(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool BatchEngine::has_network(const std::string& id) const {
  return find_session(id) != nullptr;
}

NetworkSession& BatchEngine::session(const std::string& id) const {
  NetworkSession* session = find_session(id);
  if (session == nullptr) {
    throw std::out_of_range("BatchEngine: no network '" + id +
                            "' registered");
  }
  return *session;
}

bool BatchEngine::incremental_job(const SolveJob& job) const {
  return options_.incremental && job.resolve_on_update &&
         job.objective == Objective::kMaxFrameRate &&
         job.algorithm == "ELPC";
}

std::vector<SolveResult> BatchEngine::solve(const std::vector<SolveJob>& jobs,
                                            const CancelFn& cancelled) {
  std::vector<NetworkSession*> sessions;
  std::vector<NetworkSession::Current> snapshots;
  std::vector<NetworkSession::CheckpointEntryPtr> checkpoints(jobs.size());
  sessions.reserve(jobs.size());
  snapshots.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SolveJob& job = jobs[i];
    NetworkSession* session = find_session(job.network);
    if (session == nullptr) {
      throw std::invalid_argument("BatchEngine: job '" + job.id +
                                  "' names unregistered network '" +
                                  job.network + "'");
    }
    sessions.push_back(session);
    snapshots.push_back(session->current());
    if (incremental_job(job)) {
      // A subscribed job reuses its own checkpoint; a first subscribe
      // captures into a fresh one, which its session adopts below.
      checkpoints[i] = session->checkpoint(job.id);
      if (checkpoints[i] == nullptr) {
        checkpoints[i] = std::make_shared<NetworkSession::CheckpointEntry>();
      }
    }
  }
  const CancelFn effective =
      with_deadlines(std::span<const SolveJob>(jobs), cancelled);
  std::vector<SolveResult> results =
      run_jobs(std::span<const SolveJob>(jobs), snapshots, checkpoints,
               nullptr, effective);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // A cancelled or timed-out job never ran (or never finished), so
    // it must not install or replace a subscription either, and a
    // fresh checkpoint it captured into dies with it.
    if (results[i].error == kCancelledError ||
        results[i].error == kTimedOutError) {
      continue;
    }
    // Re-submitting a job replaces (or, with resolve_on_update off,
    // removes) its subscription: without this, a client re-sending the
    // same job file would multiply every future re-solve, and turning
    // the flag off would have no way to stop them.
    if (jobs[i].resolve_on_update) {
      sessions[i]->subscribe(jobs[i], std::move(checkpoints[i]));
    } else {
      sessions[i]->unsubscribe(jobs[i].id);
    }
  }
  return results;
}

std::vector<SolveResult> BatchEngine::apply_link_updates(
    const std::string& id, std::span<const graph::LinkUpdate> updates) {
  NetworkSession& session = this->session(id);
  // Staleness epoch: the instant the delta lands.  Each subscribed job's
  // re-solve records (its completion − this) as incremental staleness —
  // how long results citing the superseded revision stayed current.
  const std::chrono::steady_clock::time_point delta_landed =
      std::chrono::steady_clock::now();
  const NetworkSession::Published published =
      session.apply_link_updates(updates);
  const std::vector<NetworkSession::Current> snapshots(
      published.jobs.size(), published.current);
  // The delta that justifies column reuse: offered to every subscribed
  // job whose checkpoint the DP finds at exactly the revision it starts
  // from.
  const std::vector<graph::LinkUpdate> delta(updates.begin(), updates.end());
  // Subscribed jobs keep their deadlines on re-solves too (measured from
  // the re-solve's start), so a delta storm cannot wedge a worker.
  const CancelFn effective =
      with_deadlines(std::span<const SolveJob>(published.jobs), nullptr);
  return run_jobs(std::span<const SolveJob>(published.jobs), snapshots,
                  published.checkpoints, &delta, effective, &delta_landed);
}

std::size_t BatchEngine::subscription_count() const {
  return stats().subscriptions;
}

EngineStats BatchEngine::stats() const {
  EngineStats stats;
  stats.arenas_created = arenas_.created();
  // Collect the sessions first: cache_stats() takes each session's own
  // mutex and runs its checkpoint sweep, which must not happen under the
  // engine mutex a concurrent register_network needs.
  std::vector<NetworkSession*> sessions;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats.sessions = sessions_.size();
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      sessions.push_back(session.get());
    }
  }
  for (const NetworkSession* session : sessions) {
    const SessionCacheStats cache = session->cache_stats();
    stats.subscriptions += cache.subscriptions;
    stats.cached_bytes += cache.cached_bytes;
    stats.checkpoints += cache.checkpoints;
    stats.checkpoint_bytes += cache.checkpoint_bytes;
    stats.checkpoint_evictions += cache.checkpoint_evictions;
    stats.pinned_revisions += cache.pinned_revisions;
    stats.pinned_bytes += cache.pinned_bytes;
  }
  stats.incremental_hits = incremental_hits_->value();
  stats.incremental_misses = incremental_misses_->value();
  stats.incremental_columns_reused = incremental_columns_reused_->value();
  stats.incremental_cells_recomputed =
      incremental_cells_recomputed_->value();
  stats.kernel = core::kernels::kind_name(kernel_);
  // The engine's kernel never changes after construction, so at most the
  // one counter can be nonzero.
  if (const std::uint64_t served = kernel_jobs_->value(); served != 0) {
    stats.kernel_jobs.emplace_back(stats.kernel, served);
  }
  return stats;
}

std::vector<SolveResult> BatchEngine::run_jobs(
    std::span<const SolveJob> jobs,
    std::span<const NetworkSession::Current> snapshots,
    std::span<const NetworkSession::CheckpointEntryPtr> checkpoints,
    const std::vector<graph::LinkUpdate>* delta, const CancelFn& cancelled,
    const std::chrono::steady_clock::time_point* staleness_epoch) {
  std::vector<SolveResult> results(jobs.size());
  if (jobs.empty()) {
    return results;
  }
  std::atomic<std::size_t> cursor{0};  // next unclaimed job index
  const auto participate = [&](std::size_t slot) {
    // One timeline slice per participant: everything it does for the
    // batch (arena acquire, each solve) nests under it.
    const util::ProfileScope dispatch_phase("dispatch", "engine", slot);
    // One arena per participant that claims work; leases recycle through
    // the pool, so the engine never holds more arenas than its peak
    // number of concurrent participants.
    std::optional<core::ArenaPool::Lease> lease;
    MapperContext ctx;
    ctx.kernel = kernel_;
    for (std::size_t i = cursor++; i < jobs.size(); i = cursor++) {
      if (cancelled) {
        const JobSignal signal = cancelled(i);
        if (signal != JobSignal::kNone) {
          // The job-boundary check: skipped jobs report a uniform
          // marker instead of a solver outcome.
          const char* marker = signal == JobSignal::kTimeout
                                   ? kTimedOutError
                                   : kCancelledError;
          results[i].job_id = jobs[i].id;
          results[i].network = jobs[i].network;
          results[i].algorithm = jobs[i].algorithm;
          results[i].objective = jobs[i].objective;
          results[i].network_revision = snapshots[i].revision;
          results[i].shard = slot;
          results[i].error = marker;
          results[i].result = mapping::MapResult::infeasible(marker);
          continue;
        }
      }
      // The same signal, re-polled once per DP column inside the
      // solve: a deadline or late cancel stops the job within one
      // column's work instead of running it to completion.  The probe
      // doubles as the trace layer's per-column tick (dp_columns) —
      // one increment of a local folded into an existing call, never a
      // new hot-loop branch (probe-free solves stay probe-free).
      if (!lease) {
        ctx.arena = lease.emplace(arenas_.acquire()).get();
      }
      core::AbortProbe abort;
      std::uint64_t dp_columns = 0;
      if (cancelled) {
        abort = [&cancelled, i, &dp_columns]() {
          ++dp_columns;
          switch (cancelled(i)) {
            case JobSignal::kCancel:
              return core::SolveAbort::kCancelled;
            case JobSignal::kTimeout:
              return core::SolveAbort::kTimedOut;
            case JobSignal::kNone:
              break;
          }
          return core::SolveAbort::kNone;
        };
      }
      solve_one(jobs[i], snapshots[i], ctx, slot, checkpoints[i].get(), delta,
                abort, staleness_epoch, results[i]);
      results[i].dp_columns = dp_columns;
    }
  };
  // The caller is participant 0: a one-job batch never leaves its thread.
  const std::size_t participants =
      std::min(jobs.size(), pool_->worker_count());
  if (participants == 1) {
    participate(0);
    return results;
  }
  util::JobGroup group(*pool_);
  for (std::size_t slot = 1; slot < participants; ++slot) {
    group.submit([&participate, slot]() { participate(slot); });
  }
  participate(0);
  group.wait();
  return results;
}

void BatchEngine::solve_one(
    const SolveJob& job, const NetworkSession::Current& snap,
    const MapperContext& ctx, std::size_t slot,
    NetworkSession::CheckpointEntry* checkpoint,
    const std::vector<graph::LinkUpdate>* delta, const core::AbortProbe& abort,
    const std::chrono::steady_clock::time_point* staleness_epoch,
    SolveResult& out) {
  // Fault point "engine_stall": the solving thread wedges right here,
  // holding its snapshot, before any abort probe can fire — a hung solve
  // whose superseded revision shows up in pinned_revisions until it
  // returns.
  (void)util::FaultInjector::instance().maybe_stall("engine_stall");
  // The job's trace id scopes the whole solve: every log line and every
  // profiler event (here through the DP kernels) carries it until the
  // scope unwinds, and the daemon's span for this ticket cites the same
  // id — one key to join wire, log, and timeline views.
  const util::ScopedTraceContext trace_scope(job.trace_id);
  const util::ProfileScope solve_phase("solve", "engine");
  out.job_id = job.id;
  out.network = job.network;
  out.algorithm = job.algorithm;
  out.objective = job.objective;
  out.shard = slot;
  out.network_revision = snap.revision;
  // Which kernel serves the job: the frame-rate row kernel only runs
  // under ELPC's max_frame_rate DP, so only those jobs report (and
  // count toward) a kernel.
  const bool kernel_serves =
      job.objective == Objective::kMaxFrameRate && job.algorithm == "ELPC";
  if (kernel_serves) {
    out.kernel = core::kernels::kind_name(ctx.kernel);
  }
  // Incremental wiring: only with the checkpoint's solve lock won (a
  // concurrent re-solve of the same subscription keeps its own full
  // solve — never a shared, racing checkpoint).  The DP takes a delta
  // only when network.version() == checkpoint.network_version() +
  // delta.size(), so the empty delta is offered when the checkpoint
  // already matches this revision, and otherwise the batch's delta.
  core::IncrementalStats inc_stats;
  MapperContext job_ctx = ctx;
  job_ctx.abort = abort;
  std::unique_lock<std::mutex> checkpoint_lock;
  if (checkpoint != nullptr) {
    checkpoint_lock =
        std::unique_lock<std::mutex>(checkpoint->solve_mutex, std::try_to_lock);
    if (checkpoint_lock.owns_lock()) {
      static const std::vector<graph::LinkUpdate> kNoUpdates;
      job_ctx.checkpoint = &checkpoint->state;
      job_ctx.incremental_stats = &inc_stats;
      job_ctx.delta =
          checkpoint->state.network_version() == snap.network->version()
              ? &kNoUpdates
              : delta;
    }
  }
  try {
    const mapping::MapperPtr mapper = options_.factory(job, job_ctx);
    const mapping::Problem problem(job.pipeline, *snap.network, job.source,
                                   job.destination, job.cost);
    const util::WallTimer timer;
    out.result = job.objective == Objective::kMaxFrameRate
                     ? mapper->max_frame_rate(problem)
                     : mapper->min_delay(problem);
    out.mean_runtime_ms = timer.elapsed_ms();
    if (kernel_serves) {
      kernel_jobs_->add();
    }
    // Fault point "checkpoint_corrupt": silently desync the retained
    // state's recorded network version (still under the solve lock) past
    // any version the session can reach.  The DP's version check must
    // catch it and fall back to a full solve + recapture, keeping
    // results bit-identical — the parity invariant the chaos driver
    // asserts.
    util::FaultInjector& faults = util::FaultInjector::instance();
    if (checkpoint_lock.owns_lock() && faults.enabled() &&
        faults.should_fire("checkpoint_corrupt")) {
      checkpoint->state.set_network_version(
          checkpoint->state.network_version() | (std::uint64_t{1} << 63));
    }
  } catch (const core::SolveAborted& e) {
    out.error = e.reason() == core::SolveAbort::kTimedOut ? kTimedOutError
                                                          : kCancelledError;
    out.result = mapping::MapResult::infeasible(out.error);
  } catch (const std::exception& e) {
    out.error = e.what();
    out.result = mapping::MapResult::infeasible(std::string("error: ") +
                                                e.what());
  }
  if (checkpoint != nullptr) {
    if (checkpoint_lock.owns_lock()) {
      // Measure before releasing the lock — a contending solve may
      // start resizing the state the instant it is free; the session's
      // next sweep charges it against the budget.
      checkpoint->bytes.store(checkpoint->state.approx_bytes());
      checkpoint_lock.unlock();
    }
    if (inc_stats.incremental) {
      incremental_hits_->add();
      incremental_columns_reused_->add(inc_stats.columns_reused);
      incremental_cells_recomputed_->add(inc_stats.cells_recomputed);
    } else {
      incremental_misses_->add();
    }
  }
  // Trace attribution: copy the incremental split into the result's
  // non-canonical metadata and feed the latency histograms.  Skipped and
  // aborted jobs never record a solve sample (their mean_runtime_ms is
  // not a solve), matching "histogram totals == completed solves".
  out.incremental = inc_stats.incremental;
  out.columns_total = inc_stats.columns_total;
  out.columns_reused = inc_stats.columns_reused;
  if (out.error.empty()) {
    solve_ms_.child(out).record(out.mean_runtime_ms);
    if (staleness_epoch != nullptr) {
      staleness_ms_.child(out).record(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - *staleness_epoch)
              .count());
    }
  }
}

}  // namespace elpc::service
