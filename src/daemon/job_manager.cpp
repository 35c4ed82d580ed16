#include "daemon/job_manager.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"
#include "util/profiler.hpp"

namespace elpc::daemon {

namespace {

/// The uniform result of a job that never ran (queue-side cancellation
/// or a batch-level failure): identity fields from the job, no outcome.
service::SolveResult unsolved_result(const service::SolveJob& job,
                                     std::string error) {
  service::SolveResult result;
  result.job_id = job.id;
  result.network = job.network;
  result.algorithm = job.algorithm;
  result.objective = job.objective;
  result.result = mapping::MapResult::infeasible(error);
  result.error = std::move(error);
  return result;
}

}  // namespace

std::string job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

JobManager::JobManager(service::BatchEngine& engine,
                       JobManagerOptions options)
    : engine_(&engine),
      options_(options),
      owned_metrics_(options.metrics != nullptr
                         ? nullptr
                         : std::make_unique<util::MetricsRegistry>()),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      submitted_c_(&metrics_->counter("elpc_jobs_submitted_total",
                                      "Jobs admitted to the queue")),
      done_c_(&metrics_->counter("elpc_jobs_done_total",
                                 "Jobs that completed successfully")),
      failed_c_(&metrics_->counter("elpc_jobs_failed_total",
                                   "Jobs that reached the failed state")),
      cancelled_c_(&metrics_->counter("elpc_jobs_cancelled_total",
                                      "Jobs cancelled before completing")),
      timed_out_c_(&metrics_->counter("elpc_jobs_timed_out_total",
                                      "Jobs expired by their deadline")),
      queue_wait_ms_(*metrics_, "elpc_queue_wait_ms",
                     "Submission to dispatch (ms), by kernel x objective x "
                     "incremental"),
      e2e_ms_(*metrics_, "elpc_e2e_ms",
              "Submission to terminal state (ms), by kernel x objective x "
              "incremental"),
      paused_(options.start_paused),
      pulls_(engine.pool()),
      expirer_([this]() { expiry_loop(); }) {}

JobManager::~JobManager() { stop(); }

Ticket JobManager::submit(service::SolveJob job, int priority) {
  Record record;
  record.job = std::move(job);
  record.priority = priority;
  record.submitted_at = Clock::now();
  if (record.job.deadline_ms > 0) {
    // The budget starts at admission, so queue wait counts against it —
    // stricter than the engine's own solve-entry clock, and the reason
    // an overdue job can expire without ever running.
    record.deadline = record.submitted_at +
                      std::chrono::milliseconds(record.job.deadline_ms);
    record.has_deadline = true;
  }
  Ticket ticket = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      throw std::runtime_error(
          "JobManager: draining — new submissions are rejected");
    }
    ticket = next_ticket_++;
    if (record.has_deadline && record.deadline < next_expiry_) {
      expiry_cv_.notify_one();
    }
    queue_.emplace(-std::int64_t{priority}, ticket);
    records_.emplace(ticket, std::move(record));
    submitted_c_->add();
  }
  // Posted after the unlock: the worker it wakes takes mutex_ first
  // thing, and must not wake only to block on it.
  pulls_.submit([this]() { pull(); });
  return ticket;
}

void JobManager::pull() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Pop the best queued job, expiring overdue ones met on the way (the
  // expiry thread may not have reached them yet).
  const Clock::time_point now = Clock::now();
  Ticket ticket = 0;
  while (ticket == 0 && !paused_ && !stopping_ && !queue_.empty()) {
    ticket = queue_.begin()->second;
    queue_.erase(queue_.begin());
    Record& record = records_.at(ticket);
    if (record.has_deadline && record.deadline <= now) {
      record.result = unsolved_result(record.job, service::kTimedOutError);
      mark_terminal(std::exchange(ticket, 0), record, JobState::kTimedOut);
    }
  }
  if (ticket == 0) {
    return;  // paused, stopping, or nothing queued: the pull retires idle
  }
  // The record stays put while RUNNING: map nodes are stable and only
  // terminal records are evicted.
  Record& record = records_.at(ticket);
  record.state = JobState::kRunning;
  record.dispatched_at = now;
  record.dispatched = true;
  ++running_count_;
  // A one-job batch runs on this pool thread (no pool hop), outside the
  // manager mutex so poll/submit/cancel stay responsive.  The deadline
  // check here (submission clock) is stricter than the engine's own
  // solve-entry clock and therefore fires first.
  const std::vector<service::SolveJob> jobs{record.job};
  lock.unlock();
  service::SolveResult result;
  try {
    result = std::move(engine_->solve(jobs, [this, &record](std::size_t) {
      const std::lock_guard<std::mutex> guard(mutex_);
      if (record.cancel_requested) {
        return service::JobSignal::kCancel;
      }
      if (record.has_deadline && Clock::now() >= record.deadline) {
        return service::JobSignal::kTimeout;
      }
      return service::JobSignal::kNone;
    }).front());
  } catch (const std::exception& e) {
    // Batch-level rejection (e.g. the job names an unregistered network):
    // the job fails with the engine's diagnostic.
    result = unsolved_result(jobs.front(), e.what());
  }
  const std::string& error = result.error;
  const JobState state =
      error.empty()                       ? JobState::kDone
      : error == service::kCancelledError ? JobState::kCancelled
      : error == service::kTimedOutError  ? JobState::kTimedOut
                                          : JobState::kFailed;
  // Traced before re-locking: the span's histograms and rings synchronize
  // themselves, and the record fields it reads are fixed while RUNNING,
  // so the submit path never waits on span assembly.
  trace_terminal(ticket, record, result, state);
  lock.lock();
  --running_count_;
  record.result = std::move(result);
  mark_terminal(ticket, record, state, /*traced=*/true);
}

JobStatus JobManager::status_of(Ticket ticket, const Record& record) const {
  JobStatus status;
  status.ticket = ticket;
  status.state = record.state;
  status.priority = record.priority;
  status.trace_id = record.job.trace_id;
  status.result = record.result;
  return status;
}

JobStatus JobManager::poll(Ticket ticket) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end()) {
    throw std::out_of_range("JobManager: unknown ticket " +
                            std::to_string(ticket));
  }
  return status_of(ticket, it->second);
}

JobStatus JobManager::wait(Ticket ticket) {
  // The parked form of wait_async: released at the terminal transition
  // (before any eviction could drop the record) or by stop().
  std::promise<JobStatus> answer;
  std::future<JobStatus> status = answer.get_future();
  wait_async(ticket,
             [&answer](const JobStatus& s) { answer.set_value(s); });
  return status.get();
}

void JobManager::wait_async(Ticket ticket,
                            std::function<void(const JobStatus&)> callback) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end()) {
    throw std::out_of_range("JobManager: unknown ticket " +
                            std::to_string(ticket));
  }
  JobStatus status = status_of(ticket, it->second);
  if (status.terminal() || stopping_) {
    status.shutting_down = stopping_ && !status.terminal();
    callback(status);  // inline: nothing left to wait for
    return;
  }
  waiters_[ticket].push_back(std::move(callback));
}

bool JobManager::cancel(Ticket ticket) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end()) {
    throw std::out_of_range("JobManager: unknown ticket " +
                            std::to_string(ticket));
  }
  Record& record = it->second;
  switch (record.state) {
    case JobState::kQueued:
      queue_.erase({-std::int64_t{record.priority}, ticket});
      record.result = unsolved_result(record.job, service::kCancelledError);
      record.cancel_requested = true;
      mark_terminal(ticket, record, JobState::kCancelled);
      return true;
    case JobState::kRunning:
      record.cancel_requested = true;  // the engine's next check stops it
      return true;
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
    case JobState::kTimedOut:
      return false;  // already terminal: cancellation is a no-op
  }
  return false;
}

void JobManager::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void JobManager::resume() {
  const std::lock_guard<std::mutex> lock(mutex_);
  reopen();
}

void JobManager::reopen() {
  if (!paused_) {
    return;
  }
  paused_ = false;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    pulls_.submit([this]() { pull(); });
  }
}

JobManagerStats JobManager::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JobManagerStats stats;
  stats.submitted = submitted_c_->value();
  stats.paused = paused_;
  stats.queued = queue_.size();
  stats.running = running_count_;
  stats.done = done_c_->value();
  stats.failed = failed_c_->value();
  stats.cancelled = cancelled_c_->value();
  stats.timed_out = timed_out_c_->value();
  stats.draining = draining_;
  return stats;
}

void JobManager::drain(std::int64_t timeout_ms,
                       std::function<void(const DrainReport&)> on_done) {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  // A paused manager would sit on its queue forever; draining means
  // "finish the work", so the gate lifts.
  reopen();
  Clock::time_point answer_by = Clock::time_point::max();
  if (timeout_ms > 0) {
    // The drain budget becomes a deadline on everything in flight or
    // still queued (tightening, never loosening, a job's own): when it
    // lapses, running solves abort per column and queued jobs expire.
    const Clock::time_point cutoff =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (auto& [ticket, record] : records_) {
      if (record.state != JobState::kQueued &&
          record.state != JobState::kRunning) {
        continue;
      }
      if (!record.has_deadline || cutoff < record.deadline) {
        record.deadline = cutoff;
        record.has_deadline = true;
      }
    }
    // Grace beyond the cutoff: a job aborting AT the cutoff still needs
    // its next column probe to fire and the batch to unwind.  A solve
    // that ignores its abort probe leaves drained = false rather than
    // wedging the drain forever.
    answer_by = cutoff + std::chrono::seconds(2);
  }
  DrainReport baseline;
  baseline.completed =
      done_c_->value() + failed_c_->value() + cancelled_c_->value();
  baseline.timed_out = timed_out_c_->value();
  if (idle() || stopping_) {
    const DrainReport report = drain_report(baseline);
    lock.unlock();
    on_done(report);
    return;
  }
  drains_.push_back(PendingDrain{baseline, answer_by, std::move(on_done)});
  expiry_cv_.notify_all();  // new deadlines and a new answer time
}

DrainReport JobManager::drain(std::int64_t timeout_ms) {
  std::promise<DrainReport> answer;
  std::future<DrainReport> report = answer.get_future();
  drain(timeout_ms,
        [&answer](const DrainReport& r) { answer.set_value(r); });
  return report.get();
}

DrainReport JobManager::drain_report(const DrainReport& baseline) const {
  DrainReport report;
  report.queued = queue_.size();
  report.running = running_count_;
  report.drained = idle();
  report.completed = done_c_->value() + failed_c_->value() +
                     cancelled_c_->value() - baseline.completed;
  report.timed_out = timed_out_c_->value() - baseline.timed_out;
  return report;
}

bool JobManager::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void JobManager::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    // Async waiters get the same release a blocked wait() does: the
    // current (possibly non-terminal) status with shutting_down set, so
    // the front end can answer instead of leaking the callback.
    for (auto& [ticket, callbacks] : waiters_) {
      const auto it = records_.find(ticket);
      if (it == records_.end()) {
        continue;  // unreachable: terminal records fired at eviction time
      }
      JobStatus status = status_of(ticket, it->second);
      status.shutting_down = !status.terminal();
      for (const auto& callback : callbacks) {
        callback(status);
      }
    }
    waiters_.clear();
    expiry_cv_.notify_all();  // answers the pending drains, then exits
  }
  // Pulls still queued in the pool retire at once (stopping_); running
  // ones finish their job first.  None may run after `this` dies.
  pulls_.wait();
  if (expirer_.joinable()) {
    expirer_.join();
  }
}

void JobManager::trace_terminal(Ticket ticket, const Record& record,
                                const service::SolveResult& result,
                                JobState state) {
  const Clock::time_point now = Clock::now();
  TraceSpan span;
  span.ticket = ticket;
  span.job_id = record.job.id;
  span.trace_id = record.job.trace_id;
  span.state = job_state_name(state);
  span.objective = record.job.objective == service::Objective::kMinDelay
                       ? "delay"
                       : "framerate";
  span.kernel = result.kernel.empty() ? "none" : result.kernel;
  span.incremental = result.incremental;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  // A never-dispatched job's whole lifetime is queue wait.
  span.queue_wait_ms =
      ms((record.dispatched ? record.dispatched_at : now) -
         record.submitted_at);
  span.solve_ms = result.mean_runtime_ms;
  span.e2e_ms = ms(now - record.submitted_at);
  span.dp_columns = result.dp_columns;
  span.columns_total = result.columns_total;
  span.columns_reused = result.columns_reused;
  span.completed_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  // Terminal instant on the profiler's clock, so the exporter can place
  // this span on the same timeline as the phase events it parents.
  span.end_mono_ns = util::monotonic_ns();
  queue_wait_ms_.child(result).record(span.queue_wait_ms);
  e2e_ms_.child(result).record(span.e2e_ms);
  if (options_.slowlog != nullptr && options_.slow_ms > 0 &&
      span.e2e_ms >= static_cast<double>(options_.slow_ms)) {
    options_.slowlog->add(span);
  }
  if (options_.tracelog != nullptr) {
    options_.tracelog->add(span);  // every terminal span, fast or slow
  }
}

void JobManager::mark_terminal(Ticket ticket, Record& record,
                               JobState state, bool traced) {
  if (!traced) {
    trace_terminal(ticket, record, record.result, state);
  }
  record.state = state;
  switch (state) {
    case JobState::kDone:
      done_c_->add();
      break;
    case JobState::kFailed:
      failed_c_->add();
      break;
    case JobState::kCancelled:
      cancelled_c_->add();
      break;
    case JobState::kTimedOut:
      timed_out_c_->add();
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // not terminal; callers never pass these
  }
  // Completion callbacks fire before the eviction sweep below could
  // drop this (or any) record out from under a registered waiter.
  const auto waiters = waiters_.find(ticket);
  if (waiters != waiters_.end()) {
    const JobStatus status = status_of(ticket, record);
    for (const auto& callback : waiters->second) {
      callback(status);
    }
    waiters_.erase(waiters);
  }
  terminal_order_.push_back(ticket);
  if (options_.max_retained_results > 0) {
    while (terminal_order_.size() > options_.max_retained_results) {
      records_.erase(terminal_order_.front());
      terminal_order_.pop_front();
    }
  }
  if (!drains_.empty() && idle()) {
    expiry_cv_.notify_all();
  }
}

void JobManager::expiry_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Overdue queued jobs expire regardless of the pause gate: a paused
    // (or busy) engine must not hold a deadline job in limbo past its
    // budget.
    const Clock::time_point now = Clock::now();
    next_expiry_ = Clock::time_point::max();
    for (auto it = queue_.begin(); it != queue_.end();) {
      const Ticket ticket = it->second;
      Record& record = records_.at(ticket);
      if (!record.has_deadline) {
        ++it;
      } else if (record.deadline > now) {
        next_expiry_ = std::min(next_expiry_, record.deadline);
        ++it;
      } else {
        it = queue_.erase(it);
        record.result = unsolved_result(record.job, service::kTimedOutError);
        mark_terminal(ticket, record, JobState::kTimedOut);
      }
    }
    // Answer the drains that are due — idle, stopping, or out of time —
    // with their reports taken now, then call them unlocked.  The state
    // may move while they run, so the scan runs again before any sleep.
    std::vector<std::pair<PendingDrain, DrainReport>> due;
    const bool release_all = idle() || stopping_;
    std::erase_if(drains_, [&](PendingDrain& drain) {
      if (release_all || drain.answer_by <= now) {
        const DrainReport report = drain_report(drain.baseline);
        due.emplace_back(std::move(drain), report);
        return true;
      }
      next_expiry_ = std::min(next_expiry_, drain.answer_by);
      return false;
    });
    if (!due.empty()) {
      lock.unlock();
      for (const auto& [drain, report] : due) {
        try {
          drain.on_done(report);
        } catch (const std::exception& e) {
          // The thread outlives a failed answer: it still expires
          // deadlines and answers the other drains.
          ELPC_LOG(util::LogLevel::kWarn)
              << "job manager: drain answer failed: " << e.what();
        }
      }
      lock.lock();
      continue;
    }
    if (stopping_) {
      return;
    }
    if (next_expiry_ == Clock::time_point::max()) {
      expiry_cv_.wait(lock);
    } else {
      expiry_cv_.wait_until(lock, next_expiry_);
    }
  }
}

}  // namespace elpc::daemon
