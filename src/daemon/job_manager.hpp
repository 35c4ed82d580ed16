#pragma once
// JobManager — the asynchronous admission layer of the mapping daemon.
//
// service::BatchEngine::solve(jobs) is a blocking call: the caller hands
// over a batch and waits.  A serving process needs the opposite shape —
// accept work immediately, answer "how is it going?" cheaply, and let
// callers walk away (cancel).  JobManager provides that as a facade over
// one BatchEngine:
//
//   submit(job, priority)  -> Ticket, immediately; the job enters a
//                             priority queue (higher first, FIFO within
//                             a priority)
//   poll(ticket)           -> QUEUED / RUNNING / DONE / FAILED /
//                             CANCELLED, plus the result once terminal
//   cancel(ticket)         -> removes a queued job outright; a running
//                             job is flagged and stops at its next DP
//                             column check
//   wait(ticket)           -> blocks until terminal (the daemon's `wait`
//                             verb; poll is the non-blocking form)
//
// Pull dispatch: each submit posts one pull task to the engine's pool.
// A pull pops the best job queued when it runs, marks it RUNNING, and
// solves it as a one-job engine batch on its own pool thread: every
// engine worker serves its own job, a finishing worker moves straight on
// to the next, and a job's waiters fire the moment it is done.  Results
// are identical to calling BatchEngine::solve directly with the same
// jobs: the manager adds scheduling, never configuration (pinned by
// tests/daemon/).
//
// pause()/resume() gate dispatch (drain-for-maintenance, deterministic
// tests); stop() (and the destructor) answers every pending drain, waits
// out the running jobs and every posted pull, leaves still-queued jobs
// QUEUED, and joins the expiry thread.
//
// Deadlines: a job submitted with deadline_ms > 0 gets an absolute
// deadline measured FROM SUBMISSION — queue wait counts against the
// budget.  An overdue queued job is expired without running, by the
// manager's one expiry thread (even while paused) or by the pull that
// pops it; a running one is stopped by the engine's per-column abort
// probe.  Either way it reaches the terminal kTimedOut state and its
// result carries service::kTimedOutError.
//
// drain(): the graceful path to a safe kill — permanently closes
// admission (submit throws), lifts any pause, imposes the drain budget
// as a deadline on everything queued or running, and answers once the
// manager is idle, stopping, or the budget + a small grace elapsed.  The
// expiry thread keeps the pending answers: their answer times bound its
// sleep, and the transition to idle wakes it.  The report says whether
// the daemon is now safe to stop().

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/trace.hpp"
#include "service/batch_engine.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace elpc::daemon {

/// Opaque handle for a submitted job (monotonically increasing from 1).
using Ticket = std::uint64_t;

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut
};

/// Wire name of a state ("queued", "running", "done", "failed",
/// "cancelled", "timed_out").
[[nodiscard]] std::string job_state_name(JobState state);

/// One poll() answer: where the job stands, and its outcome once
/// terminal (kDone / kFailed — for kCancelled / kTimedOut the result
/// carries only the marker).
struct JobStatus {
  Ticket ticket = 0;
  JobState state = JobState::kQueued;
  int priority = 0;
  /// The job's client-stamped correlation id ("" when the client sent
  /// none) — echoed on every poll/wait answer so a caller can join the
  /// response with its own logs and the daemon's trace timeline.
  std::string trace_id;
  service::SolveResult result;
  /// Set by wait() when it released the caller because the manager is
  /// stopping and the job will never run — the `wait` verb forwards it
  /// so a client can tell "still queued, daemon dying" from "still
  /// queued, keep waiting".
  bool shutting_down = false;

  [[nodiscard]] bool terminal() const {
    return state != JobState::kQueued && state != JobState::kRunning;
  }
};

struct JobManagerOptions {
  /// Start with dispatch gated (resume() opens it) — submissions queue
  /// up but nothing runs.  Used by tests and maintenance restarts.
  bool start_paused = false;
  /// Terminal records retained for poll-after-completion, oldest evicted
  /// first (0 = unlimited).  A serving daemon must not grow per answered
  /// job forever; polling an evicted ticket reports it as unknown.
  std::size_t max_retained_results = 10000;
  /// Registry the manager publishes to: terminal-state counters plus the
  /// elpc_queue_wait_ms / elpc_e2e_ms trace histograms.  Null = a
  /// manager-private registry (counters stay registry-backed either
  /// way); the daemon shares SocketServer's.
  util::MetricsRegistry* metrics = nullptr;
  /// Slow-solve ring (borrowed, may be null): every terminal span whose
  /// end-to-end time reaches slow_ms is added.  slow_ms <= 0 disables
  /// slow logging even with a ring attached.
  SlowLog* slowlog = nullptr;
  std::int64_t slow_ms = 0;
  /// Trace ring (borrowed, may be null): EVERY terminal span is added,
  /// fast or slow — this is the `trace` verb's source of parent slices
  /// for the Chrome-trace export, and its total_added equals the
  /// cumulative terminal count by the mark_terminal funnel (a chaos
  /// conservation invariant).  Distinct from slowlog, which keeps only
  /// spans crossing slow_ms.
  SlowLog* tracelog = nullptr;
};

/// Queue/throughput counters (daemon `stats` verb).  The terminal
/// counters are cumulative since start — they keep counting after the
/// records themselves are evicted by max_retained_results.
struct JobManagerStats {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t submitted = 0;
  bool paused = false;
  bool draining = false;
};

/// What drain() accomplished: `drained` means the manager is idle —
/// nothing queued, nothing running — and the daemon is safe to kill.
/// The counters cover terminal transitions during the drain.
struct DrainReport {
  bool drained = false;
  /// Jobs that reached kDone/kFailed/kCancelled while draining.
  std::uint64_t completed = 0;
  /// Jobs the drain budget expired (kTimedOut) while draining.
  std::uint64_t timed_out = 0;
  /// Still queued / running when the drain answered (0/0 iff drained).
  std::size_t queued = 0;
  std::size_t running = 0;
};

class JobManager {
 public:
  /// The engine is borrowed and must outlive the manager.
  explicit JobManager(service::BatchEngine& engine,
                      JobManagerOptions options = {});
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Enqueues the job and returns its ticket immediately.  Higher
  /// priority dispatches first; ties dispatch in submission order.
  /// Unknown networks are NOT rejected here (registration may race
  /// admission); the job fails at dispatch instead.  A deadline_ms > 0
  /// starts the job's clock NOW — queue wait counts.  Throws
  /// std::runtime_error once drain() closed admission.
  Ticket submit(service::SolveJob job, int priority = 0);

  /// Where the job stands.  Throws std::out_of_range for a ticket that
  /// was never issued — or whose terminal record was already evicted by
  /// the max_retained_results cap; within the cap, polling after
  /// completion keeps working.
  [[nodiscard]] JobStatus poll(Ticket ticket) const;

  /// Blocks until the job reaches a terminal state and returns it (or,
  /// once stop() runs, its pending status with shutting_down set).
  /// Throws std::out_of_range like poll().
  JobStatus wait(Ticket ticket);

  /// Non-parking wait: registers `callback` to run exactly once with the
  /// job's terminal status — the epoll front end's replacement for a
  /// handler thread blocked in wait().  Fires inline (from this call)
  /// when the job is already terminal or the manager is stopping;
  /// otherwise from whichever thread drives the terminal transition
  /// (the solving pool worker, the expiry thread, a cancel caller) or
  /// from stop(), with shutting_down
  /// set when the state will never advance.  Callbacks run with the
  /// manager mutex held: they must not call back into the JobManager
  /// (send a frame, signal an event loop — nothing re-entrant).  Throws
  /// std::out_of_range for a ticket that was never issued or whose
  /// record was already evicted.
  void wait_async(Ticket ticket,
                  std::function<void(const JobStatus&)> callback);

  /// True when the request was accepted: a queued job is cancelled
  /// outright (terminal immediately); a running one is flagged, and the
  /// engine stops it at its next check — poll() then reports kCancelled,
  /// or kDone if the solve won the race.
  /// False — a no-op — when the job was already terminal.  Throws
  /// std::out_of_range for a ticket that was never issued.
  bool cancel(Ticket ticket);

  /// Gate / reopen dispatch.  Pausing does not interrupt running jobs;
  /// it stops queued ones from starting.
  void pause();
  void resume();

  [[nodiscard]] JobManagerStats stats() const;

  /// Graceful drain: permanently closes admission (submit throws from
  /// now on), lifts any pause, and calls `on_done` exactly once with the
  /// report — when everything queued or running reached a terminal
  /// state, when the manager stops, or at the budget plus a 2 s unwind
  /// grace, whichever comes first.  timeout_ms > 0 is that budget: it
  /// becomes a deadline on every in-flight and queued job (so stragglers
  /// finish as kTimedOut).  timeout_ms <= 0 waits indefinitely.
  /// `on_done` runs with the manager mutex released: inline when the
  /// manager is already idle or stopping, otherwise on the expiry
  /// thread (so it must not block, nor call stop()).  Safe to call more
  /// than once; each call gets its own answer.  Does NOT stop the
  /// manager — call stop() (or destroy it) once the report says drained.
  void drain(std::int64_t timeout_ms,
             std::function<void(const DrainReport&)> on_done);
  /// The parked form: blocks until the answer above.
  DrainReport drain(std::int64_t timeout_ms);

  /// True once drain() has closed admission.
  [[nodiscard]] bool draining() const;

  /// Stops dispatch: answers every pending drain, waits out running jobs
  /// and every posted pull (even one not yet started), leaves queued
  /// jobs QUEUED, joins the expiry thread.  Idempotent; the destructor
  /// calls it.
  void stop();

 private:
  using Clock = std::chrono::steady_clock;

  struct Record {
    service::SolveJob job;
    int priority = 0;
    JobState state = JobState::kQueued;
    bool cancel_requested = false;
    /// Absolute deadline (from submission, or imposed by drain());
    /// meaningful only when has_deadline.
    Clock::time_point deadline{};
    bool has_deadline = false;
    /// Trace phase timestamps: stamped at submit() and at dispatch.  A
    /// job that turns terminal without ever dispatching (queue cancel,
    /// queue expiry) leaves dispatched = false and its whole lifetime
    /// counts as queue wait.
    Clock::time_point submitted_at{};
    Clock::time_point dispatched_at{};
    bool dispatched = false;
    service::SolveResult result;
  };

  /// A drain awaiting its answer: the terminal counts at its start (the
  /// report covers only the drain window) and when it gives up waiting
  /// (time_point::max() when unbounded).
  struct PendingDrain {
    DrainReport baseline;
    Clock::time_point answer_by;
    std::function<void(const DrainReport&)> on_done;
  };

  /// One pull task: pops the best queued job and solves it on this thread.
  void pull();
  /// The expiry thread: sleeps until the earliest queued deadline or
  /// drain answer time (or a new, earlier one, or the manager turning
  /// idle), expires overdue queued jobs, paused or not, and answers the
  /// drains that are due — all of them once stopping, before it exits.
  void expiry_loop();
  /// The drain report now, relative to `baseline` (completed / timed_out
  /// hold the cumulative counts at the drain's start).  Caller holds
  /// mutex_.
  [[nodiscard]] DrainReport drain_report(const DrainReport& baseline) const;
  /// Nothing queued, nothing running.  Caller holds mutex_.
  [[nodiscard]] bool idle() const {
    return queue_.empty() && running_count_ == 0;
  }
  /// Feeds the ticket's terminal TraceSpan to the latency histograms,
  /// the slowlog and the trace ring.  Needs no mutex_ (they synchronize
  /// themselves) while nothing writes the record fields it reads.
  void trace_terminal(Ticket ticket, const Record& record,
                      const service::SolveResult& result, JobState state);
  /// Marks a record terminal: bumps the cumulative counter, traces it
  /// (unless the caller already did, `traced`), queues the record for
  /// retention-cap eviction, prunes over-cap records.  EVERY terminal
  /// transition funnels through here — solve results, queue-side
  /// cancels, queue expiry — so histogram sample totals equal terminal
  /// tickets by construction (the chaos driver's conservation
  /// invariant).  Also fires the ticket's wait_async callbacks (before
  /// any eviction can drop the record), and wakes the expiry thread when
  /// the manager turned idle under a pending drain.  Caller holds mutex_,
  /// ticket already off queue_/running.
  void mark_terminal(Ticket ticket, Record& record, JobState state,
                     bool traced = false);
  /// Builds the poll()-shaped status for a record.  Caller holds mutex_.
  [[nodiscard]] JobStatus status_of(Ticket ticket,
                                    const Record& record) const;
  /// Lifts the pause gate and posts a pull per queued job (pulls that ran
  /// while paused retired idle).  Caller holds mutex_.
  void reopen();

  service::BatchEngine* engine_;
  const JobManagerOptions options_;
  /// Metrics live in the registry (one source of truth); stats() and
  /// drain() read the counters back.  All bumps happen under mutex_, so
  /// cross-counter sums stay consistent at quiescence.
  std::unique_ptr<util::MetricsRegistry> owned_metrics_;
  util::MetricsRegistry* metrics_;
  util::Counter* submitted_c_;
  util::Counter* done_c_;
  util::Counter* failed_c_;
  util::Counter* cancelled_c_;
  util::Counter* timed_out_c_;
  service::SolveHistograms queue_wait_ms_;
  service::SolveHistograms e2e_ms_;

  mutable std::mutex mutex_;
  std::condition_variable expiry_cv_;  // earlier deadline / drain / idle / stop
  std::map<Ticket, Record> records_;
  /// Pending wait_async callbacks, fired (and erased) at the ticket's
  /// terminal transition or at stop().
  std::map<Ticket, std::vector<std::function<void(const JobStatus&)>>>
      waiters_;
  /// Drains awaiting their answer, in arrival order.
  std::vector<PendingDrain> drains_;
  std::set<std::pair<std::int64_t, Ticket>> queue_;  // (−priority, ticket)
  /// Terminal tickets in completion order — the eviction queue for
  /// max_retained_results.
  std::deque<Ticket> terminal_order_;
  Ticket next_ticket_ = 1;
  std::size_t running_count_ = 0;
  /// The expiry thread's wake-up (earliest queued deadline or drain
  /// answer time); submit only notifies it when earlier.
  Clock::time_point next_expiry_ = Clock::time_point::max();
  bool paused_ = false;
  bool draining_ = false;
  bool stopping_ = false;

  util::JobGroup pulls_;  // one pull per submit; stop() waits for all
  std::thread expirer_;  // last member: joins before state tears down
};

}  // namespace elpc::daemon
