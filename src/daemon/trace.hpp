#pragma once
// Solve-lifecycle tracing: one TraceSpan per job ticket, assembled by the
// JobManager when the ticket turns terminal, plus a fixed-capacity ring
// buffer of slow solves dumpable via the daemon's `slowlog` verb.
//
// Tracing adds no hot-loop branches: every timestamp a span carries is
// either taken at a job boundary (submit / dispatch / terminal) or copied
// from measurements the solver already makes (mean_runtime_ms, the
// per-column abort probe PR 6 added for deadlines, incremental replay
// stats).  Completed spans feed the queue-wait and end-to-end histograms
// in the daemon's MetricsRegistry.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace elpc::daemon {

/// One job ticket's lifecycle.  Phase attribution: queue_wait_ms covers
/// submitted→dispatched, solve_ms the job's one mapper call, and e2e_ms
/// submitted→terminal (the gap beyond queue+solve is dispatch batching and
/// result serialization).  columns_reused vs (columns_total -
/// columns_reused) splits an incremental solve into checkpoint replay vs
/// dirty-column recompute.
struct TraceSpan {
  std::uint64_t ticket = 0;
  std::string job_id;
  std::string trace_id;     // client-stamped correlation id ("" = none)
  std::string state;        // terminal state name: done/failed/cancelled/...
  std::string objective;    // wire name: "delay" / "framerate"
  std::string kernel;       // resolved frame-rate kernel, or "none"
  bool incremental = false; // solved by checkpoint reuse
  double queue_wait_ms = 0.0;
  double solve_ms = 0.0;
  double e2e_ms = 0.0;
  std::uint64_t dp_columns = 0;      // columns the DP actually advanced
  std::uint64_t columns_total = 0;   // columns considered by the checkpoint
  std::uint64_t columns_reused = 0;  // replayed instead of recomputed
  std::int64_t completed_unix_ms = 0;  // wall clock at terminal
  // Terminal instant on util::monotonic_ns()'s clock — the profiler's
  // time base.  Lets the Chrome-trace exporter place the span as a
  // complete slice ending here and spanning e2e_ms, on the same axis as
  // the phase events it parents.
  std::uint64_t end_mono_ns = 0;
};

[[nodiscard]] util::Json span_to_json(const TraceSpan& span);

/// Spans the daemon's slowlog keeps, oldest evicted first.
inline constexpr std::size_t kSlowLogCapacity = 128;
/// Spans the daemon's trace ring keeps for the `trace` verb's timeline
/// export.  Every terminal job lands there, unlike the slowlog's
/// threshold, so it is the larger ring.
inline constexpr std::size_t kTraceLogCapacity = 2048;

/// Thread-safe fixed-capacity ring of spans, oldest evicted first.  The
/// JobManager adds a span when its end-to-end time crosses `--slow-ms`;
/// `total_added` keeps counting past evictions so conservation checks
/// (chaos) see every slow span ever logged.
class SlowLog {
 public:
  explicit SlowLog(std::size_t capacity = kSlowLogCapacity);

  void add(const TraceSpan& span);
  [[nodiscard]] std::vector<TraceSpan> entries() const;  // oldest first
  [[nodiscard]] std::uint64_t total_added() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t next_ = 0;  // ring write position once full
  std::vector<TraceSpan> ring_;
  std::uint64_t total_ = 0;
};

}  // namespace elpc::daemon
