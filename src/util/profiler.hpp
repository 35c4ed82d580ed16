#pragma once
// util::Profiler — phase-level solve profiling: per-thread, lock-free
// rings of begin/end events cheap enough to leave compiled into release
// builds.
//
// Cost model (the DP column loop is the hot path, so this mirrors
// util/metrics.hpp's discipline):
//
//  * disabled (the default) costs ONE relaxed atomic load per scope —
//    ProfileScope checks the global flag once at construction and arms
//    itself, so a flag flip mid-scope still balances its begin/end;
//  * enabled, recording an event is a handful of relaxed atomic stores
//    into the calling thread's own ring slot — no locks, no allocation
//    after the ring exists, no cross-thread contention;
//  * names and categories must be string literals (the slot stores the
//    pointer); per-event dynamic data goes in the 64-bit `arg`
//    (PhaseSegments passes the segment's first column index);
//  * the current util::trace_context is stamped into every event as its
//    interned ref, so timelines correlate with spans and log lines.
//
// Rings overwrite oldest-first when full (an unread event evicted this
// way counts into `dropped`, so conservation stays checkable:
// recorded == drained + dropped + still-buffered).  drain() snapshots
// and consumes every thread's ring; per-slot sequence numbers make the
// concurrent drain safe — a slot the writer touched mid-copy is simply
// skipped, never torn.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace elpc::util {

/// Nanoseconds since a process-wide steady-clock anchor.  Every profiler
/// event timestamp and the daemon's span end anchors use THIS clock, so
/// exported timelines share one time base.
[[nodiscard]] std::uint64_t monotonic_ns();

/// One drained event (plain data; `trace_id` resolved from the ref).
struct ProfileEvent {
  std::uint64_t seq = 0;    // per-thread recording order
  std::uint64_t ts_ns = 0;  // monotonic_ns() at record time
  unsigned tid = 0;         // util::thread_ordinal() of the recording thread
  bool begin = false;       // begin (true) or end (false) of the phase
  const char* name = "";
  const char* category = "";
  std::uint64_t arg = 0;  // phase-specific (e.g. first column of a segment)
  std::string trace_id;   // "" when none was set
};

/// drain()'s result: the consumed events plus the cumulative ring
/// accounting across every thread that ever recorded.
struct ProfilerSnapshot {
  std::vector<ProfileEvent> events;
  std::uint64_t recorded = 0;  // events ever recorded
  std::uint64_t dropped = 0;   // evicted by ring wrap before any drain
  std::uint64_t drained = 0;   // returned by drains, this one included
  std::size_t threads = 0;     // rings that exist
};

class Profiler {
 public:
  /// Default per-thread ring capacity (events), rounded to a power of
  /// two.  ~8k events ≈ 4k scopes per thread between drains.
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  /// The single gate the hot path checks (one relaxed load).
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Capacity for rings created AFTER this call (existing rings keep
  /// theirs); rounded up to a power of two, minimum 8.  Test hook.
  static void set_ring_capacity(std::size_t capacity);

  /// Records a phase boundary on the calling thread's ring.  Callers
  /// normally go through ProfileScope / PhaseSegments; name/category
  /// must be string literals (or otherwise outlive the process).
  static void begin(const char* name, const char* category,
                    std::uint64_t arg = 0);
  /// `arg` on an end event carries what the phase learned while it ran
  /// (ProfileScope::set_end_arg); 0 when unused.
  static void end(const char* name, const char* category,
                  std::uint64_t arg = 0);

  /// Consumes every ring's buffered events (oldest first per thread) and
  /// reports the cumulative accounting.  Safe while writers record.
  [[nodiscard]] static ProfilerSnapshot drain();

  /// Clears every ring and zeroes the cumulative accounting (tests).
  static void reset();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII phase scope.  Arms on the enabled flag at construction so the
/// end always matches the begin even if the flag flips mid-scope.
class ProfileScope {
 public:
  ProfileScope(const char* name, const char* category, std::uint64_t arg = 0)
      : name_(name), category_(category), armed_(Profiler::enabled()) {
    if (armed_) {
      Profiler::begin(name_, category_, arg);
    }
  }
  ~ProfileScope() {
    if (armed_) {
      Profiler::end(name_, category_, end_arg_);
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// Sets the end event's arg — counts known only once the phase ran.
  void set_end_arg(std::uint64_t arg) noexcept { end_arg_ = arg; }

 private:
  const char* name_;
  const char* category_;
  bool armed_;
  std::uint64_t end_arg_ = 0;
};

/// Segmented instrumentation for long uniform loops (the DP column
/// sweep): tick(i) once per iteration opens a new scope every `stride`
/// ticks (arg = that iteration's index) instead of one event pair per
/// iteration — bounded event volume, and the disabled cost stays one
/// branch per iteration on the armed flag captured at construction.
class PhaseSegments {
 public:
  PhaseSegments(const char* name, const char* category,
                std::size_t stride = 64)
      : name_(name),
        category_(category),
        stride_(stride == 0 ? 1 : stride),
        armed_(Profiler::enabled()) {}
  ~PhaseSegments() {
    if (open_) {
      Profiler::end(name_, category_);
    }
  }
  PhaseSegments(const PhaseSegments&) = delete;
  PhaseSegments& operator=(const PhaseSegments&) = delete;

  void tick(std::size_t index) {
    if (!armed_) {
      return;
    }
    if (count_++ % stride_ == 0) {
      if (open_) {
        Profiler::end(name_, category_);
      }
      Profiler::begin(name_, category_, index);
      open_ = true;
    }
  }

 private:
  const char* name_;
  const char* category_;
  std::size_t stride_;
  std::size_t count_ = 0;
  bool open_ = false;
  bool armed_;
};

}  // namespace elpc::util
