#pragma once
// Shared pieces of the end-to-end benchmark: sample sets with exact
// percentiles, the in-memory span recorder the traced run times layers
// with, the correctness gate, and the few process facts the result is
// stamped with.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Raw samples; percentiles interpolate linearly between closest ranks
/// (numpy's default), so they are exact for the sample set.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double sum() const;
  /// Samples strictly above the q-quantile: the support of a tail
  /// percentile (the method wants at least ten).
  [[nodiscard]] std::size_t beyond(double q) const;

 private:
  std::vector<double> values_;
};

/// Span recorder for one thread: every call wrapped by span() is kept
/// in memory with its name, start, end and enclosing span, and the
/// per-layer metrics are read back as duration statistics per name.
class Tracer {
 public:
  template <typename Fn>
  void span(std::string_view name, Fn&& fn) {
    const std::uint32_t id = intern(name);
    const std::int32_t parent = open_;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{id, parent, Clock::now(), {}});
    open_ = index;
    fn();
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
    open_ = parent;
  }

  /// Durations of every span named `name`, in microseconds.
  [[nodiscard]] Samples durations_us(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::uint32_t intern(std::string_view name);

  std::vector<Span> spans_;
  std::map<std::string, std::uint32_t, std::less<>> names_;
  std::int32_t open_ = -1;
};

/// Runs `fn` inside a span when a tracer is given, bare otherwise: the
/// one switch between a traced and an untraced phase.
template <typename Fn>
void maybe_span(Tracer* tracer, std::string_view name, Fn&& fn) {
  if (tracer != nullptr) {
    tracer->span(name, fn);
  } else {
    fn();
  }
}

/// The correctness gate: every answer the benchmark receives is compared
/// with what a direct solve produced.  Thread-safe; a mismatch counts
/// toward `failed` (and error_rate) and fails the run.
class Gate {
 public:
  /// Records one compared answer; false (and a counted failure) when the
  /// bytes differ.
  bool expect_equal(std::string_view what, std::string_view expected,
                    std::string_view actual);
  /// Records a failed operation that produced no answer to compare.
  void fail(std::string_view what, std::string_view detail);

  [[nodiscard]] std::uint64_t checked() const { return checked_.load(); }
  [[nodiscard]] std::uint64_t failures() const { return failures_.load(); }
  [[nodiscard]] std::string first_failure() const;

 private:
  void note(std::string_view what, std::string_view detail);

  std::atomic<std::uint64_t> checked_{0};
  std::atomic<std::uint64_t> failures_{0};
  mutable std::mutex mutex_;
  std::string first_failure_;
};

/// One reported number: what the result line and the human table print.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (1 for a single measured quantity).
  std::size_t samples = 1;
  /// Printed beside the value in the human table (e.g. tail support).
  std::string note;
};

/// 64-bit FNV-1a, for recording long answers compactly.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// Peak resident set of this process in MB (getrusage ru_maxrss, which
/// is the kernel's VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Bytes malloc has handed out and not taken back, in MB, over every
/// arena and including mmapped chunks (glibc mallinfo2: uordblks +
/// hblkhd).  Unlike the resident set it does not depend on how the
/// allocations happened to spread over arenas.  0 without glibc.
[[nodiscard]] double heap_in_use_mb();

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t available_cpus();

}  // namespace perfbench
