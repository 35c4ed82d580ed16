#include "bench_util.hpp"

#include <sched.h>
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Samples::percentile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

std::size_t Samples::beyond(double q) const {
  const double cut = percentile(q);
  return static_cast<std::size_t>(
      std::count_if(values_.begin(), values_.end(),
                    [cut](double v) { return v > cut; }));
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = names_.find(name);
  if (it != names_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace(std::string(name), id);
  return id;
}

Samples Tracer::durations_us(std::string_view name) const {
  Samples out;
  const auto it = names_.find(name);
  if (it == names_.end()) {
    return out;
  }
  for (const Span& s : spans_) {
    if (s.name == it->second) {
      out.add(std::chrono::duration<double, std::micro>(s.end - s.start)
                  .count());
    }
  }
  return out;
}

bool Gate::expect_equal(std::string_view what, std::string_view expected,
                        std::string_view actual) {
  checked_.fetch_add(1);
  if (expected == actual) {
    return true;
  }
  failures_.fetch_add(1);
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(expected.begin(), expected.end(), actual.begin(),
                    actual.end())
          .first -
      expected.begin());
  note(what, "answer differs from the direct solve at byte " +
                 std::to_string(at));
  return false;
}

void Gate::fail(std::string_view what, std::string_view detail) {
  checked_.fetch_add(1);
  failures_.fetch_add(1);
  note(what, detail);
}

void Gate::note(std::string_view what, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_failure_.empty()) {
    first_failure_ = std::string(what) + ": " + std::string(detail);
  }
}

std::string Gate::first_failure() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_failure_;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double heap_in_use_mb() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

}  // namespace perfbench
