#pragma once
// In-process metrics: named counters, gauges, and fixed-bucket log-scale
// latency histograms with Prometheus text exposition.
//
// Design constraints (the daemon records a metric per DP column on hot
// paths, so overhead has to be bounded and predictable):
//
//  * recording is lock-free: Counter::add and Histogram::record are one
//    relaxed atomic RMW each (a histogram record is one bucket add plus a
//    sum add and a max CAS — still O(1), no locks, no allocation);
//  * metric objects are created once under the registry mutex and never
//    destroyed while the registry lives, so callers resolve a reference at
//    construction time and keep it — the hot path never touches the map;
//  * reads are snapshot-consistent: a histogram's count is derived from
//    the bucket sums read in one pass, so `sum(buckets) == count` holds in
//    every snapshot even while writers race (each sample lands exactly
//    once; a snapshot may simply miss samples recorded after it started).
//
// Buckets are logarithmic with ratio 2^(1/4) (four buckets per octave)
// spanning 1 µs .. ~17.9 min, values in milliseconds; one histogram costs
// 122 * 8 bytes of atomics.  Percentiles interpolate linearly within the
// bucket and are clamped to the observed maximum, so p50/p90/p99 are exact
// to within one bucket's width (±~19%) and pMax is exact.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace elpc::util {

/// Sorted key/value label set attached to one child of a metric family.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.  add() is a relaxed atomic add.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value, set at collect time (see MetricsRegistry::on_collect).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-scale latency histogram (values in milliseconds).
class Histogram {
 public:
  // Bucket 0 covers (0, 1µs]; buckets 1..120 have upper bounds
  // 1µs * 2^(i/4); bucket 121 is the +Inf overflow.
  static constexpr std::size_t kBucketCount = 122;
  static constexpr std::size_t kFiniteBuckets = kBucketCount - 1;

  /// Upper bound of bucket `i` in milliseconds (+Inf for the last).
  [[nodiscard]] static double bucket_upper_ms(std::size_t i);
  /// Index of the bucket whose (lower, upper] range contains `ms`.
  [[nodiscard]] static std::size_t bucket_index(double ms);

  /// Records one sample.  Lock-free; negative/NaN samples clamp to 0.
  void record(double ms);

  struct Snapshot {
    std::uint64_t buckets[kBucketCount] = {};
    std::uint64_t count = 0;
    double sum_ms = 0.0;
    double max_ms = 0.0;

    /// Quantile in [0, 1] via linear interpolation inside the bucket,
    /// clamped to [0, max_ms].  Returns 0 for an empty snapshot.
    [[nodiscard]] double percentile(double q) const;

    /// Accumulates another shard's snapshot into this one.
    void merge(const Snapshot& other);
  };

  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<double> sum_ms_{0.0};
  std::atomic<double> max_ms_{0.0};
};

/// Registry of metric families.  Each family has one Prometheus type and
/// one child per label set; lookups are mutexed, the returned references
/// stay valid for the registry's lifetime.  Instantiable so tests and
/// embedded engines stay isolated; the daemon owns exactly one.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create.  Throws std::invalid_argument if `name` is already
  /// registered as a different metric type.
  Counter& counter(const std::string& name, const std::string& help,
                   const MetricLabels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const MetricLabels& labels = {});
  /// `expose_as_counter` renders the family with Prometheus type
  /// "counter": for values that are cumulative at the source but only
  /// sampled here at collect time (e.g. checkpoint evictions).
  Gauge& gauge(const std::string& name, const std::string& help,
               const MetricLabels& labels = {},
               bool expose_as_counter = false);

  /// Registers a callback run before every exposition (prometheus_text /
  /// json_snapshot) to refresh gauges from live component state.
  /// Callbacks run without the registry mutex held and may themselves
  /// resolve metrics.
  void on_collect(std::function<void()> collector);

  /// Prometheus text exposition format, version 0.0.4: `# HELP`/`# TYPE`
  /// per family, cumulative `_bucket{le=...}` + `_sum` + `_count` per
  /// histogram child, families and children in sorted order.
  [[nodiscard]] std::string prometheus_text();

  /// Compact JSON view: counter/gauge values plus per-histogram-family
  /// (and per-child) count/sum/max/p50/p90/p99 — no bucket arrays.  This
  /// is what the `stats` verb embeds and `elpc client top` diffs.
  [[nodiscard]] Json json_snapshot();

 private:
  struct Family {
    std::string help;
    std::string type;  // "counter", "gauge", "histogram"
    bool gauge_as_counter = false;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, MetricLabels> labels;  // child key -> labels
  };

  Family& family(const std::string& name, const std::string& help,
                 const std::string& type);
  void run_collectors();

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
  std::vector<std::function<void()>> collectors_;
  std::mutex collect_mutex_;
};

/// `k1="v1",k2="v2"` with label values escaped per the Prometheus text
/// format (sorted by key; empty for an empty label set).
[[nodiscard]] std::string format_labels(const MetricLabels& labels);

}  // namespace elpc::util
