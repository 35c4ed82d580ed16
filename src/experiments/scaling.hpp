#pragma once
// E6: algorithm runtime scaling.
//
// The paper reports (Section 4.3) execution times "from milliseconds for
// small-scale problems to seconds for large-scale ones" and quotes
// complexities O(n*|E|) for ELPC, O(m*n^2) for Streamline, O(m*n) for
// Greedy.  This study measures wall-clock runtime over a size sweep so
// the bench can print the scaling table (google-benchmark covers the
// fine-grained timing).

#include <cstdint>
#include <string>
#include <vector>

namespace elpc::experiments {

struct ScalingPoint {
  std::size_t modules = 0;
  std::size_t nodes = 0;
  std::size_t links = 0;
  /// Mean wall-clock per algorithm over `repeats` runs, milliseconds;
  /// index-aligned with scaling_algorithm_names().  Per objective; sum
  /// the two for a combined figure.  These feed the machine-readable
  /// BENCH_runtime_scaling.json perf trajectory.
  std::vector<double> min_delay_ms;
  std::vector<double> max_frame_rate_ms;
  /// Delta-driven re-solve dimension: median milliseconds, over
  /// `resolve_repeats` flips each timed on its own, to apply a
  /// single-link bandwidth delta and re-solve the ELPC frame-rate
  /// problem — once
  /// recomputing from scratch, once reusing the retained column
  /// checkpoint (core/incremental.hpp).  Same answers by contract; the
  /// ratio is the incremental speedup the nightly perf run tracks.
  double elpc_resolve_full_ms = 0.0;
  double elpc_resolve_incremental_ms = 0.0;
};

struct ScalingConfig {
  /// (modules, nodes) sweep; links = density * n * (n-1).
  std::vector<std::pair<std::size_t, std::size_t>> sizes = {
      {5, 10}, {10, 25}, {15, 50}, {20, 100}, {30, 200}, {40, 400}};
  double density = 0.6;
  std::size_t repeats = 3;
  /// Timed single-link re-solves per variant of the re-solve dimension
  /// (the row reports their median).
  std::size_t resolve_repeats = 5;
  std::uint64_t seed = 11;
};

[[nodiscard]] std::vector<std::string> scaling_algorithm_names();

/// Runs both objectives per algorithm per size; runtime is the sum.
[[nodiscard]] std::vector<ScalingPoint> run_scaling_study(
    const ScalingConfig& config);

}  // namespace elpc::experiments
