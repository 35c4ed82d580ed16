#pragma once
// IncrementalCheckpoint — retained per-column state of one frame-rate DP
// solve, enabling delta-driven column-reuse re-solves (see
// src/core/README.md, "Incremental re-solve").
//
// A full max_frame_rate solve with ElpcOptions::checkpoint set copies
// every label column out of the rolling arena as it is produced — label
// fields, per-cell counts, visited-word planes — plus the complete
// parent table.  A later solve against a network that differs from the
// captured one by a known list of metric deltas (ElpcOptions::delta)
// then replays checkpointed columns verbatim and re-runs the cell
// kernels only on the cells the deltas can actually reach: the updated
// links' target nodes in every column, plus the out-neighbours of any
// cell whose recomputed state differs from the checkpoint (an exact
// live-slot comparison that stops at the first difference).  Cells
// outside that frontier provably see bit-identical inputs, so skipping
// them is bit-exact — the incremental result equals a from-scratch
// solve byte for byte (pinned by tests/core/incremental_test.cpp and the
// CI incremental-parity job).
//
// Storage is tight (no vector padding): column j's label slot
// (node, s) lives at j * cells + node * beam + s where
// cells = nodes * beam; visited words are plane-major per column (word w
// of every slot, then word w+1).  Only the rolling arena, which the
// kernels actually read, carries the kVectorPad over-read tail.
// Column 0 is the fixed source initialization and is never read back,
// so its slots stay unwritten.
//
// The checkpoint is a plain value object with no locking: the service
// layer (each service::NetworkSession subscription owns one) serializes
// solves against one checkpoint and charges approx_bytes() to the
// session's checkpoint budget.  valid() is false while a solve is
// mutating the state, so an exception mid-update degrades to a full
// re-solve, never to a torn replay.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/framerate_arena.hpp"
#include "graph/network.hpp"

namespace elpc::core {

/// Outcome of one solve's incremental handling, for serving-layer
/// counters (ElpcOptions::incremental_stats).
struct IncrementalStats {
  /// A checkpoint pointer was supplied to the solve.
  bool attempted = false;
  /// The solve took the column-reuse path (else it ran — and, when a
  /// checkpoint was supplied, recaptured — the full DP).
  bool incremental = false;
  /// Why the reuse path was not taken (static string; nullptr when
  /// incremental or not attempted).
  const char* fallback = nullptr;
  /// DP columns in this solve, and how many of them came through
  /// unchanged from the checkpoint — any dirty cells the frontier did
  /// re-run reproduced the checkpointed state exactly, so nothing
  /// propagated.  cells_recomputed below is the kernel-work metric.
  std::size_t columns_total = 0;
  std::size_t columns_reused = 0;
  /// Cells re-run through the cell kernel vs. the full solve's n * k.
  std::size_t cells_recomputed = 0;
  std::size_t cells_total = 0;
};

class IncrementalCheckpoint {
 public:
  using ParentRec = FrameRateArena::ParentRec;

  /// Everything the DP's non-link inputs contribute: a checkpoint is
  /// reusable only for a solve whose fingerprint matches exactly.
  /// problem_hash folds in the per-module input sizes and per-(module,
  /// node) computing times, so a re-submitted job with a different
  /// pipeline (or a network whose node powers changed) can never replay
  /// stale columns.
  struct Fingerprint {
    std::size_t modules = 0;
    std::size_t nodes = 0;
    std::size_t beam = 0;
    std::size_t words = 0;
    graph::NodeId source = graph::kInvalidNode;
    graph::NodeId destination = graph::kInvalidNode;
    bool visited_check = true;
    bool sum_tiebreak = true;
    bool include_link_delay = false;
    std::uint64_t problem_hash = 0;

    bool operator==(const Fingerprint&) const = default;
  };

  /// True when the stored columns are a complete, consistent capture.
  [[nodiscard]] bool valid() const noexcept { return valid_; }
  /// Marks the state torn (called before any mutation; a solve that
  /// throws mid-update leaves the checkpoint unusable, not wrong).
  void invalidate() noexcept { valid_ = false; }
  /// Marks the state consistent again (end of capture / write-back).
  void set_valid() noexcept { valid_ = true; }

  [[nodiscard]] bool matches(const Fingerprint& fp) const noexcept {
    return fp_ == fp;
  }
  [[nodiscard]] const Fingerprint& fingerprint() const noexcept {
    return fp_;
  }

  /// graph::Network::version() of the network the columns were computed
  /// against; a delta list is applicable iff the current network's
  /// version equals this plus the list's length.
  [[nodiscard]] std::uint64_t network_version() const noexcept {
    return network_version_;
  }
  void set_network_version(std::uint64_t version) noexcept {
    network_version_ = version;
  }

  /// Sizes every buffer for `fp`'s dimensions and invalidates the
  /// contents.  The only allocation site; re-capturing at covered
  /// dimensions allocates nothing.
  void setup(const Fingerprint& fp) {
    invalidate();
    fp_ = fp;
    cells_ = fp.nodes * fp.beam;
    const std::size_t columns = fp.modules;
    bottleneck_.resize(columns * cells_);
    sum_.resize(columns * cells_);
    counts_.resize(columns * fp.nodes);
    words_.resize(columns * fp.words * cells_);
    parents_.resize(columns * cells_);
  }

  /// Label slots per column (nodes * beam).
  [[nodiscard]] std::size_t cells() const noexcept { return cells_; }

  // Column accessors; slot (node, s) of column j is at node * beam + s
  // within the returned pointer.  Words are plane-major within the
  // column: word w of slot c at w * cells() + c.
  [[nodiscard]] double* bottleneck_col(std::size_t j) noexcept {
    return bottleneck_.data() + j * cells_;
  }
  [[nodiscard]] double* sum_col(std::size_t j) noexcept {
    return sum_.data() + j * cells_;
  }
  [[nodiscard]] std::uint32_t* counts_col(std::size_t j) noexcept {
    return counts_.data() + j * fp_.nodes;
  }
  [[nodiscard]] std::uint64_t* words_col(std::size_t j) noexcept {
    return words_.data() + j * fp_.words * cells_;
  }
  /// Full parent table, indexed exactly like FrameRateArena::parents():
  /// (j * nodes + node) * beam + slot.
  [[nodiscard]] ParentRec* parents() noexcept { return parents_.data(); }

  /// Heap footprint in bytes (capacities, matching what the allocator
  /// holds) — what the session checkpoint budget charges for it.
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return bottleneck_.capacity() * sizeof(double) +
           sum_.capacity() * sizeof(double) +
           counts_.capacity() * sizeof(std::uint32_t) +
           words_.capacity() * sizeof(std::uint64_t) +
           parents_.capacity() * sizeof(ParentRec) + sizeof(*this);
  }

 private:
  Fingerprint fp_;
  std::uint64_t network_version_ = 0;
  bool valid_ = false;
  std::size_t cells_ = 0;
  std::vector<double> bottleneck_;
  std::vector<double> sum_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> words_;
  std::vector<ParentRec> parents_;
};

/// 64-bit accumulator behind the Fingerprint's problem_hash.
inline std::uint64_t incremental_mix(std::uint64_t h,
                                     std::uint64_t v) noexcept {
  h ^= v;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return h;
}

}  // namespace elpc::core
