#pragma once
// IncrementalCheckpoint — retained per-column state of one frame-rate DP
// solve, enabling delta-driven column-reuse re-solves (see
// src/core/README.md, "Incremental re-solve").
//
// A full max_frame_rate solve with ElpcOptions::checkpoint set writes
// every label column — label fields, per-cell counts, visited-word
// planes — and the complete parent table straight into the checkpoint
// instead of the rolling arena.  A later solve against a network that
// differs from the captured one by a known list of metric deltas
// (ElpcOptions::delta) replays the checkpoint in place and re-runs the
// cell kernel only on the cells the deltas can actually change.
//
// Reuse frontier.  A cell keeps the stable top-`beam`, by (key, sum), of
// its in-neighbours' best extendable labels in in-row order, so a changed
// input from in-neighbour u (u's column-(j-1) labels moved, or u -> v is
// in the delta) can alter cell (j, v) only when u is the parent node of a
// kept slot, the cell keeps fewer than `beam` survivors, or u's new best
// extendable candidate (the kernel contract's exact operations) ties or
// beats the cell's worst kept one.  Every other cell provably reproduces
// its checkpointed state bit for bit and is never touched; dead and
// endpoint-excluded cells are never dirty.  A column whose dirty cells
// pass half the nodes stops testing and is swept in full by the full
// solve's own column sweep.  Re-run cells go to an arena scratch column
// and are copied back only when their live slots differ (exactly); those
// are the next column's changed inputs, so a change that dies out after
// a wide column returns to the scattered path.  The result equals a
// scratch solve byte for byte (tests/core/incremental_test.cpp).
//
// Storage uses the arena's padded column layout, so the kernels read a
// checkpoint column directly: column j's label slot (node, s) lives at
// j * stride + node * beam + s, where stride = nodes * beam +
// FrameRateArena::kVectorPad, and its visited words are word-major
// planes `stride` apart (word w of slot c at w * stride + c within the
// column).  Column 0 holds the fixed source initialization.
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
  /// Live cells the exact frontier test examined (each at most once per
  /// column), the live cells re-run through the cell kernel, and the
  /// re-run ones whose state differed from the checkpoint.  A wide column
  /// stops testing at the switch and re-runs all its live cells, so there
  /// cells_recomputed can exceed cells_tested.  Deterministic for a given
  /// checkpoint and delta, whatever the kernel.
  std::size_t cells_tested = 0;
  std::size_t cells_recomputed = 0;
  std::size_t cells_changed = 0;
  /// The full solve's n * k cells.
  std::size_t cells_total = 0;
};

class IncrementalCheckpoint {
 public:
  using Column = FrameRateArena::Column;
  using ParentRec = FrameRateArena::ParentRec;

  /// Everything the DP's non-link inputs contribute: a checkpoint is
  /// reusable only for a solve whose fingerprint matches exactly.
  /// problem_hash folds in the per-module input sizes and work units
  /// and every node's processing power — the operands of each computing
  /// time — so a re-submitted job with a different pipeline (or a
  /// network whose node powers changed) can never replay stale columns.
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
    const std::size_t cells = fp.nodes * fp.beam;
    stride_ = cells + FrameRateArena::kVectorPad;
    const std::size_t columns = fp.modules;
    bottleneck_.resize(columns * stride_);
    sum_.resize(columns * stride_);
    counts_.resize(columns * fp.nodes);
    words_.resize(columns * fp.words * stride_);
    parents_.resize(columns * cells);
  }

  /// Distance between consecutive visited-word planes of one column
  /// (nodes * beam + kVectorPad, equal to the arena's).
  [[nodiscard]] std::size_t word_plane_stride() const noexcept {
    return stride_;
  }

  /// Column j, laid out exactly like a rolling arena column.
  [[nodiscard]] Column column(std::size_t j) noexcept {
    return {bottleneck_.data() + j * stride_, sum_.data() + j * stride_,
            counts_.data() + j * fp_.nodes,
            words_.data() + j * fp_.words * stride_};
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
  std::size_t stride_ = 0;
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
