#pragma once
// FrameRateArena — flat, reusable storage for the rolling-column
// frame-rate DP (see src/core/README.md for the architecture).
//
// The DP keeps two label columns (previous / current) instead of the full
// n x k table: column j only ever reads column j-1.  Each cell (column,
// node) holds up to `beam` labels.  Label fields are stored
// structure-of-arrays — one double array per field, indexed by
// (node * beam + slot) — so the row kernels (src/core/kernels/) can load
// a predecessor's slots as contiguous vectors; the AoS Label struct of
// the original arena would force per-lane gathers in the hot loop.
// A label's visited-node set lives in the pooled word buffer at a fixed
// per-(node, slot) offset, words_per_set() words per slot (1 word for
// networks up to 64 nodes — the common case, where copy-on-extend is a
// single word move).  Parent links needed for path reconstruction are
// stored separately as compact 8-byte records for *all* columns, so
// rolling the label columns loses nothing.
//
// All buffers are sized once in setup() and indexed thereafter: extending
// a label is pure pointer arithmetic, never an allocation.  setup()
// counts buffer growths, so tests can assert that a reused arena (or a
// second setup at the same dimensions) performs zero heap allocations —
// the steady-state guarantee the DP relies on.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/fault_injector.hpp"

namespace elpc::core {

class FrameRateArena {
 public:
  /// Reconstruction record for the label at (column, node, slot): the
  /// predecessor node and the slot within its cell one column earlier.
  struct ParentRec {
    std::uint32_t node = 0;
    std::uint32_t slot = 0;
  };

  /// Candidate scratch used during per-cell top-beam selection; one
  /// beam-sized row per parallel chunk.
  struct Candidate {
    double bottleneck = 0.0;
    double sum = 0.0;
    std::uint32_t node = 0;
    std::uint32_t slot = 0;
  };

  /// One label column's SoA fields: slot (node, s) at node * beam + s,
  /// visited words in word-major planes word_plane_stride() apart.  The
  /// DP reads and writes columns through this view, so a column can live
  /// in the rolling arena or in an IncrementalCheckpoint (same layout).
  struct Column {
    double* bottleneck = nullptr;
    double* sum = nullptr;
    std::uint32_t* counts = nullptr;
    std::uint64_t* words = nullptr;
  };

  /// Trailing slots kept readable past the last cell in the label and
  /// word columns, so the row kernels can issue full-width vector loads
  /// at any row start without bounds branches (dead lanes are masked
  /// out, never used).  Matches the widest kernel's lane count.
  static constexpr std::size_t kVectorPad = 8;

  /// Sizes every buffer for `columns` DP columns over `node_count` nodes
  /// with `beam` labels per cell and `chunks` parallel workers.  This is
  /// the only place the arena allocates; reusing an arena whose capacity
  /// already covers the requested dimensions allocates nothing.
  void setup(std::size_t node_count, std::size_t beam, std::size_t columns,
             std::size_t chunks) {
    // Fault point "arena_alloc": the survivability harness simulates the
    // allocator failing right where the DP sizes its buffers; the solve
    // fails like any other exception, the daemon must not.
    if (util::FaultInjector::instance().enabled() &&
        util::FaultInjector::instance().should_fire("arena_alloc")) {
      throw std::bad_alloc();
    }
    node_count_ = node_count;
    beam_ = beam;
    words_per_set_ = std::max<std::size_t>(1, (node_count + 63) / 64);
    const std::size_t cells = node_count * beam;
    plane_stride_ = cells + kVectorPad;
    for (int p = 0; p < 2; ++p) {
      reserve_exact(bottleneck_[p], cells + kVectorPad);
      reserve_exact(sum_[p], cells + kVectorPad);
      reserve_exact(counts_[p], node_count);
      reserve_exact(words_[p], words_per_set_ * plane_stride_);
    }
    reserve_exact(parents_, columns * cells);
    reserve_exact(scratch_, chunks * beam);
  }

  /// Words per visited set; always >= 1 (ceil(node_count / 64)).
  [[nodiscard]] std::size_t words_per_set() const noexcept {
    return words_per_set_;
  }
  [[nodiscard]] std::size_t beam() const noexcept { return beam_; }

  /// Rolling-column SoA accessors; `parity` alternates 0/1 per column.
  /// Field of the label at (node, slot) lives at index node * beam + slot.
  [[nodiscard]] double* bottleneck(int parity) noexcept {
    return bottleneck_[parity].data();
  }
  [[nodiscard]] double* sum(int parity) noexcept {
    return sum_[parity].data();
  }
  [[nodiscard]] std::uint32_t* counts(int parity) noexcept {
    return counts_[parity].data();
  }
  /// Visited-set words, stored WORD-MAJOR: plane w (one of
  /// words_per_set()) holds word w of every slot's set, contiguously by
  /// slot index (node * beam + s).  A cell update tests one fixed word
  /// index across every row it scans, so per edge the check reads one
  /// contiguous run of a single plane — the hot-loop working set is one
  /// plane (8 bytes/slot), not the whole set (words_per_set() *
  /// 8 bytes/slot), which is what keeps the k > 64 DP in L1.  Slot
  /// (node, s)'s word w lives at w * word_plane_stride() + node * beam
  /// + s; copying a whole set is words_per_set() strided word moves
  /// (survivor materialization only — far colder than the check).
  [[nodiscard]] std::uint64_t* words(int parity) noexcept {
    return words_[parity].data();
  }
  /// Distance in words between consecutive planes (cells + kVectorPad,
  /// so full-width loads at the last row stay in bounds per plane).
  [[nodiscard]] std::size_t word_plane_stride() const noexcept {
    return plane_stride_;
  }
  /// Rolling column `parity` as a view.
  [[nodiscard]] Column column(int parity) noexcept {
    return {bottleneck(parity), sum(parity), counts(parity), words(parity)};
  }
  [[nodiscard]] ParentRec* parents() noexcept { return parents_.data(); }
  [[nodiscard]] Candidate* scratch(std::size_t chunk) noexcept {
    return scratch_.data() + chunk * beam_;
  }

  /// Zeroes a column's cell counts (labels/words need no clearing: a
  /// cell's contents are dead until its count says otherwise).
  void clear_column(int parity) noexcept {
    std::fill(counts_[parity].begin(), counts_[parity].end(), 0u);
  }

  /// Number of buffer growths across all setup() calls.  Stable between
  /// two observations <=> no arena allocation happened in between.
  [[nodiscard]] std::size_t reallocations() const noexcept {
    return reallocations_;
  }

 private:
  template <typename T>
  void reserve_exact(std::vector<T>& buffer, std::size_t n) {
    if (buffer.capacity() < n) {
      ++reallocations_;
    }
    buffer.resize(n);
  }

  std::size_t node_count_ = 0;
  std::size_t beam_ = 0;
  std::size_t words_per_set_ = 1;
  std::size_t plane_stride_ = 0;
  std::size_t reallocations_ = 0;
  std::vector<double> bottleneck_[2];
  std::vector<double> sum_[2];
  std::vector<std::uint32_t> counts_[2];
  std::vector<std::uint64_t> words_[2];
  std::vector<ParentRec> parents_;
  std::vector<Candidate> scratch_;
};

}  // namespace elpc::core
