#pragma once
// Frame-rate cell kernels — the innermost loop of the Eq. 5 DP
// (core/elpc.cpp) behind a function-pointer interface: the scalar
// reference (framerate_kernel_scalar.cpp) and one vector template
// (simd_cell.hpp) instantiated per ISA file, each built with its own -m
// flag and exporting only its accessor (all else, the `static` helpers
// below included, has internal linkage); dispatch.cpp holds the table.
//
// One call computes one DP cell's candidate list: it scans the cell's
// in-edge span (CSR order), and for each edge scans the predecessor
// cell's label row (stored SoA by the FrameRateArena) and feeds that
// row's best extendable label through the bounded top-beam insertion.
// The caller materializes the survivors (visited-set copies, parent
// records); the kernel only fills the candidate scratch.
//
// The contract every variant must satisfy BIT-IDENTICALLY (pinned by
// tests/core/kernel_parity_test.cpp and the CI kernel-parity job) is
// the scalar reference in framerate_kernel_scalar.cpp:
//
//   for each edge e in order, with u = e.from and count = counts[u]:
//     skip when count == 0;
//     transport = input_mb / e.attr.bandwidth_mbps, then
//       += e.attr.min_delay_s when include_link_delay — exactly
//       pipeline::CostModel::transport_time's operations in its order;
//     for slot s in [0, count):
//       skip when visited != nullptr and
//         (visited[u * beam + s] & bit) != 0 — `visited` is the one
//         word-major arena plane holding the target node's word (see
//         FrameRateArena::words), so the check is always stride 1;
//       key_s  = max(bottleneck[u * beam + s], transport, comp)
//       sum_s  = (sum[u * beam + s] + transport) + comp   // this order
//     row winner = the surviving slot with the lexicographically
//       smallest (key_s, sum_s) when sum_tiebreak, else the smallest
//       key_s; the LOWEST slot on an exact key tie;
//     insert the row winner into the candidate array via
//       insert_candidate below (bounded, sorted best-first).
//
// The addition order matters — (sum + transport) + comp and
// sum + (transport + comp) round differently, and the parity guarantee
// is bitwise.  Inputs are finite (costs are ratios of positive finite
// quantities); NaN behaviour is unspecified.  A vector variant MAY skip
// computing a row or chunk whose every surviving key is strictly worse
// than the current worst kept candidate once the candidate array is
// full — the insertion would provably reject it — but must not skip on
// an exact tie (ties go through the sum comparison).
//
// Over-read allowance: to keep the vector paths free of bounds branches
// and masked loads, the label arrays (`bottleneck`, `sum`) and the
// visited words must stay READABLE — values ignored — for 8 entries
// past any row start.  The FrameRateArena guarantees this via its
// kVectorPad tail; ad-hoc callers (tests) must pad the same way.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/framerate_arena.hpp"
#include "graph/network.hpp"

namespace elpc::core::kernels {

/// Everything one cell update reads.  Label/word pointers are the FULL
/// previous-column arrays (rows are indexed by edge source inside the
/// kernel), not row starts.
struct CellInputs {
  /// The cell's in-edges, scanned in this (CSR) order.
  const graph::Edge* edges = nullptr;
  std::size_t edge_count = 0;
  /// Previous label column, SoA (see FrameRateArena).
  const double* bottleneck = nullptr;
  const double* sum = nullptr;
  const std::uint32_t* counts = nullptr;
  /// The word-major visited plane holding the target node's word, one
  /// word per label slot; nullptr disables the check (ablation).
  const std::uint64_t* visited = nullptr;
  /// Label slots per cell (row stride).
  std::size_t beam = 1;
  /// The target node's bit within its visited word.
  std::uint64_t bit = 1;
  /// Module input size (megabits) and the cell's computing time.
  double input_mb = 0.0;
  double comp = 0.0;
  /// Transport convention (CostOptions::include_link_delay).
  bool include_link_delay = false;
  /// Secondary selection criterion (ElpcOptions::framerate_sum_tiebreak).
  bool sum_tiebreak = false;
};

/// Ordering criterion shared by every variant: bottleneck first, then
/// (optionally) the sum.  Strict — equal keys keep the incumbent.
/// `static`, like insert_candidate: each kernel TU keeps its own copy
/// built with its -m flags, so the scalar path never runs an ISA TU's.
static inline bool candidate_before(double bn_a, double sum_a, double bn_b,
                                    double sum_b, bool sum_tiebreak) {
  if (bn_a != bn_b) {
    return bn_a < bn_b;
  }
  return sum_tiebreak && sum_a < sum_b;
}

/// Bounded insertion keeping cand[0..kept) sorted best-first; the
/// single definition all variants share, so insertion order cannot
/// diverge between them.  Returns the new kept count.
static inline std::size_t insert_candidate(
    FrameRateArena::Candidate* cand, std::size_t kept, std::size_t beam,
    double bn, double sum, std::uint32_t node, std::uint32_t slot,
    bool sum_tiebreak) {
  std::size_t pos;
  if (kept < beam) {
    pos = kept++;
  } else if (candidate_before(bn, sum, cand[beam - 1].bottleneck,
                              cand[beam - 1].sum, sum_tiebreak)) {
    pos = beam - 1;
  } else {
    return kept;
  }
  while (pos > 0 && candidate_before(bn, sum, cand[pos - 1].bottleneck,
                                     cand[pos - 1].sum, sum_tiebreak)) {
    cand[pos] = cand[pos - 1];
    --pos;
  }
  cand[pos] = FrameRateArena::Candidate{bn, sum, node, slot};
  return kept;
}

/// Computes one cell: fills `cand` (at least `beam` entries of scratch)
/// and returns how many candidates were kept.
using CellKernelFn = std::size_t (*)(const CellInputs& in,
                                     FrameRateArena::Candidate* cand);

/// Kernel selector, threaded from ElpcOptions through the service layer.
enum class Kind {
  kAuto = 0,  ///< ELPC_FORCE_KERNEL env override, else widest supported
  kScalar,
  kAvx2,
  kAvx512,
};

/// Number of Kind values (kAuto included).  Anything sized by kernel —
/// per-kernel job counters, the dispatch table — static_asserts against
/// this, so adding a variant fails to compile instead of overflowing.
inline constexpr std::size_t kKindCount = 4;

/// Portable reference implementation; always available.
[[nodiscard]] CellKernelFn scalar_cell_kernel();
/// Vector variants; nullptr when the build compiled them out (ELPC_SIMD
/// off, non-x86 target, or a toolchain without the -m flag).
[[nodiscard]] CellKernelFn avx2_cell_kernel();
[[nodiscard]] CellKernelFn avx512_cell_kernel();

/// Wire/display name ("auto", "scalar", "avx2", "avx512").
[[nodiscard]] const char* kind_name(Kind kind);
/// Inverse of kind_name; throws std::invalid_argument on unknown names.
[[nodiscard]] Kind kind_from_name(const std::string& name);

/// Kernels this process can actually run: compiled in AND supported by
/// the CPU (util::CpuFeatures).  Always contains kScalar; ordered
/// narrowest to widest.
[[nodiscard]] std::vector<Kind> available_kernels();

/// Maps a requested kind to a runnable one.  kAuto honours the
/// ELPC_FORCE_KERNEL environment variable (read once per process) and
/// otherwise picks the widest available kernel.  Forcing a kernel this
/// process cannot run — by name or by env — throws std::runtime_error
/// rather than silently falling back: the force knob exists so parity
/// and benchmark runs can trust which code actually executed.
[[nodiscard]] Kind resolve_kernel(Kind requested);

/// True when ELPC_FORCE_KERNEL decided what kAuto resolves to.  Callers
/// with size heuristics (the DP downshifts tiny auto solves to scalar,
/// where the vector kernels' per-cell setup outweighs their lane win)
/// must leave an explicit env force untouched.
[[nodiscard]] bool auto_kernel_env_forced();

/// Function pointer for a *resolved* kind (never kAuto; throws
/// std::runtime_error when the variant is unavailable).
[[nodiscard]] CellKernelFn kernel_fn(Kind resolved);

}  // namespace elpc::core::kernels
