#pragma once
// ELPC — Efficient Linear Pipeline Configuration (paper Section 3.1).
//
// Two dynamic programs over the 2-D table T^j(v_i) of Fig. 1 ("the first
// j modules mapped to a path from the source to node v_i"):
//
//  * min_delay (Section 3.1.1): provably OPTIMAL, polynomial.  Each cell
//    is the minimum of sub-case (i) — run module j on the same node as
//    module j-1 (node reuse / grouping; no transport cost) — and
//    sub-case (ii) — pull module j-1's result over an incoming link from
//    a neighbour's cell in the previous column.  Complexity
//    O(n * (|V| + |E|)) for n modules.
//
//  * max_frame_rate (Section 3.1.2): the exact problem (exact-n-hop
//    widest path) is NP-complete, so this is the paper's HEURISTIC: the
//    same column sweep, minimizing the path bottleneck
//    max(T^{j-1}(u), transport, computing) instead of the sum, with a
//    per-cell visited-node set enforcing the no-reuse constraint.  It
//    can miss the optimum when every neighbour of a node has already
//    consumed it ("extremely rare" per the paper; quantified by the E7
//    optimality-gap bench).

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "mapping/mapper.hpp"

namespace elpc::core {

class FrameRateArena;

/// Why a cooperative abort probe wants a running solve stopped.
enum class SolveAbort { kNone = 0, kCancelled, kTimedOut };

/// Polled once per DP column by both ELPC objectives (see
/// ElpcOptions::abort_probe).  Must be cheap and thread-safe: the probe
/// runs on whichever shard thread hosts the solve, many times per solve.
using AbortProbe = std::function<SolveAbort()>;

/// Thrown out of the DP when the abort probe reports a reason.  Column
/// granularity bounds the latency: a deadline or cancellation stops a
/// runaway solve within one column's work, not at the next job boundary.
/// Any checkpoint being (re)captured is left invalidated, so the next
/// re-solve recaptures cleanly.
class SolveAborted : public std::runtime_error {
 public:
  SolveAborted(SolveAbort reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  [[nodiscard]] SolveAbort reason() const noexcept { return reason_; }

 private:
  SolveAbort reason_;
};

/// Tuning knobs for the ELPC mapper (defaults reproduce the paper).
struct ElpcOptions {
  /// When true, the frame-rate DP skips candidate predecessors whose
  /// partial path already contains the target node.  Turning this off
  /// (ablation) lets the DP pick node-repeating paths, which the strict
  /// evaluator then rejects — isolating the value of the visited-set
  /// bookkeeping.
  bool framerate_visited_check = true;
  /// Secondary criterion for the frame-rate DP.  Bottleneck values tie
  /// constantly (a heavy shared prefix term dominates many partial
  /// paths), and on a tie the paper's recursion leaves the predecessor —
  /// and therefore the visited set that constrains the rest of the
  /// search — arbitrary.  With this on, ties are broken towards the
  /// partial path with the smaller *sum* of cost terms
  /// ("widest-shortest"), which keeps more capable nodes unconsumed.
  /// Off reproduces the bare Eq. 5 recursion (ablation A5).
  bool framerate_sum_tiebreak = true;
  /// Number of candidate partial paths kept per DP cell.  The paper's
  /// recursion keeps exactly one (width 1), which it concedes can "miss
  /// an optimal solution ... when a node has been selected by all its
  /// neighbor nodes at previous optimization steps": the lone survivor's
  /// visited set can block every good completion.  A small beam keeps a
  /// few diverse-predecessor candidates per cell and removes nearly all
  /// such misses at a proportional cost in time and memory (ablation A5
  /// sweeps the width).
  std::size_t framerate_beam_width = 4;
  /// Post-pass on the DP's path: repeatedly try to swap one interior
  /// path node for an unused node (links permitting) when that lowers
  /// the bottleneck.  Directly attacks the residual left-to-right
  /// blindness of the column sweep: the DP commits to nodes before it
  /// knows which ones the suffix will need.  O(rounds * n * k); off
  /// reproduces the bare published heuristic (ablation A5).
  bool framerate_local_search = true;
  /// Spread each DP column's node sweep (both objectives) over the shared
  /// worker pool on large instances.  Columns have a strict j -> j+1
  /// dependency, but the cells within one column are independent and
  /// write disjoint slots, so the result is bit-identical to the serial
  /// sweep.  Off forces the serial sweep (useful when the caller already
  /// saturates the machine with concurrent mapper runs).
  bool parallel_sweep = true;
  /// Which cell kernel the frame-rate DP's sweep runs (see
  /// src/core/kernels/framerate_kernel.hpp).  kAuto = the
  /// ELPC_FORCE_KERNEL environment variable when set, else the widest
  /// kernel this build + CPU supports — except that a plain auto (no
  /// env force) downshifts tiny instances to scalar, where the vector
  /// kernels' per-cell setup outweighs their lane win.  Every kernel is
  /// bit-identical by contract (CI proves it), so this knob only
  /// affects speed — it exists for parity tests, benchmarks, and
  /// forcing portability.
  kernels::Kind framerate_kernel = kernels::Kind::kAuto;
  /// Externally-owned DP arena for the frame-rate solve (see
  /// core::ArenaPool).  Null uses a thread-local arena — right for
  /// ad-hoc callers, wrong for a serving layer whose long-lived shared
  /// worker threads would pin one arena per engine per thread.  The
  /// arena must be used by one solve at a time; it never affects
  /// results, only where the DP's scratch memory lives.
  FrameRateArena* arena = nullptr;
  /// Incremental re-solve state (see core/incremental.hpp).  When set,
  /// max_frame_rate reuses the checkpoint for a column-reuse re-solve if
  /// it is valid for this exact problem and `delta` below applies, and
  /// otherwise runs the full DP and (re)captures the checkpoint from it.
  /// Either way the returned result is bit-identical to a plain full
  /// solve.  The checkpoint must be used by one solve at a time.
  IncrementalCheckpoint* checkpoint = nullptr;
  /// The exact link updates applied to the network since `checkpoint`
  /// was captured, in order (graph::Network::version() must equal the
  /// checkpoint's recorded version plus the list length).  nullptr means
  /// "unknown" and forces the full-solve path; an EMPTY list is valid
  /// and replays every column.  Ignored without `checkpoint`.
  const std::vector<graph::LinkUpdate>* delta = nullptr;
  /// When non-null, filled with this solve's incremental outcome
  /// (hit/fallback reason, columns replayed, cells recomputed).
  IncrementalStats* incremental_stats = nullptr;
  /// Cooperative cancellation/deadline hook: checked once per DP column
  /// in both objectives; a non-kNone answer throws SolveAborted carrying
  /// the reason.  Null (the default) never aborts.  The serving layer
  /// wires this to the job's cancel flag + deadline (see
  /// service::MapperContext::abort); it never affects the values a
  /// completed solve returns.
  AbortProbe abort_probe = nullptr;
};

/// The paper's algorithm pair behind the common Mapper interface.
class ElpcMapper final : public mapping::Mapper {
 public:
  ElpcMapper() = default;
  explicit ElpcMapper(ElpcOptions options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "ELPC"; }

  /// Optimal minimum end-to-end delay with node reuse (Eq. 3 recursion).
  [[nodiscard]] mapping::MapResult min_delay(
      const mapping::Problem& problem) const override;

  /// Heuristic maximum frame rate without node reuse (Eq. 5 recursion).
  [[nodiscard]] mapping::MapResult max_frame_rate(
      const mapping::Problem& problem) const override;

 private:
  ElpcOptions options_;
};

}  // namespace elpc::core
