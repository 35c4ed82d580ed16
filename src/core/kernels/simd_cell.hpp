#pragma once
// The vector cell kernel, written once over lane traits L: kWidth; Vec
// (doubles), Mask (lane predicate with & and |), Word (u64s); splat,
// load, max, add, less, equal, unvisited (lane bits), valid (bits ->
// Mask), blend(m, a, b) (b where m), any, lane0, swap<k> (lanes 2^k
// apart).  Only ISA files include this, with traits in an anonymous
// namespace (internal linkage).  Design notes: src/core/README.md.

#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/kernels/framerate_kernel.hpp"

namespace elpc::core::kernels {

/// Lane l holds l; the tournament carries it to name the winning slot.
alignas(64) constexpr double kLaneIndex[8] = {0, 1, 2, 3, 4, 5, 6, 7};

/// candidate_before per lane; `tb` is all-set iff the sum tiebreak is on.
template <class L, class V = typename L::Vec, class M = typename L::Mask>
M lane_before(V bn_a, V sm_a, V bn_b, V sm_b, M tb) {
  return static_cast<M>(L::less(bn_a, bn_b) |
                        (L::equal(bn_a, bn_b) & tb & L::less(sm_a, sm_b)));
}

/// log2(kWidth) blend steps collapsing a chunk into lane 0, each keeping
/// the lower slot unless the higher is strictly better (as the scan).
template <class L, int kStep = 0, class V = typename L::Vec>
void tournament(V& bn, V& sm, V& idx, typename L::Mask tb) {
  if constexpr ((std::size_t{1} << kStep) < L::kWidth) {
    const V bn_hi = L::template swap<kStep>(bn);
    const V sm_hi = L::template swap<kStep>(sm);
    const auto take = lane_before<L>(bn_hi, sm_hi, bn, sm, tb);
    bn = L::blend(take, bn, bn_hi);
    sm = L::blend(take, sm, sm_hi);
    idx = L::blend(take, idx, L::template swap<kStep>(idx));
    tournament<L, kStep + 1>(bn, sm, idx, tb);
  }
}

template <class L>
std::size_t simd_cell(const CellInputs& in,
                      FrameRateArena::Candidate* cand) {
  using Vec = typename L::Vec;
  constexpr std::size_t kWidth = L::kWidth;
  constexpr unsigned kAllLanes = (1u << kWidth) - 1u;
  const std::size_t beam = in.beam;
  const Vec vcomp = L::splat(in.comp);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Vec vinf = L::splat(kInf);  // constexpr: no call emitted at -O0
  const typename L::Word vbit = L::splat(in.bit);
  const typename L::Mask tb = L::valid(in.sum_tiebreak ? kAllLanes : 0u);

  std::size_t kept = 0;
  // The worst kept candidate, splatted; meaningful once kept == beam.
  Vec vworst_bn = L::splat(0.0);
  Vec vworst_sum = L::splat(0.0);
  for (std::size_t i = 0; i < in.edge_count; ++i) {
    const graph::Edge& e = in.edges[i];
    const graph::NodeId u = e.from;
    const std::uint32_t count = in.counts[u];
    if (count == 0) {
      continue;
    }
    double transport = in.input_mb / e.attr.bandwidth_mbps;
    if (in.include_link_delay) {
      transport += e.attr.min_delay_s;
    }
    const Vec vt = L::splat(transport);
    const std::size_t row = u * beam;

    double row_bn = 0.0;
    double row_sum = 0.0;
    std::int32_t row_slot = -1;
    for (std::size_t base = 0; base < count; base += kWidth) {
      unsigned b = count - base < kWidth ? (1u << (count - base)) - 1u
                                         : kAllLanes;
      if (in.visited != nullptr) {
        b &= L::unvisited(in.visited + row + base, vbit);
      }
      if (b == 0) {
        continue;
      }
      const Vec bn_in = L::load(in.bottleneck + row + base);
      const Vec sum_in = L::load(in.sum + row + base);
      // Dead lanes are +inf: valid keys are finite, so they never win.
      Vec bn = L::blend(L::valid(b), vinf, L::max(L::max(bn_in, vt), vcomp));
      Vec sm = L::blend(L::valid(b), vinf, L::add(L::add(sum_in, vt), vcomp));
      // Fast reject: no lane beats the worst kept candidate under the
      // full (key, sum) criterion, so insert_candidate would reject all.
      if (kept == beam &&
          !L::any(lane_before<L>(bn, sm, vworst_bn, vworst_sum, tb))) {
        continue;
      }
      Vec idx = L::load(kLaneIndex);
      tournament<L>(bn, sm, idx, tb);
      const double cbn = L::lane0(bn);
      const double csm = L::lane0(sm);
      if (row_slot < 0 ||
          candidate_before(cbn, csm, row_bn, row_sum, in.sum_tiebreak)) {
        row_bn = cbn;
        row_sum = csm;
        row_slot = static_cast<std::int32_t>(
            base + static_cast<std::size_t>(L::lane0(idx)));
      }
    }
    if (row_slot < 0) {
      continue;
    }
    kept = insert_candidate(cand, kept, beam, row_bn, row_sum,
                            static_cast<std::uint32_t>(u),
                            static_cast<std::uint32_t>(row_slot),
                            in.sum_tiebreak);
    if (kept == beam) {
      vworst_bn = L::splat(cand[beam - 1].bottleneck);
      vworst_sum = L::splat(cand[beam - 1].sum);
    }
  }
  return kept;
}

}  // namespace elpc::core::kernels
