// Kernel parity — every SIMD cell kernel must be BIT-IDENTICAL to the
// scalar reference (the contract in framerate_kernel.hpp).  Two layers:
//
//  * cell level: randomized cells (label values and link metrics drawn
//    from small discrete sets so exact bottleneck/sum ties are common),
//    randomized visited planes, beams crossing the 4- and 8-lane chunk
//    boundaries, and adversarial edge rows (all-tied, fully visited,
//    single-slot) — the kept count and every candidate's
//    (bottleneck, sum, node, slot) must match bitwise;
//  * solve level: full max_frame_rate runs per kernel on random
//    scenarios spanning the one-word and pooled visited-set layouts —
//    seconds and the mapping must match the scalar solve exactly.
//
// Only kernels available_kernels() reports are exercised, so the suite
// passes (vacuously, beyond scalar) on machines without AVX.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/elpc.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace elpc::core::kernels {
namespace {

std::vector<Kind> simd_kernels() {
  std::vector<Kind> kinds = available_kernels();
  std::erase(kinds, Kind::kScalar);
  return kinds;
}

/// One synthetic DP cell: a previous label column plus an in-edge list.
/// Arrays carry the kernel over-read padding (framerate_kernel.hpp).
struct Cell {
  std::vector<graph::Edge> edges;
  std::vector<double> bottleneck;
  std::vector<double> sum;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> words;
  CellInputs inputs;  // pointers filled by finish()

  Cell(std::size_t nodes, std::size_t beam) {
    const std::size_t cells = nodes * beam;
    // Pad values are poisonous on purpose: a kernel that USES a lane it
    // should have masked would visibly corrupt the comparison.
    bottleneck.assign(cells + 8, -1e300);
    sum.assign(cells + 8, -1e300);
    counts.assign(nodes, 0);
    words.assign(cells + 8, 0);  // one word-major visited plane
    inputs.beam = beam;
  }

  const CellInputs& finish() {
    inputs.edges = edges.data();
    inputs.edge_count = edges.size();
    inputs.bottleneck = bottleneck.data();
    inputs.sum = sum.data();
    inputs.counts = counts.data();
    inputs.visited = words.data();
    return inputs;
  }
};

/// Runs scalar and every SIMD kernel over the cell in all four
/// (tiebreak, visited-check) configurations, asserting the candidate
/// lists agree bitwise.
void expect_cell_parity(Cell& cell, const char* context) {
  const CellKernelFn scalar = scalar_cell_kernel();
  const std::size_t beam = cell.inputs.beam;
  std::vector<FrameRateArena::Candidate> expected(beam);
  std::vector<FrameRateArena::Candidate> got(beam);
  for (const Kind kind : simd_kernels()) {
    const CellKernelFn simd = kernel_fn(kind);
    for (const bool tiebreak : {false, true}) {
      for (const bool check : {false, true}) {
        cell.inputs.sum_tiebreak = tiebreak;
        const CellInputs& inputs = cell.finish();
        CellInputs masked = inputs;
        if (!check) {
          masked.visited = nullptr;
        }
        const std::size_t kept_ref = scalar(masked, expected.data());
        const std::size_t kept_got = simd(masked, got.data());
        ASSERT_EQ(kept_got, kept_ref)
            << context << " kernel=" << kind_name(kind)
            << " tiebreak=" << tiebreak << " check=" << check;
        for (std::size_t c = 0; c < kept_ref; ++c) {
          // Exact equality on purpose: the parity guarantee is bitwise.
          EXPECT_EQ(got[c].bottleneck, expected[c].bottleneck) << context;
          EXPECT_EQ(got[c].sum, expected[c].sum) << context;
          EXPECT_EQ(got[c].node, expected[c].node) << context;
          EXPECT_EQ(got[c].slot, expected[c].slot) << context;
        }
      }
    }
  }
}

TEST(KernelParity, RandomizedCells) {
  // Small discrete value sets make exact bottleneck/sum ties frequent,
  // which is where slot-selection and insertion-order bugs hide.
  const double values[] = {0.0, 0.25, 0.5, 0.5, 1.0, 2.0, 4.0};
  const double bandwidths[] = {0.5, 1.0, 1.0, 2.0, 8.0};
  util::Rng rng(20260728);
  for (int iter = 0; iter < 600; ++iter) {
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto beam = static_cast<std::size_t>(rng.uniform_int(1, 17));
    Cell cell(nodes, beam);
    cell.inputs.bit = std::uint64_t{1}
                      << static_cast<unsigned>(rng.uniform_int(0, 63));
    cell.inputs.input_mb = values[rng.uniform_int(1, 6)];
    cell.inputs.comp = values[rng.uniform_int(0, 6)];
    cell.inputs.include_link_delay = rng.uniform_int(0, 1) == 1;
    for (std::size_t u = 0; u < nodes; ++u) {
      const auto count = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(beam)));
      cell.counts[u] = count;
      for (std::uint32_t s = 0; s < count; ++s) {
        const std::size_t slot = u * beam + s;
        cell.bottleneck[slot] = values[rng.uniform_int(0, 6)];
        cell.sum[slot] = values[rng.uniform_int(0, 6)];
        // ~40% of slots have consumed the target node already.
        if (rng.uniform_int(0, 9) < 4) {
          cell.words[slot] |= cell.inputs.bit;
        }
      }
    }
    const auto degree = static_cast<std::size_t>(rng.uniform_int(0, 40));
    for (std::size_t i = 0; i < degree; ++i) {
      graph::Edge e;
      e.from = static_cast<graph::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
      e.to = 0;
      e.attr.bandwidth_mbps = bandwidths[rng.uniform_int(0, 4)];
      e.attr.min_delay_s = values[rng.uniform_int(0, 3)];
      cell.edges.push_back(e);
    }
    expect_cell_parity(cell, "randomized");
  }
}

TEST(KernelParity, AllTiedCellPicksLowestSlotAndFirstNode) {
  // Every row, every slot produces the identical (key, sum): the kept
  // candidates must be the FIRST edges' slot-0 labels, matching the
  // scalar scan order.
  for (const std::size_t beam : {1u, 3u, 4u, 5u, 8u, 9u, 16u, 17u}) {
    Cell cell(6, beam);
    cell.inputs.input_mb = 1.0;
    cell.inputs.comp = 0.5;
    for (std::size_t u = 0; u < 6; ++u) {
      cell.counts[u] = static_cast<std::uint32_t>(beam);
      for (std::size_t s = 0; s < beam; ++s) {
        cell.bottleneck[u * beam + s] = 1.5;
        cell.sum[u * beam + s] = 3.0;
      }
      graph::Edge e;
      e.from = static_cast<graph::NodeId>(u);
      e.to = 0;
      e.attr.bandwidth_mbps = 1.0;
      cell.edges.push_back(e);
    }
    expect_cell_parity(cell, "all-tied");
    cell.inputs.sum_tiebreak = true;
    std::vector<FrameRateArena::Candidate> cand(beam);
    const std::size_t kept =
        scalar_cell_kernel()(cell.finish(), cand.data());
    ASSERT_EQ(kept, std::min<std::size_t>(beam, 6));
    EXPECT_EQ(cand[0].node, 0u);  // first edge wins an exact tie
    EXPECT_EQ(cand[0].slot, 0u);  // lowest slot wins within the row
  }
}

TEST(KernelParity, TieStraddlingChunkBoundary) {
  // The row winner ties between slot 3 (last of the first AVX2 chunk)
  // and slot 4 (first of the second): the cross-chunk combine must keep
  // the earlier slot, exactly like the scalar left-to-right scan.
  const std::size_t beam = 9;
  Cell cell(1, beam);
  cell.inputs.input_mb = 0.5;
  cell.inputs.comp = 0.25;
  cell.counts[0] = 9;
  const double bn[] = {9.0, 8.0, 7.0, 1.0, 1.0, 7.0, 8.0, 9.0, 1.0};
  const double sm[] = {1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 2.0};
  for (std::size_t s = 0; s < beam; ++s) {
    cell.bottleneck[s] = bn[s];
    cell.sum[s] = sm[s];
  }
  graph::Edge e;
  e.from = 0;
  e.to = 0;
  e.attr.bandwidth_mbps = 1.0;
  cell.edges.push_back(e);
  expect_cell_parity(cell, "chunk-boundary tie");
  cell.inputs.sum_tiebreak = true;
  std::vector<FrameRateArena::Candidate> cand(beam);
  ASSERT_EQ(scalar_cell_kernel()(cell.finish(), cand.data()), 1u);
  EXPECT_EQ(cand[0].slot, 3u);
}

TEST(KernelParity, FullyVisitedCellKeepsNothing) {
  Cell cell(4, 3);
  cell.inputs.input_mb = 1.0;
  for (std::size_t u = 0; u < 4; ++u) {
    cell.counts[u] = 3;
    for (std::size_t s = 0; s < 3; ++s) {
      cell.bottleneck[u * 3 + s] = 1.0;
      cell.sum[u * 3 + s] = 1.0;
      cell.words[u * 3 + s] = ~std::uint64_t{0};
    }
    graph::Edge e;
    e.from = static_cast<graph::NodeId>(u);
    e.to = 0;
    e.attr.bandwidth_mbps = 2.0;
    cell.edges.push_back(e);
  }
  expect_cell_parity(cell, "fully visited");
  std::vector<FrameRateArena::Candidate> cand(3);
  EXPECT_EQ(scalar_cell_kernel()(cell.finish(), cand.data()), 0u);
}

TEST(KernelParity, VisitedPlaneSelectsPerSlotWords) {
  // The visited plane is indexed by slot: only slot 0's word carries the
  // target bit, so slots 1 and 2 must stay eligible and the best of
  // them must win.
  Cell cell(1, 3);
  cell.inputs.bit = std::uint64_t{1} << 17;
  cell.inputs.input_mb = 1.0;
  cell.counts[0] = 3;
  for (std::size_t s = 0; s < 3; ++s) {
    cell.bottleneck[s] = 1.0 + static_cast<double>(s);
    cell.sum[s] = 1.0;
  }
  cell.words[0] = cell.inputs.bit;  // slot 0 visited; slots 1, 2 free
  graph::Edge e;
  e.from = 0;
  e.to = 0;
  e.attr.bandwidth_mbps = 4.0;
  cell.edges.push_back(e);
  expect_cell_parity(cell, "visited plane");
  cell.inputs.sum_tiebreak = true;
  std::vector<FrameRateArena::Candidate> cand(3);
  ASSERT_EQ(scalar_cell_kernel()(cell.finish(), cand.data()), 1u);
  EXPECT_EQ(cand[0].slot, 1u);
}

TEST(KernelParity, DispatchNamesRoundTripAndValidate) {
  for (const Kind kind :
       {Kind::kAuto, Kind::kScalar, Kind::kAvx2, Kind::kAvx512}) {
    EXPECT_EQ(kind_from_name(kind_name(kind)), kind);
  }
  EXPECT_THROW((void)kind_from_name("sse9"), std::invalid_argument);
  EXPECT_EQ(resolve_kernel(Kind::kScalar), Kind::kScalar);
  EXPECT_NE(kernel_fn(Kind::kScalar), nullptr);
  // kAuto resolves to something this process can actually run.
  const Kind resolved = resolve_kernel(Kind::kAuto);
  EXPECT_NE(resolved, Kind::kAuto);
  EXPECT_NE(kernel_fn(resolved), nullptr);
}

/// Full-solve parity: the DP must produce bit-equal answers under every
/// kernel, across the one-word (k <= 64) and pooled (k > 64) layouts
/// and with the beam below, at, and above the vector widths — 8 is one
/// full AVX-512 chunk with no tail, 16 a two-chunk row.
TEST(KernelParity, MaxFrameRateSolvesBitIdenticalAcrossKernels) {
  if (simd_kernels().empty()) {
    GTEST_SKIP() << "no SIMD kernel available on this build/CPU";
  }
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    for (const std::size_t nodes : {12u, 80u}) {
      for (const std::size_t beam : {1u, 4u, 8u, 9u, 16u}) {
        util::Rng rng(seed + nodes + beam);
        workload::Scenario s;
        s.pipeline = pipeline::random_pipeline(rng, 8, {});
        s.network = graph::random_connected_network(rng, nodes,
                                                    nodes * 6, {});
        s.source = 0;
        s.destination = static_cast<graph::NodeId>(nodes - 1);
        const mapping::Problem p = s.problem();

        ElpcOptions base;
        base.framerate_beam_width = beam;
        base.framerate_kernel = Kind::kScalar;
        const mapping::MapResult reference =
            ElpcMapper(base).max_frame_rate(p);
        for (const Kind kind : simd_kernels()) {
          ElpcOptions options = base;
          options.framerate_kernel = kind;
          const mapping::MapResult got =
              ElpcMapper(options).max_frame_rate(p);
          ASSERT_EQ(got.feasible, reference.feasible)
              << kind_name(kind) << " seed=" << seed << " k=" << nodes;
          if (!reference.feasible) {
            continue;
          }
          EXPECT_EQ(got.seconds, reference.seconds)
              << kind_name(kind) << " seed=" << seed << " k=" << nodes
              << " beam=" << beam;
          EXPECT_EQ(got.mapping.assignment(),
                    reference.mapping.assignment())
              << kind_name(kind) << " seed=" << seed << " k=" << nodes
              << " beam=" << beam;
        }
      }
    }
  }
}

}  // namespace
}  // namespace elpc::core::kernels
