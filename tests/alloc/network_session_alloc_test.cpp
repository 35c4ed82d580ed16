// Heap gate for a session's copy-on-write delta: publishing a one-link
// update on a large network copies the two edge chunks it writes and the
// new revision's tables, never the links (a whole-network copy of this
// network is ~10.8 MB).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "alloc_counter.hpp"
#include "graph/generators.hpp"
#include "service/network_session.hpp"
#include "util/rng.hpp"

namespace elpc::service {
namespace {

using graph::Edge;
using graph::NodeId;

/// The E6 largest point: 400 nodes at density 0.6.
constexpr std::size_t kNodes = 400;
constexpr std::size_t kLinks = 95'760;  // round(0.6 * 400 * 399)

/// What one single-link delta may allocate: the two chunks it rewrites
/// (each with its shared_ptr control block), the new revision's tables
/// (one row-pointer table and one chunk table per direction, at most
/// 2 * links / kEdgeChunkEdges + 1 chunks of at most 32 bytes of
/// bookkeeping each), and 1 KiB for the Network object, its own control
/// block and the session's note of the superseded revision.  The node
/// attributes are shared with the previous revision, not copied.
constexpr std::size_t kChunkBytes =
    graph::kEdgeChunkEdges * sizeof(Edge) + 64;
constexpr std::size_t kMaxChunks = 2 * kLinks / graph::kEdgeChunkEdges + 1;
constexpr std::size_t kOneLinkDeltaBytes =
    2 * kChunkBytes + 2 * kNodes * sizeof(Edge*) + 2 * kMaxChunks * 32 +
    1024;
/// One allocation per chunk, per table, for the Network and for the
/// session's bookkeeping growing.
constexpr std::size_t kOneLinkDeltaAllocations = 9;

/// Rows of `after` whose data moved against `before`, in one direction.
std::vector<NodeId> moved_rows(
    const graph::Network& before, const graph::Network& after,
    std::span<const Edge> (graph::Network::*row)(NodeId) const) {
  std::vector<NodeId> moved;
  for (NodeId v = 0; v < after.node_count(); ++v) {
    if ((after.*row)(v).data() != (before.*row)(v).data()) {
      moved.push_back(v);
    }
  }
  return moved;
}

/// The moved rows are one contiguous run holding `touched` and at most
/// one chunk's worth of edges (or the touched row alone when longer).
void expect_one_chunk(
    const graph::Network& after, const std::vector<NodeId>& moved,
    NodeId touched,
    std::span<const Edge> (graph::Network::*row)(NodeId) const) {
  ASSERT_FALSE(moved.empty());
  EXPECT_EQ(moved.back() - moved.front() + 1, moved.size());
  EXPECT_LE(moved.front(), touched);
  EXPECT_GE(moved.back(), touched);
  std::size_t edges = 0;
  for (const NodeId v : moved) {
    edges += (after.*row)(v).size();
  }
  EXPECT_LE(edges,
            std::max(graph::kEdgeChunkEdges, (after.*row)(touched).size()));
}

TEST(NetworkSessionAllocations, OneLinkDeltaCopiesTwoChunksNotTheNetwork) {
  util::Rng rng(1);
  NetworkSession session(
      "net", graph::random_connected_network(rng, kNodes, kLinks,
                                             graph::AttributeRanges{}));
  const NetworkSnapshot before = session.snapshot();
  ASSERT_EQ(before->link_count(), kLinks);
  const Edge edge = before->out_edges(123)[17];
  const std::vector<graph::LinkUpdate> updates = {graph::LinkUpdate{
      edge.from, edge.to,
      graph::LinkAttr{edge.attr.bandwidth_mbps * 2.0,
                      edge.attr.min_delay_s}}};

  const alloc_gate::HeapUse used =
      alloc_gate::heap_use([&] { session.apply_link_updates(updates); });
  RecordProperty("allocations", static_cast<int>(used.allocations));
  RecordProperty("bytes", static_cast<int>(used.bytes));
  EXPECT_LE(used.bytes, kOneLinkDeltaBytes);
  EXPECT_LE(used.allocations, kOneLinkDeltaAllocations);

  // Every row outside the two rewritten chunks still aliases the
  // previous revision's storage.
  const NetworkSnapshot after = session.snapshot();
  EXPECT_EQ(after->link(edge.from, edge.to).bandwidth_mbps,
            edge.attr.bandwidth_mbps * 2.0);
  EXPECT_EQ(before->link(edge.from, edge.to).bandwidth_mbps,
            edge.attr.bandwidth_mbps);
  const auto out_row = &graph::Network::out_edges;
  const auto in_row = &graph::Network::in_edges;
  expect_one_chunk(*after, moved_rows(*before, *after, out_row), edge.from,
                   out_row);
  expect_one_chunk(*after, moved_rows(*before, *after, in_row), edge.to,
                   in_row);
  EXPECT_EQ(session.finalize_builds(), 1u);
}

}  // namespace
}  // namespace elpc::service
