#include "graph/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "util/rng.hpp"

namespace elpc::graph {
namespace {

Network two_nodes() {
  Network net;
  net.add_node({"a", 2.0});
  net.add_node({"b", 3.0});
  return net;
}

TEST(Network, AddNodeAssignsDenseIds) {
  Network net;
  EXPECT_EQ(net.add_node({"x", 1.0}), 0u);
  EXPECT_EQ(net.add_node({"y", 1.0}), 1u);
  EXPECT_EQ(net.node_count(), 2u);
}

TEST(Network, EmptyNameGetsDefault) {
  Network net;
  const NodeId id = net.add_node({"", 1.0});
  EXPECT_EQ(net.node(id).name, "node0");
}

TEST(Network, NodeAttributesStored) {
  Network net = two_nodes();
  EXPECT_EQ(net.node(0).name, "a");
  EXPECT_DOUBLE_EQ(net.node(1).processing_power, 3.0);
}

TEST(Network, RejectsNonPositivePower) {
  Network net;
  EXPECT_THROW(net.add_node({"bad", 0.0}), std::invalid_argument);
  EXPECT_THROW(net.add_node({"bad", -1.0}), std::invalid_argument);
}

TEST(Network, NodeOutOfRangeThrows) {
  Network net = two_nodes();
  EXPECT_THROW((void)net.node(2), std::invalid_argument);
}

TEST(Network, AddLinkIsDirected) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.001});
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_FALSE(net.has_link(1, 0));
  EXPECT_EQ(net.link_count(), 1u);
}

TEST(Network, LinkAttributesStored) {
  Network net = two_nodes();
  net.add_link(0, 1, {250.0, 0.002});
  EXPECT_DOUBLE_EQ(net.link(0, 1).bandwidth_mbps, 250.0);
  EXPECT_DOUBLE_EQ(net.link(0, 1).min_delay_s, 0.002);
}

TEST(Network, DuplexLinkAddsBothDirections) {
  Network net = two_nodes();
  net.add_duplex_link(0, 1, {100.0, 0.0});
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_TRUE(net.has_link(1, 0));
  EXPECT_EQ(net.link_count(), 2u);
}

TEST(Network, RejectsSelfLoops) {
  Network net = two_nodes();
  EXPECT_THROW(net.add_link(0, 0, {100.0, 0.0}), std::invalid_argument);
}

TEST(Network, RejectsDuplicateLinks) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  EXPECT_THROW(net.add_link(0, 1, {200.0, 0.0}), std::invalid_argument);
}

TEST(Network, RejectsBadLinkAttributes) {
  Network net = two_nodes();
  EXPECT_THROW(net.add_link(0, 1, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.add_link(0, 1, {100.0, -0.1}), std::invalid_argument);
}

TEST(Network, RejectsUnknownEndpoints) {
  Network net = two_nodes();
  EXPECT_THROW(net.add_link(0, 5, {100.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.add_link(5, 0, {100.0, 0.0}), std::invalid_argument);
}

TEST(Network, MissingLinkLookupThrows) {
  Network net = two_nodes();
  EXPECT_THROW((void)net.link(0, 1), std::out_of_range);
}

TEST(Network, FindLinkReturnsOptional) {
  Network net = two_nodes();
  EXPECT_FALSE(net.find_link(0, 1).has_value());
  net.add_link(0, 1, {123.0, 0.0});
  ASSERT_TRUE(net.find_link(0, 1).has_value());
  EXPECT_DOUBLE_EQ(net.find_link(0, 1)->bandwidth_mbps, 123.0);
}

TEST(Network, AdjacencyListsTrackLinks) {
  Network net;
  for (int i = 0; i < 4; ++i) {
    net.add_node({});
  }
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(0, 2, {100.0, 0.0});
  net.add_link(3, 0, {100.0, 0.0});
  EXPECT_EQ(net.out_edges(0).size(), 2u);
  EXPECT_EQ(net.in_edges(0).size(), 1u);
  EXPECT_EQ(net.in_edges(1).size(), 1u);
  EXPECT_EQ(net.out_edges(1).size(), 0u);
  EXPECT_EQ(net.in_edges(0)[0].from, 3u);
  EXPECT_EQ(net.out_edges(0)[1].to, 2u);
}

TEST(Network, MeanBandwidth) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(1, 0, {300.0, 0.0});
  EXPECT_DOUBLE_EQ(net.mean_bandwidth_mbps(), 200.0);
}

TEST(Network, MeanBandwidthIndependentOfInsertionOrder) {
  // The daemon holds the to_json round trip of a registered network,
  // whose links arrive in out-row order; the mean must not depend on the
  // order they were added in, down to the last bit.
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nodes = 5 + rng.index(60);
    const std::size_t links =
        nodes + rng.index(nodes * (nodes - 1) - nodes + 1);
    const Network net =
        random_connected_network(rng, nodes, links, AttributeRanges{});
    const Network restored = network_from_json(to_json(net));
    ASSERT_TRUE(net.same_content(restored));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(net.mean_bandwidth_mbps()),
              std::bit_cast<std::uint64_t>(restored.mean_bandwidth_mbps()))
        << "trial " << trial;
  }
}

TEST(Network, MeanBandwidthThrowsWithoutLinks) {
  Network net = two_nodes();
  EXPECT_THROW((void)net.mean_bandwidth_mbps(), std::logic_error);
}

TEST(Network, ValidatePassesOnWellFormedGraph) {
  Network net = two_nodes();
  net.add_duplex_link(0, 1, {100.0, 0.001});
  EXPECT_NO_THROW(net.validate());
}

TEST(Network, FinalizeIsLazyAndIdempotent) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  EXPECT_FALSE(net.finalized());
  EXPECT_EQ(net.out_edges(0).size(), 1u);  // query triggers finalize
  EXPECT_TRUE(net.finalized());
  net.finalize();  // idempotent
  EXPECT_TRUE(net.finalized());
}

TEST(Network, MutationInvalidatesCsrAndRebuilds) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  EXPECT_EQ(net.out_edges(0).size(), 1u);
  const NodeId c = net.add_node({"c", 1.0});
  EXPECT_FALSE(net.finalized());
  net.add_link(0, c, {50.0, 0.0});
  EXPECT_EQ(net.out_edges(0).size(), 2u);  // rebuilt view sees both links
  EXPECT_EQ(net.in_edges(c).size(), 1u);
  EXPECT_NO_THROW(net.validate());
}

TEST(Network, AdjacencySpansSortedByNeighbor) {
  Network net;
  for (int i = 0; i < 5; ++i) {
    net.add_node({});
  }
  // Insert out of order; spans must come back sorted by neighbor id.
  net.add_link(0, 4, {100.0, 0.0});
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(0, 3, {100.0, 0.0});
  net.add_link(2, 1, {100.0, 0.0});
  const auto out = net.out_edges(0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].to, 1u);
  EXPECT_EQ(out[1].to, 3u);
  EXPECT_EQ(out[2].to, 4u);
  const auto in = net.in_edges(1);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].from, 0u);
  EXPECT_EQ(in[1].from, 2u);
}

TEST(Network, DegreeAccessors) {
  Network net;
  for (int i = 0; i < 3; ++i) {
    net.add_node({});
  }
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(0, 2, {100.0, 0.0});
  net.add_link(1, 2, {100.0, 0.0});
  EXPECT_EQ(net.out_degree(0), 2u);
  EXPECT_EQ(net.in_degree(2), 2u);
  EXPECT_EQ(net.out_degree(2), 0u);
}

TEST(Network, FlatCsrViewsMatchPerRowSpans) {
  Network net;
  for (int i = 0; i < 6; ++i) {
    net.add_node({});
  }
  net.add_link(0, 1, {10.0, 0.0});
  net.add_link(2, 1, {20.0, 0.0});
  net.add_link(1, 5, {30.0, 0.0});
  net.add_link(4, 5, {40.0, 0.0});
  // The hoisted row tables the DP kernels read: row v starts at
  // pointers[v] and holds offsets[v + 1] - offsets[v] edges.
  const auto in_rows = net.in_row_pointers();
  const auto in_off = net.in_row_offsets();
  const auto out_rows = net.out_row_pointers();
  const auto out_off = net.out_row_offsets();
  ASSERT_EQ(in_rows.size(), net.node_count());
  ASSERT_EQ(out_rows.size(), net.node_count());
  ASSERT_EQ(in_off.size(), net.node_count() + 1);
  ASSERT_EQ(out_off.size(), net.node_count() + 1);
  EXPECT_EQ(in_off.back(), net.link_count());
  EXPECT_EQ(out_off.back(), net.link_count());
  for (NodeId v = 0; v < net.node_count(); ++v) {
    const auto in = net.in_edges(v);
    ASSERT_EQ(in.size(), in_off[v + 1] - in_off[v]);
    EXPECT_EQ(in.data(), in_rows[v]);
    const auto out = net.out_edges(v);
    ASSERT_EQ(out.size(), out_off[v + 1] - out_off[v]);
    EXPECT_EQ(out.data(), out_rows[v]);
  }
}

TEST(Network, LookupWorksInBothPhases) {
  Network net = two_nodes();
  net.add_link(0, 1, {123.0, 0.0});
  // Before finalize.
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_DOUBLE_EQ(net.link(0, 1).bandwidth_mbps, 123.0);
  net.finalize();
  // After finalize.
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_FALSE(net.has_link(1, 0));
  EXPECT_DOUBLE_EQ(net.find_link(0, 1)->bandwidth_mbps, 123.0);
}

}  // namespace
}  // namespace elpc::graph
