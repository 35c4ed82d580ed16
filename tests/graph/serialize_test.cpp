#include "graph/serialize.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace elpc::graph {
namespace {

TEST(GraphJson, RoundTripPreservesEverything) {
  util::Rng rng(8);
  const Network original = random_connected_network(rng, 9, 40, {});
  const Network restored = network_from_json(to_json(original));

  ASSERT_EQ(restored.node_count(), original.node_count());
  ASSERT_EQ(restored.link_count(), original.link_count());
  for (NodeId v = 0; v < original.node_count(); ++v) {
    EXPECT_EQ(restored.node(v).name, original.node(v).name);
    EXPECT_DOUBLE_EQ(restored.node(v).processing_power,
                     original.node(v).processing_power);
    for (const Edge& e : original.out_edges(v)) {
      ASSERT_TRUE(restored.has_link(e.from, e.to));
      EXPECT_DOUBLE_EQ(restored.link(e.from, e.to).bandwidth_mbps,
                       e.attr.bandwidth_mbps);
      EXPECT_DOUBLE_EQ(restored.link(e.from, e.to).min_delay_s,
                       e.attr.min_delay_s);
    }
  }
}

TEST(GraphJson, DumpIsStableAcrossRoundTrips) {
  util::Rng rng(9);
  const Network net = random_connected_network(rng, 5, 12, {});
  const std::string once = to_json(net).dump();
  const std::string twice = to_json(network_from_json(to_json(net))).dump();
  EXPECT_EQ(once, twice);
}

TEST(GraphJson, MalformedDocumentThrows) {
  EXPECT_THROW((void)network_from_json(util::Json::parse("{}")),
               util::JsonError);
  EXPECT_THROW((void)network_from_json(util::Json::parse(
                   R"({"nodes":[],"links":[{"from":0,"to":1,
                       "bandwidth_mbps":1,"min_delay_s":0}]})")),
               std::invalid_argument);
}

TEST(GraphJson, NegativeLinkEndpointIsRejectedNotWrapped) {
  const util::Json doc = util::Json::parse(
      R"({"nodes":[{"name":"a","power":1},{"name":"b","power":1}],)"
      R"("links":[{"from":0,"to":-1,"bandwidth_mbps":1,"min_delay_s":0}]})");
  try {
    (void)network_from_json(doc);
    ADD_FAILURE() << "a link to node -1 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "'to' must be a node id in [0, 2^53), got -1");
  }
}

TEST(AdjacencyMatrix, MatchesTopology) {
  Network net;
  for (int i = 0; i < 3; ++i) {
    net.add_node({});
  }
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(2, 0, {100.0, 0.0});
  EXPECT_EQ(to_adjacency_matrix(net), "0 1 0\n0 0 0\n1 0 0\n");
}

TEST(AdjacencyMatrix, EmptyNetwork) {
  EXPECT_EQ(to_adjacency_matrix(Network{}), "");
}

}  // namespace
}  // namespace elpc::graph
