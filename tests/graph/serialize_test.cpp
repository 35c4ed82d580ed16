#include "graph/serialize.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "tree_json_oracle.hpp"
#include "util/rng.hpp"

namespace elpc::graph {
namespace {

using testing::tree_to_json;

std::string append_json_text(const Network& net) {
  std::string text;
  append_json(text, net);
  return text;
}

/// Names that need escaping or are multi-byte, and values on both
/// sides of the 1e15 integral cut-off, zero and tiny delays.
Network edge_case_network() {
  Network net;
  const std::vector<std::pair<std::string, double>> nodes = {
      {"quote\"d", 1.0},
      {"back\\slash", 999999999999999.0},
      {std::string("ctl\x01\x1f\b\f\n\r\t\x7f\0z", 13), 1e15},
      {"utf8 \xc3\xa9 \xe6\x97\xa5 \xf0\x9f\x98\x80", 1e16 + 2.0},
      {"plain", 0.1},
      {"tiny", 5e-324},
  };
  for (const auto& [name, power] : nodes) {
    net.add_node({name, power});
  }
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(1, 0, {1e15, -0.0});
  net.add_link(1, 2, {999999999999999.0, 1e-300});
  net.add_link(2, 3, {123456789.125, 0.001});
  net.add_link(3, 4, {1e300, 1e15});
  net.add_link(4, 5, {2.5e-8, 12345678901234567.0});
  net.add_link(5, 0, {0.30000000000000004, 7.0});
  return net;
}

TEST(GraphJson, AppendJsonMatchesTheTreeBuilderOnSeededNetworks) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng(seed);
    const std::size_t nodes = 2 + 9 * seed;
    const Network net =
        random_connected_network(rng, nodes, nodes * (nodes - 1) / 2, {});
    EXPECT_EQ(append_json_text(net), tree_to_json(net).dump())
        << "seed " << seed;
  }
  EXPECT_EQ(append_json_text(Network{}), tree_to_json(Network{}).dump());
}

TEST(GraphJson, AppendJsonMatchesTheTreeBuilderOnEdgeCases) {
  const Network net = edge_case_network();
  const std::string text = append_json_text(net);
  EXPECT_EQ(text, tree_to_json(net).dump());
  // Spot checks of what the oracle itself prints.
  EXPECT_NE(text.find(R"("name":"quote\"d")"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"ctl\\u0001\\u001f\\b\\f\\n\\r\\t\x7f"
                      "\\u0000z\""),
            std::string::npos);
  EXPECT_NE(text.find(R"("power":999999999999999})"), std::string::npos);
  EXPECT_NE(text.find(R"("power":1000000000000000})"), std::string::npos);
  EXPECT_NE(text.find(R"("min_delay_s":0,)"), std::string::npos);

  // append_json appends: what `out` already holds is kept.
  std::string prefixed = "{\"network\":";
  append_json(prefixed, net);
  EXPECT_EQ(prefixed, "{\"network\":" + text);
}

TEST(GraphJson, ToJsonIsTheWriterParsed) {
  util::Rng rng(6);
  for (const Network& net :
       {random_connected_network(rng, 12, 60, {}), edge_case_network()}) {
    EXPECT_EQ(to_json(net), tree_to_json(net));
    EXPECT_EQ(to_json(net).dump(), append_json_text(net));
    EXPECT_EQ(to_json(net).dump(2), tree_to_json(net).dump(2));
  }
}

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

/// The messages a malformed document is refused with, pinned: the one
/// pass over a link's members reports what the per-field lookups did.
TEST(GraphJson, MalformedDocumentMessagesAreStable) {
  const std::string nodes =
      R"({"nodes":[{"name":"a","power":1},{"name":"b","power":1}],)";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{}", "Json: missing key 'nodes'"},
      {R"({"nodes":[]})", "Json: missing key 'links'"},
      {R"({"nodes":[],"links":{}})", "Json: not an array"},
      {nodes + R"("links":[7]})", "Json: not an object"},
      {nodes + R"("links":[{"from":0,"to":1,"min_delay_s":0}]})",
       "Json: missing key 'bandwidth_mbps'"},
      {nodes + R"("links":[{"from":0,"to":1,"bandwidth_mbps":1}]})",
       "Json: missing key 'min_delay_s'"},
      {nodes + R"("links":[{"to":1,"bandwidth_mbps":1,"min_delay_s":0}]})",
       "Json: missing key 'from'"},
      {nodes + R"("links":[{"from":0,"bandwidth_mbps":1,"min_delay_s":0}]})",
       "Json: missing key 'to'"},
      {nodes + R"("links":[{"from":0,"bandwidth_mbps":"1","min_delay_s":0}]})",
       "Json: not a number"},
      {nodes + R"("links":[{"from":0,"to":1,"bandwidth_mbps":1,)"
               R"("min_delay_s":null}]})",
       "Json: not a number"},
      {nodes + R"("links":[{"from":0.5,"to":1,"bandwidth_mbps":1,)"
               R"("min_delay_s":0}]})",
       "Json: number is not integral"},
      {nodes + R"("links":[{"from":0,"to":1,"bandwidth_mbps":0,)"
               R"("min_delay_s":0}]})",
       "Network: bandwidth must be > 0"},
      {nodes + R"("links":[{"from":0,"to":1,"bandwidth_mbps":1,)"
               R"("min_delay_s":-1}]})",
       "Network: min link delay must be >= 0"},
      {nodes + R"("links":[{"from":1,"to":1,"bandwidth_mbps":1,)"
               R"("min_delay_s":0}]})",
       "Network: self-loops are not allowed"},
      {nodes + R"("links":[{"from":0,"to":1,"bandwidth_mbps":1,)"
               R"("min_delay_s":0},{"from":0,"to":1,"bandwidth_mbps":2,)"
               R"("min_delay_s":0}]})",
       "Network: duplicate link"},
      {nodes + R"("links":[{"from":0,"to":2,"bandwidth_mbps":1,)"
               R"("min_delay_s":0}]})",
       "Network: node id 2 out of range"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)network_from_json(util::Json::parse(text));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()), message) << text;
    }
  }
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
