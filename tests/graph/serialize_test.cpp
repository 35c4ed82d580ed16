#include "graph/serialize.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "tree_json_oracle.hpp"
#include "util/rng.hpp"

namespace elpc::graph {
namespace {

using testing::tree_network_from_json;
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

/// append_json's pretty mode prints what dump(indent) prints, and at a
/// depth, what dump(indent) prints for the network nested that deep.
TEST(NetworkWriter, IndentedAppendJsonMatchesTheTreeDump) {
  util::Rng rng(12);
  for (const Network& net :
       {edge_case_network(), random_connected_network(rng, 7, 25, {}),
        Network{}}) {
    for (const int indent : {1, 2, 4}) {
      std::string text;
      append_json(text, net, indent);
      EXPECT_EQ(text, tree_to_json(net).dump(indent));
      util::Json outer = util::JsonObject{};
      outer.set("a", util::Json(util::JsonArray{tree_to_json(net)}));
      std::string nested = "{";
      util::dump_newline(nested, indent, 1);
      nested += indent > 0 ? "\"a\": [" : "\"a\":[";
      util::dump_newline(nested, indent, 2);
      append_json(nested, net, indent, 2);
      util::dump_newline(nested, indent, 1);
      nested += ']';
      util::dump_newline(nested, indent, 0);
      nested += '}';
      EXPECT_EQ(nested, outer.dump(indent));
    }
  }
}

/// dump_with_member splices a member written as text into the dump of
/// an object, at its sorted place: first, between, or last.
TEST(NetworkWriter, DumpWithMemberSplicesAtTheSortedPlace) {
  const Network net = edge_case_network();
  for (const std::string key : {"a", "m", "z"}) {
    for (const int indent : {0, 2}) {
      util::Json doc = util::JsonObject{};
      doc.set("b", 1);
      doc.set("y", util::Json(util::JsonArray{util::Json("s")}));
      std::string text;
      util::dump_with_member(text, doc, indent, 0, key,
                             [&](std::string& out, int depth) {
                               append_json(out, net, indent, depth);
                             });
      doc.set(key, tree_to_json(net));
      EXPECT_EQ(text, doc.dump(indent)) << key;
    }
  }
  std::string empty;
  util::dump_with_member(empty, util::JsonObject{}, 2, 0, "k",
                         [](std::string& out, int) { out += "[]"; });
  EXPECT_EQ(empty, "{\n  \"k\": []\n}");
}

/// What reading a document gives: the network, or the refusal's text.
struct Outcome {
  std::optional<Network> network;
  std::string error;
};

/// The oracle: parse the whole text into a tree, then walk the tree.
Outcome read_by_tree(std::string_view text) {
  try {
    return {tree_network_from_json(util::Json::parse(text)), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

/// read_network_json over the text, its schema refusal held back until
/// the rest of the text is checked, as a frame parse holds it.
Outcome read_by_cursor(std::string_view text) {
  try {
    util::JsonCursor in(text);
    std::optional<Network> network;
    std::exception_ptr refusal;
    try {
      network = read_network_json(in);
    } catch (const util::JsonParseError&) {
      throw;
    } catch (...) {
      refusal = std::current_exception();
    }
    in.finish();
    if (refusal) {
      std::rethrow_exception(refusal);
    }
    return {std::move(network), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

/// The document as the "network" member of a frame: the oracle parses
/// the frame and walks the member's tree.
Outcome read_frame_by_tree(const std::string& frame) {
  try {
    return {tree_network_from_json(util::Json::parse(frame).at("network")),
            ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

/// The frame parsed with the member handed to read_network_json, its
/// refusal held back until the frame is parsed (what the daemon does).
Outcome read_frame_by_cursor(const std::string& frame) {
  try {
    std::optional<Network> network;
    std::exception_ptr refusal;
    const util::Json rest = util::Json::parse(
        frame, "network", [&](util::JsonCursor& in) {
          refusal = nullptr;
          try {
            network = read_network_json(in);
          } catch (const util::JsonParseError&) {
            throw;
          } catch (...) {
            refusal = std::current_exception();
          }
        });
    if (rest.contains("network")) {
      return {network_from_json(rest.at("network")), ""};
    }
    if (refusal) {
      std::rethrow_exception(refusal);
    }
    return {std::move(network), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same_outcome(const Outcome& got, const Outcome& want,
                         std::string_view text) {
  EXPECT_EQ(got.error, want.error) << text;
  ASSERT_EQ(got.network.has_value(), want.network.has_value()) << text;
  if (want.network) {
    EXPECT_TRUE(got.network->same_content(*want.network)) << text;
  }
}

/// Both readers give the same Network or the same refusal, on the
/// document alone and as a frame's member.
void expect_same_reading(std::string_view text) {
  expect_same_outcome(read_by_cursor(text), read_by_tree(text), text);
  const std::string frame =
      R"({"id":"n","network":)" + std::string(text) + R"(,"verb":"x"})";
  expect_same_outcome(read_frame_by_cursor(frame), read_frame_by_tree(frame),
                      frame);
}

/// Two nodes, then `links` as given.
std::string two_nodes_and(std::string_view links) {
  return R"({"nodes":[{"name":"a","power":1},{"name":"b","power":1}],)" +
         std::string(links) + "}";
}

/// Two nodes and the link objects `links`.
std::string two_nodes_with(std::string_view links) {
  return two_nodes_and(R"("links":[)" + std::string(links) + "]");
}

TEST(NetworkReader, MatchesTheTreeWalkOnMalformedDocuments) {
  const std::string link =
      R"({"from":0,"to":1,"bandwidth_mbps":1,"min_delay_s":0})";
  const std::vector<std::string> documents = {
      "{}", "[]", "5", R"("nodes")", "null", R"({"nodes":[]})",
      R"({"nodes":[],"links":{}})", R"({"nodes":{},"links":[]})",
      R"({"nodes":[],"links":[]})",
      two_nodes_with("7"),
      two_nodes_with(R"({"from":0,"to":1,"min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"to":1,"bandwidth_mbps":1})"),
      two_nodes_with(R"({"to":1,"bandwidth_mbps":1,"min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"bandwidth_mbps":1,"min_delay_s":0})"),
      two_nodes_with(R"({"bandwidth_mbps":1,"min_delay_s":0})"),
      two_nodes_with(R"({"from":"x","to":[],"bandwidth_mbps":1,)"
                     R"("min_delay_s":0})"),
      two_nodes_with(R"({"from":-1,"to":-2,"bandwidth_mbps":1,)"
                     R"("min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"to":1e300,"bandwidth_mbps":1,)"
                     R"("min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"to":9007199254740992,)"
                     R"("bandwidth_mbps":1,"min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"bandwidth_mbps":"1","min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"to":1,"bandwidth_mbps":1,)"
                     R"("min_delay_s":null})"),
      two_nodes_with(R"({"from":0.5,"to":1,"bandwidth_mbps":1,)"
                     R"("min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"to":1,"bandwidth_mbps":0,)"
                     R"("min_delay_s":0})"),
      two_nodes_with(R"({"from":0,"to":1,"bandwidth_mbps":1,)"
                     R"("min_delay_s":-1})"),
      two_nodes_with(R"({"from":1,"to":1,"bandwidth_mbps":1,)"
                     R"("min_delay_s":0})"),
      two_nodes_with(link + "," + link),
      two_nodes_with(R"({"from":0,"to":2,"bandwidth_mbps":1,)"
                     R"("min_delay_s":0})"),
      // A link's Network refusal comes before a later link's schema one.
      two_nodes_with(R"({"from":0,"to":5,"bandwidth_mbps":1,)"
                     R"("min_delay_s":0},{"from":0})"),
      // A node's refusals, whatever the links hold or lack.
      R"({"nodes":[{"name":"a"}],"links":[7]})",
      R"({"nodes":[{"power":1}]})",
      R"({"nodes":[{"name":5,"power":1}],"links":[]})",
      R"({"nodes":[{"name":"a","power":"1"}],"links":[]})",
      R"({"nodes":[{"name":"a","power":0},{"name":7}],"links":[]})",
      R"({"nodes":[{"name":"a","power":1},3],"links":[]})",
      R"({"nodes":[{"name":"a","power":-1}]})",
      // Syntax errors beat every schema refusal, wherever they are.
      R"({"nodes":[{"name":"a"}],"links":[7],})",
      R"({"links":[{"from":0}],"nodes":[{"name":"a","power":1}] x)",
      R"({"nodes":[{"name":"a\q","power":1}],"links":[]})",
  };
  for (const std::string& text : documents) {
    expect_same_reading(text);
  }
}

TEST(NetworkReader, MatchesTheTreeWalkWhateverTheMemberOrder) {
  const std::string nodes =
      R"("nodes":[{"name":"a","power":1},{"name":"b","power":2}])";
  const std::string links =
      R"("links":[{"from":0,"to":1,"bandwidth_mbps":3,"min_delay_s":0.5}])";
  const std::vector<std::string> documents = {
      // append_json's order, links first, and a missing member.
      "{" + links + "," + nodes + "}",
      "{" + nodes + "," + links + "}",
      "{" + links + "}",
      R"({"links":[{"from":0}]})",
      R"({"links":[7],"nodes":[{"name":"a"}]})",
      // A repeated member: the last one counts, refusal or not.
      "{" + nodes + "," + R"("nodes":[{"name":"z","power":9}],)" + links +
          "}",
      R"({"nodes":[{"power":1}],)" + nodes + "," + links + "}",
      "{" + nodes + "," + links + "," + R"("nodes":[{"power":1}])" + "}",
      "{" + nodes + "," + links + "," + R"("links":[])" + "}",
      R"({"links":[{"from":9}],)" + nodes + "," + links + "}",
      "{" + nodes + "," + links + "," + R"("links":"none")" + "}",
      R"({"nodes":[{"name":"a","name":"b","power":"x","power":1}],)"
      R"("links":[]})",
      R"({"nodes":[{"name":"a","power":1,"power":"x"}],"links":[]})",
      two_nodes_with(R"({"from":"x","from":1,"to":0,"to":"y","to":0,)"
                     R"("bandwidth_mbps":1,"min_delay_s":0})"),
      // Unknown members anywhere are read past.
      R"({"meta":{"deep":[1,[2,{"x":null}],"s",true]},)" + nodes + "," +
          R"("links":[{"weight":[1,{}],"from":0,"to":1,"bandwidth_mbps":3,)"
          R"("min_delay_s":0,"note":"x"}],"z":false})",
      R"({"nodes":[{"ip":"10.0.0.1","name":"a","power":1,"tags":{}}],)"
      R"("links":[],"links2":7})",
      // Whitespace wherever the grammar allows it.
      " {\n \"nodes\" : [ { \"name\" : \"a\" , \"power\" : 1 } ,"
      "{\"name\":\"b\",\"power\":1}] ,\t\"links\" :[ ] } ",
  };
  for (const std::string& text : documents) {
    expect_same_reading(text);
  }
}

TEST(NetworkReader, MatchesTheTreeWalkOnEscapedNames) {
  for (const std::string_view name :
       {R"("quote\"d")", R"("back\\slash")", R"("\/\b\f\n\r\t")",
        R"("\u0000\u001fé日")", R"("😀")", R"("é")",
        R"("")", R"("bad\u12g4")", R"("bad\x")", R"("open)"}) {
    expect_same_reading(R"({"nodes":[{"name":)" + std::string(name) +
                        R"(,"power":1}],"links":[]})");
  }
  const Network net = edge_case_network();
  const std::string text = append_json_text(net);
  expect_same_reading(text);
  util::JsonCursor in(text);
  EXPECT_TRUE(read_network_json(in).same_content(net));
}

/// Seeded mutations of well-formed documents: cut short, one byte
/// changed, one value swapped for another kind.
TEST(NetworkReader, MatchesTheTreeWalkOnASeededMutationSweep) {
  util::Rng rng(31);
  const std::vector<std::string> bases = {
      append_json_text(edge_case_network()),
      append_json_text(random_connected_network(rng, 6, 20, {})),
      tree_to_json(random_connected_network(rng, 5, 12, {})).dump(1),
  };
  const std::string_view bytes = "{}[]\",:. -+0123456789eEtfnul\\x";
  const std::vector<std::string_view> values = {
      "0", "-1", "1.5", "1e400", "\"s\"", "null", "true", "[]", "{}", "[1]",
      R"({"a":1})"};
  std::size_t refused = 0;
  for (const std::string& base : bases) {
    expect_same_reading(base);
    for (int round = 0; round < 300; ++round) {
      std::string text = base;
      switch (rng.index(3)) {
        case 0:
          text.resize(rng.index(text.size()));
          break;
        case 1:
          text[rng.index(text.size())] = bytes[rng.index(bytes.size())];
          break;
        default: {
          // The value after a ':' (up to the next ',' or '}').
          std::size_t colon = text.find(':', rng.index(text.size()));
          if (colon == std::string::npos) {
            colon = text.find(':');
          }
          const std::size_t end = text.find_first_of(",}", colon);
          text.replace(colon + 1, end - colon - 1,
                       values[rng.index(values.size())]);
          break;
        }
      }
      expect_same_reading(text);
      refused += read_by_tree(text).network.has_value() ? 0 : 1;
    }
  }
  // The sweep exercises refusals, not only documents that still read.
  EXPECT_GT(refused, 300u);
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
