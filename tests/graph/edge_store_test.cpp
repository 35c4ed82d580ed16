// The finalized edge store against a std::map reference: random
// networks, random insertion order, links added after finalize(), and
// random metric deltas on copies that share chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/network.hpp"
#include "graph/serialize.hpp"
#include "util/rng.hpp"

namespace elpc::graph {
namespace {

using Reference = std::map<std::pair<NodeId, NodeId>, LinkAttr>;

LinkAttr random_attr(util::Rng& rng) {
  return LinkAttr{rng.uniform_real(1.0, 1000.0),
                  rng.uniform_real(0.0, 0.05)};
}

/// `count` distinct random links over `nodes` nodes, in random order.
std::vector<Edge> random_links(util::Rng& rng, std::size_t nodes,
                               std::size_t count) {
  std::vector<Edge> all;
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = 0; b < nodes; ++b) {
      if (a != b) {
        all.push_back(Edge{a, b, random_attr(rng)});
      }
    }
  }
  rng.shuffle(all);
  all.resize(std::min(count, all.size()));
  return all;
}

Network build(std::size_t nodes, const std::vector<Edge>& links,
              Reference& ref) {
  Network net;
  for (std::size_t v = 0; v < nodes; ++v) {
    net.add_node(NodeAttr{});
  }
  for (const Edge& e : links) {
    net.add_link(e.from, e.to, e.attr);
    ref[{e.from, e.to}] = e.attr;
  }
  return net;
}

bool same_attr(const LinkAttr& a, const LinkAttr& b) {
  return a.bandwidth_mbps == b.bandwidth_mbps &&
         a.min_delay_s == b.min_delay_s;
}

/// find_link / has_link on every ordered pair (present or not), plus
/// out-of-range ids.
void expect_lookups(const Network& net, const Reference& ref) {
  const std::size_t k = net.node_count();
  for (NodeId a = 0; a < k; ++a) {
    for (NodeId b = 0; b < k; ++b) {
      const auto it = ref.find({a, b});
      const std::optional<LinkAttr> found = net.find_link(a, b);
      ASSERT_EQ(found.has_value(), it != ref.end()) << a << " -> " << b;
      EXPECT_EQ(net.has_link(a, b), it != ref.end());
      if (found) {
        EXPECT_TRUE(same_attr(*found, it->second)) << a << " -> " << b;
      }
    }
  }
  EXPECT_FALSE(net.has_link(k, 0));
  EXPECT_FALSE(net.find_link(0, k + 7).has_value());
}

/// Spans, degrees, lookups and the link count all agree with `ref`.
void expect_matches(const Network& net, const Reference& ref,
                    const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(net.link_count(), ref.size());
  const std::size_t k = net.node_count();
  std::vector<std::vector<Edge>> out(k);
  std::vector<std::vector<Edge>> in(k);
  for (const auto& [key, attr] : ref) {  // map order: by (from, to)
    out[key.first].push_back(Edge{key.first, key.second, attr});
    in[key.second].push_back(Edge{key.first, key.second, attr});
  }
  for (NodeId v = 0; v < k; ++v) {
    const std::span<const Edge> got_out = net.out_edges(v);
    const std::span<const Edge> got_in = net.in_edges(v);
    ASSERT_EQ(got_out.size(), out[v].size()) << "out row " << v;
    ASSERT_EQ(got_in.size(), in[v].size()) << "in row " << v;
    EXPECT_EQ(net.out_degree(v), out[v].size());
    EXPECT_EQ(net.in_degree(v), in[v].size());
    for (std::size_t i = 0; i < out[v].size(); ++i) {
      EXPECT_EQ(got_out[i].from, v);
      EXPECT_EQ(got_out[i].to, out[v][i].to);
      EXPECT_TRUE(same_attr(got_out[i].attr, out[v][i].attr));
    }
    // In rows ascend in `from`, which the (from, to) map order gives.
    for (std::size_t i = 0; i < in[v].size(); ++i) {
      EXPECT_EQ(got_in[i].from, in[v][i].from);
      EXPECT_EQ(got_in[i].to, v);
      EXPECT_TRUE(same_attr(got_in[i].attr, in[v][i].attr));
    }
  }
  expect_lookups(net, ref);
}

/// Applies `steps` random single-link deltas to `net` and `ref`.
void random_deltas(util::Rng& rng, Network& net, Reference& ref,
                   std::size_t steps) {
  std::vector<std::pair<NodeId, NodeId>> keys;
  for (const auto& [key, attr] : ref) {
    keys.push_back(key);
  }
  for (std::size_t s = 0; s < steps; ++s) {
    const auto [from, to] = keys[rng.index(keys.size())];
    const LinkAttr attr = random_attr(rng);
    net.update_link(from, to, attr);
    ref[{from, to}] = attr;
  }
}

TEST(EdgeStore, MatchesReferenceForRandomInsertionOrder) {
  util::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t nodes = 2 + rng.index(40);
    const std::size_t links = rng.index(nodes * (nodes - 1) + 1);
    Reference ref;
    Network net = build(nodes, random_links(rng, nodes, links), ref);
    // Lookups before finalize see the staged links.
    expect_lookups(net, ref);
    EXPECT_FALSE(net.finalized());
    expect_matches(net, ref, "trial " + std::to_string(trial));
    EXPECT_TRUE(net.finalized());
    EXPECT_NO_THROW(net.validate());
  }
}

TEST(EdgeStore, RowsLongerThanAChunkAndManyChunks) {
  // A hub whose rows are longer than one chunk in both directions, and
  // enough other links to cut several chunks per direction.
  util::Rng rng(5);
  const std::size_t nodes = kEdgeChunkEdges + 80;
  std::vector<Edge> links;
  for (NodeId v = 1; v < nodes; ++v) {
    links.push_back(Edge{0, v, random_attr(rng)});
    links.push_back(Edge{v, 0, random_attr(rng)});
    links.push_back(Edge{v, 1 + v % (nodes - 1), random_attr(rng)});
  }
  std::erase_if(links, [](const Edge& e) { return e.from == e.to; });
  rng.shuffle(links);
  Reference ref;
  Network net = build(nodes, links, ref);
  expect_matches(net, ref, "hub");
  Network copy = net;
  random_deltas(rng, copy, ref, 50);
  expect_matches(copy, ref, "hub copy after deltas");
}

TEST(EdgeStore, AddLinkAfterFinalizeMergesStagedAndBuiltRows) {
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nodes = 3 + rng.index(30);
    std::vector<Edge> links =
        random_links(rng, nodes, rng.index(nodes * (nodes - 1) + 1));
    const std::size_t first = links.size() / 2;
    Reference ref;
    Network net =
        build(nodes, {links.begin(), links.begin() + first}, ref);
    net.finalize();
    // A delta on a built row, then more links: lookups and updates see
    // both the built rows and the staged links before the rebuild.
    if (!ref.empty()) {
      random_deltas(rng, net, ref, 3);
    }
    for (std::size_t i = first; i < links.size(); ++i) {
      net.add_link(links[i].from, links[i].to, links[i].attr);
      ref[{links[i].from, links[i].to}] = links[i].attr;
      EXPECT_THROW(net.add_link(links[i].from, links[i].to, links[i].attr),
                   std::invalid_argument);
    }
    if (!ref.empty()) {
      random_deltas(rng, net, ref, 3);
    }
    // A node added after the build has staged links only.
    const NodeId extra = net.add_node(NodeAttr{});
    net.add_link(extra, 0, LinkAttr{5.0, 0.0});
    ref[{extra, NodeId{0}}] = LinkAttr{5.0, 0.0};
    expect_lookups(net, ref);
    EXPECT_FALSE(net.finalized());
    expect_matches(net, ref, "trial " + std::to_string(trial));
    EXPECT_EQ(net.finalize_build_count(), 2u);
  }
}

TEST(EdgeStore, OutOfRangeIdsNeverAliasAStagedLink) {
  // Links staged out of order go through the packed-key index; an id
  // 2^32 past a real one must not find (or update) the real link.
  Network net;
  for (int i = 0; i < 4; ++i) {
    net.add_node(NodeAttr{});
  }
  net.add_link(2, 3, LinkAttr{10.0, 0.0});
  net.add_link(1, 2, LinkAttr{20.0, 0.0});  // out of order: index built
  const NodeId alias = NodeId{1} + (NodeId{1} << 32);
  EXPECT_FALSE(net.has_link(alias, 2));
  EXPECT_FALSE(net.find_link(1, NodeId{2} + (NodeId{1} << 32)).has_value());
  EXPECT_THROW(net.update_link(alias, 2, LinkAttr{1.0, 0.0}),
               std::out_of_range);
  EXPECT_DOUBLE_EQ(net.link(1, 2).bandwidth_mbps, 20.0);
}

TEST(EdgeStore, DeltaSequencesOnCopiesStayIsolated) {
  util::Rng rng(8);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t nodes = 20 + rng.index(60);
    Reference base_ref;
    Network base =
        build(nodes, random_links(rng, nodes, nodes * (nodes - 1) / 2),
              base_ref);
    base.finalize();
    // A chain of copies, each from the one before (as session revisions
    // are), plus siblings from the same source; the source itself keeps
    // taking deltas too.
    std::vector<Network> nets = {base};
    std::vector<Reference> refs = {base_ref};
    for (int step = 0; step < 12; ++step) {
      const std::size_t source = rng.index(nets.size());
      nets.push_back(nets[source]);
      refs.push_back(refs[source]);
      random_deltas(rng, nets.back(), refs.back(), 1 + rng.index(6));
      random_deltas(rng, nets[source], refs[source], rng.index(3));
    }
    for (std::size_t i = 0; i < nets.size(); ++i) {
      expect_matches(nets[i], refs[i],
                     "trial " + std::to_string(trial) + " copy " +
                         std::to_string(i));
      EXPECT_EQ(nets[i].finalize_build_count(), 1u);
    }
  }
}

TEST(EdgeStore, SameContentAndJsonBytesIgnoreInsertionOrder) {
  util::Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nodes = 2 + rng.index(30);
    std::vector<Edge> links =
        random_links(rng, nodes, 1 + rng.index(nodes * (nodes - 1)));
    Reference ref;
    const Network shuffled = build(nodes, links, ref);
    // The reference order: links added sorted by (from, to).
    Reference sorted_ref;
    std::vector<Edge> sorted;
    for (const auto& [key, attr] : ref) {
      sorted.push_back(Edge{key.first, key.second, attr});
    }
    Network in_order = build(nodes, sorted, sorted_ref);
    EXPECT_TRUE(shuffled.same_content(in_order));
    const std::string bytes = to_json(in_order).dump();
    EXPECT_EQ(to_json(shuffled).dump(), bytes);

    // A delta on a copy changes the copy's content and bytes only, and
    // the same delta on the other network brings them back together.
    Network copy = shuffled;
    const Edge& e = sorted[rng.index(sorted.size())];
    const LinkAttr changed{e.attr.bandwidth_mbps + 1.0, e.attr.min_delay_s};
    copy.update_link(e.from, e.to, changed);
    EXPECT_FALSE(copy.same_content(shuffled));
    EXPECT_NE(to_json(copy).dump(), bytes);
    EXPECT_EQ(to_json(shuffled).dump(), bytes);
    in_order.update_link(e.from, e.to, changed);
    EXPECT_TRUE(copy.same_content(in_order));
    EXPECT_EQ(to_json(copy).dump(), to_json(in_order).dump());
  }
}

TEST(EdgeStore, CopyAliasesEveryRowUntilAChunkIsWritten) {
  util::Rng rng(3);
  const std::size_t nodes = 120;
  Reference ref;
  Network net =
      build(nodes, random_links(rng, nodes, nodes * (nodes - 1) / 3), ref);
  net.finalize();
  Network copy = net;
  for (NodeId v = 0; v < nodes; ++v) {
    EXPECT_EQ(copy.out_edges(v).data(), net.out_edges(v).data());
    EXPECT_EQ(copy.in_edges(v).data(), net.in_edges(v).data());
  }
  const Edge e = net.out_edges(7).front();
  copy.update_link(e.from, e.to, LinkAttr{1.5, 0.0});
  EXPECT_NE(copy.out_edges(e.from).data(), net.out_edges(e.from).data());
  EXPECT_NE(copy.in_edges(e.to).data(), net.in_edges(e.to).data());
  // A second write to a chunk the copy already owns copies nothing.
  const Edge* const owned = copy.out_edges(e.from).data();
  copy.update_link(e.from, e.to, LinkAttr{2.5, 0.0});
  EXPECT_EQ(copy.out_edges(e.from).data(), owned);
  // Rows far from both touched rows still alias the source.
  std::size_t shared = 0;
  for (NodeId v = 0; v < nodes; ++v) {
    shared += copy.out_edges(v).data() == net.out_edges(v).data() ? 1 : 0;
  }
  EXPECT_GT(shared, nodes / 2);
  // The source, written after the copy, copies rather than leaking into
  // the copy.
  net.update_link(e.from, e.to, LinkAttr{9.0, 0.0});
  EXPECT_EQ(copy.link(e.from, e.to).bandwidth_mbps, 2.5);
  EXPECT_EQ(net.link(e.from, e.to).bandwidth_mbps, 9.0);
}

TEST(EdgeStore, CopiesShareNodeAttributesUntilANodeIsAdded) {
  util::Rng rng(4);
  const std::size_t nodes = 40;
  Reference ref;
  Network net = build(nodes, random_links(rng, nodes, nodes * 4), ref);
  net.finalize();
  Network copy = net;
  EXPECT_EQ(&copy.node(0), &net.node(0));
  const Edge e = net.out_edges(3).front();
  copy.update_link(e.from, e.to, LinkAttr{1.5, 0.0});
  EXPECT_EQ(&copy.node(0), &net.node(0));
  // Shared attributes are counted once: a copy of a link-free network
  // adds only its own object.
  Network hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.add_node(NodeAttr{});
  }
  const Network hosts_copy = hosts;
  std::unordered_set<const void*> seen;
  EXPECT_EQ(hosts.approx_bytes(seen), hosts.approx_bytes());
  EXPECT_EQ(hosts_copy.approx_bytes(seen), sizeof(Network));
  // A node added to the copy leaves the source's attributes alone.
  const NodeId extra = copy.add_node(NodeAttr{"extra", 2.0});
  EXPECT_NE(&copy.node(0), &net.node(0));
  EXPECT_EQ(copy.node_count(), nodes + 1);
  EXPECT_EQ(net.node_count(), nodes);
  EXPECT_EQ(copy.node(extra).name, "extra");
  EXPECT_EQ(copy.node(0).name, net.node(0).name);
}

}  // namespace
}  // namespace elpc::graph
