#pragma once
// The two tree-based halves of the network schema that the text writer
// and reader replaced, kept for the tests (and the layer bench) as
// oracles: the Json tree graph::to_json built before graph::append_json
// wrote the document straight to text, and the walk over a parsed tree
// that built the Network before graph::read_network_json read it
// straight from the text.

#include <string_view>
#include <utility>

#include "graph/network.hpp"
#include "graph/serialize.hpp"
#include "util/json.hpp"

namespace elpc::graph::testing {

inline util::Json tree_to_json(const Network& net) {
  util::JsonArray nodes;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    util::Json n;
    n.set("name", net.node(v).name);
    n.set("power", net.node(v).processing_power);
    nodes.push_back(std::move(n));
  }
  util::JsonArray links;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    for (const Edge& e : net.out_edges(v)) {
      util::Json l;
      l.set("from", e.from);
      l.set("to", e.to);
      l.set("bandwidth_mbps", e.attr.bandwidth_mbps);
      l.set("min_delay_s", e.attr.min_delay_s);
      links.push_back(std::move(l));
    }
  }
  util::Json doc;
  doc.set("nodes", util::Json(std::move(nodes)));
  doc.set("links", util::Json(std::move(links)));
  return doc;
}

/// The Network a walk over the parsed tree `doc` builds, member by
/// member, throwing the first refusal it meets.  A link's "to" is read
/// before its "from": the order the walk's compiled form evaluated them
/// in, which its error messages record.
inline Network tree_network_from_json(const util::Json& doc) {
  Network net;
  for (const util::Json& n : doc.at("nodes").as_array()) {
    NodeAttr attr;
    attr.name = n.at("name").as_string();
    attr.processing_power = n.at("power").as_number();
    net.add_node(std::move(attr));
  }
  const util::JsonArray& links = doc.at("links").as_array();
  net.reserve_links(links.size());
  for (const util::Json& l : links) {
    (void)l.as_object();
    LinkAttr attr;
    attr.bandwidth_mbps = l.at("bandwidth_mbps").as_number();
    attr.min_delay_s = l.at("min_delay_s").as_number();
    const NodeId to = node_id_from_json(l.at("to"), "to");
    const NodeId from = node_id_from_json(l.at("from"), "from");
    net.add_link(from, to, attr);
  }
  net.validate();
  return net;
}

}  // namespace elpc::graph::testing
