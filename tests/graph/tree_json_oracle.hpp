#pragma once
// The Json tree graph::to_json built before graph::append_json wrote the
// document straight to text.  Kept for the tests as the oracle the
// direct writer's bytes (and the register_network frame's) are held to.

#include <utility>

#include "graph/network.hpp"
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

}  // namespace elpc::graph::testing
