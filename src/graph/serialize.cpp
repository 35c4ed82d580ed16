#include "graph/serialize.hpp"

#include <stdexcept>

namespace elpc::graph {

NodeId node_id_from_json(const util::Json& value, std::string_view field) {
  const std::int64_t id = value.as_int();
  if (id < 0 || id > kMaxWireNodeId) {
    throw std::invalid_argument("'" + std::string(field) +
                                "' must be a node id in [0, 2^53), got " +
                                value.dump());
  }
  return static_cast<NodeId>(id);
}

util::Json to_json(const Network& net) {
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

Network network_from_json(const util::Json& doc) {
  Network net;
  for (const util::Json& n : doc.at("nodes").as_array()) {
    NodeAttr attr;
    attr.name = n.at("name").as_string();
    attr.processing_power = n.at("power").as_number();
    net.add_node(std::move(attr));
  }
  for (const util::Json& l : doc.at("links").as_array()) {
    LinkAttr attr;
    attr.bandwidth_mbps = l.at("bandwidth_mbps").as_number();
    attr.min_delay_s = l.at("min_delay_s").as_number();
    net.add_link(node_id_from_json(l.at("from"), "from"),
                 node_id_from_json(l.at("to"), "to"), attr);
  }
  net.validate();
  return net;
}

std::string to_adjacency_matrix(const Network& net) {
  std::string out;
  for (NodeId a = 0; a < net.node_count(); ++a) {
    for (NodeId b = 0; b < net.node_count(); ++b) {
      if (b > 0) {
        out += ' ';
      }
      out += net.has_link(a, b) ? '1' : '0';
    }
    out += '\n';
  }
  return out;
}

}  // namespace elpc::graph
