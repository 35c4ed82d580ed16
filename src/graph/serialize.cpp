#include "graph/serialize.hpp"

#include <stdexcept>
#include <string_view>

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

namespace {

/// Most bytes one link's object (and its separator) can take: the fixed
/// keys and punctuation, two doubles at their widest %.17g form and two
/// node ids (below 2^32, add_node's cap).
constexpr std::size_t kMaxLinkJsonBytes =
    std::string_view(R"({"bandwidth_mbps":,"from":,"min_delay_s":,"to":},)")
        .size() +
    2 * std::string_view("-2.2250738585072014e-308").size() +
    2 * std::string_view("4294967295").size();

}  // namespace

void append_json(std::string& out, const Network& net) {
  // Room for the links at their widest, so a large network's document
  // is written without regrowing `out`; the reserved bytes no link
  // needs are never written.
  out.reserve(out.size() + net.link_count() * kMaxLinkJsonBytes);
  // Members in key order, as dump() sorts them.  Ids are written as the
  // doubles a Json number holds.
  out += "{\"links\":[";
  const char* separator = "";
  for (NodeId v = 0; v < net.node_count(); ++v) {
    for (const Edge& e : net.out_edges(v)) {
      out += separator;
      separator = ",";
      out += "{\"bandwidth_mbps\":";
      util::dump_number(out, e.attr.bandwidth_mbps);
      out += ",\"from\":";
      util::dump_number(out, static_cast<double>(e.from));
      out += ",\"min_delay_s\":";
      util::dump_number(out, e.attr.min_delay_s);
      out += ",\"to\":";
      util::dump_number(out, static_cast<double>(e.to));
      out += '}';
    }
  }
  out += "],\"nodes\":[";
  separator = "";
  for (NodeId v = 0; v < net.node_count(); ++v) {
    out += separator;
    separator = ",";
    out += "{\"name\":";
    util::dump_string(out, net.node(v).name);
    out += ",\"power\":";
    util::dump_number(out, net.node(v).processing_power);
    out += '}';
  }
  out += "]}";
}

util::Json to_json(const Network& net) {
  std::string text;
  append_json(text, net);
  return util::Json::parse(text);
}

Network network_from_json(const util::Json& doc) {
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
    // One walk over the sorted members instead of a search per field; a
    // missing field goes through at() for its usual error.
    const util::Json* bandwidth = nullptr;
    const util::Json* from = nullptr;
    const util::Json* delay = nullptr;
    const util::Json* to = nullptr;
    for (const auto& [key, value] : l.as_object()) {
      if (key == "bandwidth_mbps") {
        bandwidth = &value;
      } else if (key == "from") {
        from = &value;
      } else if (key == "min_delay_s") {
        delay = &value;
      } else if (key == "to") {
        to = &value;
      }
    }
    const auto member = [&l](const util::Json* found, std::string_view key)
        -> const util::Json& { return found != nullptr ? *found : l.at(key); };
    LinkAttr attr;
    attr.bandwidth_mbps = member(bandwidth, "bandwidth_mbps").as_number();
    attr.min_delay_s = member(delay, "min_delay_s").as_number();
    net.add_link(node_id_from_json(member(from, "from"), "from"),
                 node_id_from_json(member(to, "to"), "to"), attr);
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
