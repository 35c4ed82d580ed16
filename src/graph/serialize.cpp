#include "graph/serialize.hpp"

#include <cmath>
#include <exception>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

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

void append_json(std::string& out, const Network& net, int indent,
                 int depth) {
  // Room for the links at their widest, so a large network's document
  // is written without regrowing `out`; the reserved bytes no link
  // needs are never written.  Pretty-printing adds five line breaks
  // per link, each indented at most three levels past `depth`.
  const std::size_t link_pad =
      indent > 0 ? 5 * (1 + static_cast<std::size_t>(indent) *
                                static_cast<std::size_t>(depth + 3))
                 : 0;
  out.reserve(out.size() + net.link_count() * (kMaxLinkJsonBytes + link_pad));
  // Members in key order, as dump() sorts them, laid out as dump(indent)
  // lays them out `depth` levels deep.  Ids are written as the doubles a
  // Json number holds.
  const auto newline = [&](int level) {
    if (indent > 0) {
      util::dump_newline(out, indent, level);
    }
  };
  // Each key with its quotes and colon (and the space dump(indent) puts
  // after it), written by one append.
  const auto key = [indent](std::string_view compact, std::string_view spaced) {
    return indent > 0 ? spaced : compact;
  };
  const std::string_view bandwidth_key =
      key(R"("bandwidth_mbps":)", R"("bandwidth_mbps": )");
  const std::string_view from_key = key(R"("from":)", R"("from": )");
  const std::string_view delay_key =
      key(R"("min_delay_s":)", R"("min_delay_s": )");
  const std::string_view to_key = key(R"("to":)", R"("to": )");
  const std::string_view name_key = key(R"("name":)", R"("name": )");
  const std::string_view power_key = key(R"("power":)", R"("power": )");
  const auto number = [&](std::string_view name, double value, int level) {
    newline(level);
    out += name;
    util::dump_number(out, value);
  };
  out += '{';
  newline(depth + 1);
  out += key(R"("links":)", R"("links": )");
  out += '[';
  const char* separator = "";
  for (NodeId v = 0; v < net.node_count(); ++v) {
    for (const Edge& e : net.out_edges(v)) {
      out += separator;
      separator = ",";
      newline(depth + 2);
      out += '{';
      number(bandwidth_key, e.attr.bandwidth_mbps, depth + 3);
      out += ',';
      number(from_key, static_cast<double>(e.from), depth + 3);
      out += ',';
      number(delay_key, e.attr.min_delay_s, depth + 3);
      out += ',';
      number(to_key, static_cast<double>(e.to), depth + 3);
      newline(depth + 2);
      out += '}';
    }
  }
  if (net.link_count() > 0) {
    newline(depth + 1);
  }
  out += "],";
  newline(depth + 1);
  out += key(R"("nodes":)", R"("nodes": )");
  out += '[';
  separator = "";
  for (NodeId v = 0; v < net.node_count(); ++v) {
    out += separator;
    separator = ",";
    newline(depth + 2);
    out += '{';
    newline(depth + 3);
    out += name_key;
    util::dump_string(out, net.node(v).name);
    out += ',';
    number(power_key, net.node(v).processing_power, depth + 3);
    newline(depth + 2);
    out += '}';
  }
  if (net.node_count() > 0) {
    newline(depth + 1);
  }
  out += ']';
  newline(depth);
  out += '}';
}

util::Json to_json(const Network& net) {
  std::string text;
  append_json(text, net);
  return util::Json::parse(text);
}

namespace {

using Kind = util::JsonCursor::Kind;

/// A member of one node or link object: the kind of its last value (a
/// repeated key's last value wins, as in a parsed tree), and that value
/// when it is a number or a string, or absent.  Its accessors return
/// what the tree walker's accessors returned, and throw what they threw.
struct Member {
  bool present = false;
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string text;

  void read(util::JsonCursor& in) {
    present = true;
    kind = in.peek();
    if (kind == Kind::kNumber) {
      number = in.read_number();
    } else if (kind == Kind::kString) {
      text.assign(in.read_string());
    } else {
      in.skip_value();
    }
  }

  /// The value as the tree held it: only a container's kind matters.
  /// Throws what Json::at throws for a missing key.
  [[nodiscard]] util::Json tree(std::string_view key) const {
    if (!present) {
      throw util::JsonError("Json: missing key '" + std::string(key) + "'");
    }
    switch (kind) {
      case Kind::kNumber: return util::Json(number);
      case Kind::kString: return util::Json(text);
      case Kind::kBool: return util::Json(false);
      case Kind::kArray: return util::Json(util::JsonArray{});
      case Kind::kObject: return util::Json(util::JsonObject{});
      case Kind::kNull: break;
    }
    return util::Json(nullptr);
  }

  [[nodiscard]] std::string as_string(std::string_view key) {
    return present && kind == Kind::kString ? std::move(text)
                                            : tree(key).as_string();
  }
  [[nodiscard]] double as_number(std::string_view key) const {
    return present && kind == Kind::kNumber ? number : tree(key).as_number();
  }
  [[nodiscard]] NodeId as_node_id(std::string_view key) const {
    // A whole number in range is what node_id_from_json accepts as is;
    // anything else takes its own checks, for their verdict and message.
    if (present && kind == Kind::kNumber && number >= 0.0 &&
        number <= static_cast<double>(kMaxWireNodeId) &&
        number == std::floor(number)) {
      return static_cast<NodeId>(number);
    }
    return node_id_from_json(tree(key), key);
  }
};

/// A member name and the Member its value is read into.
using Field = std::pair<std::string_view, Member*>;

/// Reads the object at the cursor into `fields`: each named member's
/// last value, other members skipped.  What an earlier object left in
/// them is cleared first.
void read_fields(util::JsonCursor& in, std::span<const Field> fields) {
  for (const auto& field : fields) {
    field.second->present = false;
  }
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    Member* target = nullptr;
    for (const auto& [name, member] : fields) {
      if (key == name) {
        target = member;
        break;
      }
    }
    if (target != nullptr) {
      target->read(in);
    } else {
      in.skip_value();
    }
  }
}

/// One "nodes" or "links" member of the document: its entries up to the
/// first one the schema refuses, and that refusal.  Building the Network
/// from the entries in order, then throwing `error`, reports exactly
/// what a walk over a parsed tree reports first.
template <typename Entry>
struct Section {
  bool present = false;
  bool is_array = false;
  std::vector<Entry> entries;
  std::exception_ptr error;

  /// Reads the member's value; `entry` reads one element, which is an
  /// object, into an Entry or throws what the schema says of it.  A
  /// repeated member replaces the earlier one.
  template <typename ReadEntry>
  void read(util::JsonCursor& in, ReadEntry&& entry) {
    *this = Section();
    present = true;
    if (in.peek() != Kind::kArray) {
      in.skip_value();
      return;
    }
    is_array = true;
    in.begin_array();
    while (in.next_element()) {
      if (error) {
        in.skip_value();  // the refusal is settled; only syntax is left
        continue;
      }
      try {
        if (in.peek() != Kind::kObject) {
          in.skip_value();
          throw util::JsonError("Json: not an object");
        }
        entries.push_back(entry(in));
      } catch (const util::JsonParseError&) {
        throw;
      } catch (...) {
        error = std::current_exception();
      }
    }
  }

  /// What the tree walker threw for this member before its entries.
  void check(std::string_view key) const {
    if (!present) {
      throw util::JsonError("Json: missing key '" + std::string(key) + "'");
    }
    if (!is_array) {
      throw util::JsonError("Json: not an array");
    }
  }
};

}  // namespace

Network read_network_json(util::JsonCursor& in) {
  if (in.peek() != Kind::kObject) {
    in.skip_value();
    throw util::JsonError("Json: not an object");
  }
  Section<NodeAttr> nodes;
  Section<Edge> links;
  // Each node or link object is read into its Members as its members
  // come; the field checks run once the object is closed, in the order
  // the tree walker ran them.
  Member name;
  Member power;
  const Field node_fields[] = {{"name", &name}, {"power", &power}};
  const auto read_node = [&](util::JsonCursor& cursor) {
    read_fields(cursor, node_fields);
    NodeAttr attr;
    attr.name = name.as_string("name");
    attr.processing_power = power.as_number("power");
    return attr;
  };
  Member bandwidth;
  Member from;
  Member delay;
  Member to;
  const Field link_fields[] = {{"bandwidth_mbps", &bandwidth},
                               {"from", &from},
                               {"min_delay_s", &delay},
                               {"to", &to}};
  const auto read_link = [&](util::JsonCursor& cursor) {
    read_fields(cursor, link_fields);
    Edge edge;
    edge.attr.bandwidth_mbps = bandwidth.as_number("bandwidth_mbps");
    edge.attr.min_delay_s = delay.as_number("min_delay_s");
    // "to" before "from": the order the tree walker's compiled form
    // evaluated its add_link arguments in, which a link wrong in both
    // shows.
    edge.to = to.as_node_id("to");
    edge.from = from.as_node_id("from");
    return edge;
  };
  std::string_view key;
  in.begin_object();
  while (in.next_key(key)) {
    if (key == "nodes") {
      nodes.read(in, read_node);
    } else if (key == "links") {
      links.read(in, read_link);
    } else {
      in.skip_value();
    }
  }
  // The whole value is read, so every syntax error has been thrown; the
  // schema's refusals follow in the tree walker's order: the nodes, one
  // by one, then the links.
  nodes.check("nodes");
  Network net;
  for (NodeAttr& attr : nodes.entries) {
    net.add_node(std::move(attr));
  }
  if (nodes.error) {
    std::rethrow_exception(nodes.error);
  }
  links.check("links");
  net.reserve_links(links.entries.size());
  for (const Edge& e : links.entries) {
    net.add_link(e.from, e.to, e.attr);
  }
  if (links.error) {
    std::rethrow_exception(links.error);
  }
  net.validate();
  return net;
}

Network network_from_json(const util::Json& doc) {
  const std::string text = doc.dump();
  util::JsonCursor in(text);
  return read_network_json(in);
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
