#pragma once
// JSON (de)serialization of networks, plus the adjacency-matrix view the
// paper describes ("arbitrary in topology described in the form of an
// adjacency matrix", Section 4.1).
//
// The schema has one writer and one reader, both over text.  The writer,
// append_json, prints the document straight into a string; to_json is
// that text parsed, for a caller that embeds the network in a larger
// tree.  The reader, read_network_json, builds the Network straight from
// the text at a util::JsonCursor, with no tree in between: the daemon
// reads a register_network frame's network with it in the same pass as
// the rest of the frame.  network_from_json is that reader over a tree's
// dump(), for the callers that hold a tree.

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/network.hpp"
#include "util/json.hpp"

namespace elpc::graph {

/// Node ids on the wire are integers in [0, 2^53): past 2^53 a JSON
/// number no longer names one integer.
inline constexpr std::int64_t kMaxWireNodeId = (std::int64_t{1} << 53) - 1;

/// Reads the node id `value` sent as `field` (a name for the message).
/// Throws std::invalid_argument naming the field and the value as sent
/// when it is negative or past kMaxWireNodeId, so -1 never wraps into a
/// huge NodeId; util::JsonError when it is not an integer.
[[nodiscard]] NodeId node_id_from_json(const util::Json& value,
                                       std::string_view field);

/// Appends the network's canonical JSON document to `out`:
/// {"links":[{"bandwidth_mbps","from","min_delay_s","to"}...],
///  "nodes":[{"name","power"}...]}
/// with links in out-row order (ascending (from, to)) and nodes by id.
/// This is the schema's one writer.  It prints straight to text through
/// util::dump_string / util::dump_number, so the bytes are exactly what
/// dump(indent) prints for the same document nested `depth` levels
/// deep, and it allocates nothing per link or node: only `out` grows.
void append_json(std::string& out, const Network& net, int indent = 0,
                 int depth = 0);

/// The document append_json writes, parsed: a tree for callers that
/// embed the network in a larger Json value.
[[nodiscard]] util::Json to_json(const Network& net);

/// Reads the network document at `in`, consuming exactly that value,
/// and builds the Network from it: the schema's one reader.  A syntax
/// error throws at once (util::JsonParseError, with its offset).  The
/// schema's refusals (util::JsonError for a missing or mistyped member,
/// std::invalid_argument for a bad id or link, from node_id_from_json
/// and Network) are thrown only once the whole value is read, and the
/// one thrown is the first a walk over the parsed tree meets: whatever
/// the member order, a repeated key's last value counting, unknown
/// members ignored.
[[nodiscard]] Network read_network_json(util::JsonCursor& in);

/// read_network_json over `doc`'s dump(): for callers that hold a tree.
/// A non-finite number in `doc` dumps as null and is refused as one.
[[nodiscard]] Network network_from_json(const util::Json& doc);

/// 0/1 adjacency matrix as text, one row per line ("0 1 1\n1 0 0\n...").
[[nodiscard]] std::string to_adjacency_matrix(const Network& net);

}  // namespace elpc::graph
