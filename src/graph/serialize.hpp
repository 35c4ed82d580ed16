#pragma once
// JSON (de)serialization of networks, plus the adjacency-matrix view the
// paper describes ("arbitrary in topology described in the form of an
// adjacency matrix", Section 4.1).
//
// The schema has one writer, append_json, which prints the document as
// text; to_json is that text parsed, so a tree and a register_network
// frame can never disagree about the bytes.

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
/// dump() prints for the same document, and it allocates nothing per
/// link or node: only `out` grows.
void append_json(std::string& out, const Network& net);

/// The document append_json writes, parsed: a tree for callers that
/// embed the network in a larger Json value.
[[nodiscard]] util::Json to_json(const Network& net);

/// Inverse of to_json; validates and throws util::JsonError /
/// std::invalid_argument on malformed documents.
[[nodiscard]] Network network_from_json(const util::Json& doc);

/// 0/1 adjacency matrix as text, one row per line ("0 1 1\n1 0 0\n...").
[[nodiscard]] std::string to_adjacency_matrix(const Network& net);

}  // namespace elpc::graph
