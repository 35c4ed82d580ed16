// Allocation gate for encoding a network for register_network:
// graph::append_json writes the document straight to text, so the only
// allocations are the output string's growth (today one reservation
// sized for the links) — none per link or node.  The tree builder it
// replaced made several per link (one object, its members, the array
// growing).

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <string>

#include "alloc_counter.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "util/rng.hpp"

namespace elpc::graph {
namespace {

/// Allocations appending `net`'s document to an empty string makes, and
/// the document's size.
std::pair<std::size_t, std::size_t> encode(const Network& net) {
  net.finalize();  // the rows are built once, before any encode
  std::string text;
  const std::size_t count =
      alloc_gate::heap_use([&] { append_json(text, net); }).allocations;
  return {count, text.size()};
}

/// The E6 largest point (400 nodes at density 0.6, 95 760 links, ~9 MB
/// of JSON) against a 10-node network: the difference may be at most
/// the string doubling from one size to the other, plus one.
TEST(NetworkJsonAllocations, EncodingAllocatesNothingPerLink) {
  util::Rng rng(1);
  const Network small = random_connected_network(rng, 10, 54, {});
  const Network large = random_connected_network(rng, 400, 95'760, {});
  const auto [small_count, small_bytes] = encode(small);
  const auto [large_count, large_bytes] = encode(large);
  RecordProperty("small_allocations", static_cast<int>(small_count));
  RecordProperty("large_allocations", static_cast<int>(large_count));
  const std::size_t doublings =
      static_cast<std::size_t>(std::bit_width(large_bytes / small_bytes));
  EXPECT_LE(large_count, small_count + doublings + 1);
}

}  // namespace
}  // namespace elpc::graph
