#pragma once
// Protocol v2 wire format — the binary data plane the `hello` verb
// negotiates on top of the v1 JSON-lines protocol (docs/protocol.md §8
// is the normative reference).
//
// Version negotiation: both sides advertise [min, max]; the effective
// version is min(client_max, server_max) when the ranges overlap, else
// the connection stays at v1 (code "version_mismatch").  A connection
// that never sends `hello` is v1 — old clients keep working
// byte-for-byte.
//
// Binary frames coexist with JSON lines on the same byte stream: a
// frame begins with a magic byte (0xE1) that can never start a JSON
// text line, so the framing layer looks at the first buffered byte to
// pick the extractor.  Header, 8 bytes, little-endian:
//
//   offset 0  u8   magic0 = 0xE1
//   offset 1  u8   magic1 = 0x5C
//   offset 2  u8   type   (FrameType)
//   offset 3  u8   flags  (reserved, must be 0)
//   offset 4  u32  payload length in bytes
//
// Payloads use a descriptor-table layout (the sector/descriptor idiom
// of DMA-style transports): a u32 entry count, then one {u32 offset,
// u32 length} descriptor per entry relative to the blob region that
// follows the table, then the blob.  Entries decode independently, so
// a reader can skip or random-access without parsing its neighbours.
//
// Only the CANONICAL result fields cross the wire (the same set
// service::result_entry_to_json serializes without timing): decoding a
// v2 result table and re-serializing it as JSON is byte-identical to
// the v1 response for the same solve — the property the conformance
// driver's interop leg asserts.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/network.hpp"
#include "service/batch_engine.hpp"
#include "util/json.hpp"

namespace elpc::daemon::wire {

/// Versions this build speaks.  v1 = JSON lines only; v2 adds the
/// binary data plane below.
inline constexpr int kProtocolVersionMin = 1;
inline constexpr int kProtocolVersionMax = 2;

inline constexpr unsigned char kMagic0 = 0xE1;
inline constexpr unsigned char kMagic1 = 0x5C;
inline constexpr std::size_t kHeaderBytes = 8;

/// Payload kinds.  Values are wire-stable; add, never renumber.
enum class FrameType : std::uint8_t {
  /// Server->client: descriptor table of canonical result entries (the
  /// bulk payload of terminal poll/wait and apply_link_updates on v2).
  kResultTable = 1,
  /// Client->server: an apply_link_updates request as a binary table
  /// (network id + packed updates) — the request-side data plane.
  kLinkUpdateTable = 2,
};

/// Malformed binary frame or payload (bad magic, truncated table,
/// descriptor out of range).  The protocol layer answers code
/// "protocol" and closes: a peer violating the framing cannot be
/// trusted to re-sync.
class WireFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FrameHeader {
  FrameType type = FrameType::kResultTable;
  std::uint8_t flags = 0;
  std::uint32_t length = 0;
};

/// The 8 header bytes for a payload of `length` bytes.
[[nodiscard]] std::string encode_header(FrameType type, std::uint8_t flags,
                                        std::uint32_t length);

/// True when `first` can only begin a binary frame, never a JSON line.
[[nodiscard]] constexpr bool is_frame_start(unsigned char first) {
  return first == kMagic0;
}

/// Parses a header from the front of `bytes`.  nullopt = fewer than
/// kHeaderBytes buffered (keep reading); throws WireFormatError on a
/// bad second magic byte or nonzero reserved flags.
[[nodiscard]] std::optional<FrameHeader> parse_header(std::string_view bytes);

// ---- result descriptor table (FrameType::kResultTable) ----

/// Packs the canonical fields of each result into one descriptor-table
/// payload (header NOT included).  Node ids are packed as u32; an
/// assignment entry beyond 32 bits throws WireFormatError (no real
/// network is within 9 orders of magnitude of that).
[[nodiscard]] std::string encode_result_table(
    std::span<const service::SolveResult> results);

/// Inverse of encode_result_table; throws WireFormatError on any
/// truncation or out-of-range descriptor.
[[nodiscard]] std::vector<service::SolveResult> decode_result_table(
    std::string_view payload);

/// The v1 form of the results a result table carries: sets `marker` on
/// `control` to their canonical JSON entries ("result" holds the one
/// entry, "results" the list).  The server's v1 replies and a v2
/// client's reinflated answers both come from here, so they share
/// their bytes.
void inline_results(util::Json& control, std::string_view marker,
                    std::span<const service::SolveResult> results);

// ---- link-update table (FrameType::kLinkUpdateTable) ----

/// Packs an apply_link_updates request: the network id string, then the
/// updates as fixed 24-byte records {u32 from, u32 to, f64 bandwidth,
/// f64 min_delay}.
[[nodiscard]] std::string encode_link_update_table(
    std::string_view network, std::span<const graph::LinkUpdate> updates);

struct LinkUpdateTable {
  std::string network;
  std::vector<graph::LinkUpdate> updates;
};

[[nodiscard]] LinkUpdateTable decode_link_update_table(
    std::string_view payload);

}  // namespace elpc::daemon::wire
