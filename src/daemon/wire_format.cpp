#include "daemon/wire_format.hpp"

#include <cstring>
#include <limits>
#include <utility>

#include "service/serialize.hpp"

namespace elpc::daemon::wire {

namespace {

// All integers little-endian, floats as their IEEE-754 bit pattern —
// byte-exact round trips (stronger than JSON's text doubles, which are
// merely value-exact via %.17g).

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::string& out, std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw WireFormatError("string field exceeds u32 length");
  }
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian reader over one payload (or one
/// descriptor's slice of it).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_++]))
           << shift;
    }
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_++]))
           << shift;
    }
    return v;
  }

  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw WireFormatError("truncated binary payload (wanted " +
                            std::to_string(n) + " bytes, " +
                            std::to_string(bytes_.size() - pos_) + " left)");
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

std::uint32_t node_u32(graph::NodeId node) {
  if (node > std::numeric_limits<std::uint32_t>::max()) {
    throw WireFormatError("node id " + std::to_string(node) +
                          " exceeds the u32 wire range");
  }
  return static_cast<std::uint32_t>(node);
}

/// One result entry's blob: the canonical field set only (see
/// service::result_entry_to_json) — non-canonical timing/kernel
/// metadata never crosses the wire, exactly like v1.
std::string encode_entry(const service::SolveResult& r) {
  std::string out;
  put_u8(out, r.result.feasible ? 1 : 0);
  put_u8(out, r.objective == service::Objective::kMaxFrameRate ? 1 : 0);
  put_u8(out, 0);  // reserved
  put_u8(out, 0);  // reserved
  put_u64(out, r.network_revision);
  put_f64(out, r.result.seconds);
  put_string(out, r.job_id);
  put_string(out, r.network);
  put_string(out, r.algorithm);
  put_string(out, r.error);
  put_string(out, r.result.reason);
  const std::vector<graph::NodeId>& assignment = r.result.mapping.assignment();
  put_u32(out, static_cast<std::uint32_t>(assignment.size()));
  for (const graph::NodeId node : assignment) {
    put_u32(out, node_u32(node));
  }
  return out;
}

service::SolveResult decode_entry(std::string_view blob) {
  Reader in(blob);
  service::SolveResult r;
  const bool feasible = in.u8() != 0;
  r.objective = in.u8() != 0 ? service::Objective::kMaxFrameRate
                             : service::Objective::kMinDelay;
  (void)in.u8();
  (void)in.u8();
  r.network_revision = in.u64();
  const double seconds = in.f64();
  r.job_id = in.str();
  r.network = in.str();
  r.algorithm = in.str();
  r.error = in.str();
  std::string reason = in.str();
  const std::uint32_t mapping_count = in.u32();
  std::vector<graph::NodeId> assignment;
  assignment.reserve(mapping_count);
  for (std::uint32_t i = 0; i < mapping_count; ++i) {
    assignment.push_back(static_cast<graph::NodeId>(in.u32()));
  }
  if (in.remaining() != 0) {
    throw WireFormatError("result entry has " +
                          std::to_string(in.remaining()) + " trailing bytes");
  }
  r.result.feasible = feasible;
  r.result.seconds = seconds;
  r.result.reason = std::move(reason);
  if (!assignment.empty()) {
    r.result.mapping = mapping::Mapping(std::move(assignment));
  }
  return r;
}

}  // namespace

std::string encode_header(FrameType type, std::uint8_t flags,
                          std::uint32_t length) {
  std::string out;
  out.reserve(kHeaderBytes);
  put_u8(out, kMagic0);
  put_u8(out, kMagic1);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u8(out, flags);
  put_u32(out, length);
  return out;
}

std::optional<FrameHeader> parse_header(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    return std::nullopt;
  }
  if (static_cast<unsigned char>(bytes[0]) != kMagic0 ||
      static_cast<unsigned char>(bytes[1]) != kMagic1) {
    throw WireFormatError("bad binary frame magic");
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(static_cast<unsigned char>(bytes[2]));
  header.flags = static_cast<std::uint8_t>(bytes[3]);
  if (header.flags != 0) {
    throw WireFormatError("nonzero reserved frame flags");
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(bytes[4 + i]))
              << (8 * i);
  }
  header.length = length;
  return header;
}

std::string encode_result_table(
    std::span<const service::SolveResult> results) {
  std::vector<std::string> blobs;
  blobs.reserve(results.size());
  std::size_t blob_bytes = 0;
  for (const service::SolveResult& r : results) {
    blobs.push_back(encode_entry(r));
    blob_bytes += blobs.back().size();
  }
  std::string out;
  out.reserve(4 + blobs.size() * 8 + blob_bytes);
  put_u32(out, static_cast<std::uint32_t>(blobs.size()));
  std::uint32_t offset = 0;
  for (const std::string& blob : blobs) {
    put_u32(out, offset);
    put_u32(out, static_cast<std::uint32_t>(blob.size()));
    offset += static_cast<std::uint32_t>(blob.size());
  }
  for (const std::string& blob : blobs) {
    out.append(blob);
  }
  return out;
}

std::vector<service::SolveResult> decode_result_table(
    std::string_view payload) {
  Reader table(payload);
  const std::uint32_t count = table.u32();
  // Descriptor sanity before touching the blob: each {offset, length}
  // must land inside the region after the table.
  if (payload.size() < 4 + static_cast<std::size_t>(count) * 8) {
    throw WireFormatError("result table truncated before its descriptors");
  }
  const std::size_t blob_start = 4 + static_cast<std::size_t>(count) * 8;
  const std::size_t blob_size = payload.size() - blob_start;
  std::vector<service::SolveResult> results;
  results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t offset = table.u32();
    const std::uint32_t length = table.u32();
    if (offset > blob_size || blob_size - offset < length) {
      throw WireFormatError("result descriptor " + std::to_string(i) +
                            " points outside the blob region");
    }
    results.push_back(
        decode_entry(payload.substr(blob_start + offset, length)));
  }
  return results;
}

std::string encode_link_update_table(
    std::string_view network, std::span<const graph::LinkUpdate> updates) {
  std::string out;
  out.reserve(4 + network.size() + 4 + updates.size() * 24);
  put_string(out, network);
  put_u32(out, static_cast<std::uint32_t>(updates.size()));
  for (const graph::LinkUpdate& update : updates) {
    put_u32(out, node_u32(update.from));
    put_u32(out, node_u32(update.to));
    put_f64(out, update.attr.bandwidth_mbps);
    put_f64(out, update.attr.min_delay_s);
  }
  return out;
}

LinkUpdateTable decode_link_update_table(std::string_view payload) {
  Reader in(payload);
  LinkUpdateTable table;
  table.network = in.str();
  const std::uint32_t count = in.u32();
  table.updates.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    graph::LinkUpdate update;
    update.from = static_cast<graph::NodeId>(in.u32());
    update.to = static_cast<graph::NodeId>(in.u32());
    update.attr.bandwidth_mbps = in.f64();
    update.attr.min_delay_s = in.f64();
    table.updates.push_back(update);
  }
  if (in.remaining() != 0) {
    throw WireFormatError("link-update table has trailing bytes");
  }
  return table;
}

void inline_results(util::Json& control, std::string_view marker,
                    std::span<const service::SolveResult> results) {
  if (marker == "result") {
    control.set("result", service::result_entry_to_json(results.front()));
    return;
  }
  util::JsonArray entries;
  entries.reserve(results.size());
  for (const service::SolveResult& r : results) {
    entries.push_back(service::result_entry_to_json(r));
  }
  control.set("results", util::Json(std::move(entries)));
}

}  // namespace elpc::daemon::wire
