#include "graph/network.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace elpc::graph {
namespace {

/// Packed (from, to) key of the staged-link index.  Exact for ids below
/// 2^32, which add_node guarantees and find_staged checks first.
std::uint64_t link_key(NodeId from, NodeId to) {
  return (std::uint64_t{from} << 32) | std::uint64_t{to};
}

/// Slot hash of a packed key: the MurmurHash3 64-bit finalizer.
std::size_t slot_hash(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return static_cast<std::size_t>(key);
}

/// Cuts one direction's rows into chunks: whole rows, up to
/// kEdgeChunkEdges edges each, a longer row on its own.  Returns the
/// first row of every chunk followed by the row count.
std::vector<NodeId> cut_chunks(const std::vector<std::size_t>& offsets) {
  const std::size_t k = offsets.size() - 1;
  std::vector<NodeId> cuts;
  // Two neighbouring chunks hold more than kEdgeChunkEdges edges between
  // them, which bounds the count.
  cuts.reserve(2 * offsets.back() / kEdgeChunkEdges + 2);
  cuts.push_back(0);
  std::size_t size = 0;
  for (NodeId v = 0; v < k; ++v) {
    const std::size_t degree = offsets[v + 1] - offsets[v];
    if (size > 0 && size + degree > kEdgeChunkEdges) {
      cuts.push_back(v);
      size = 0;
    }
    size += degree;
  }
  cuts.push_back(k);
  return cuts;
}

}  // namespace

NodeId Network::add_node(NodeAttr attr) {
  if (attr.processing_power <= 0.0) {
    throw std::invalid_argument("Network: processing_power must be > 0");
  }
  // The DP layers store node ids in 32-bit slots (FrameRateArena's
  // Candidate/ParentRec), and the staged-link index packs two ids into
  // one 64-bit key; fail loudly rather than truncate silently.
  const NodeId id = node_count();
  if (id >= (1ULL << 32)) {
    throw std::invalid_argument("Network: too many nodes");
  }
  if (attr.name.empty()) {
    attr.name = "node" + std::to_string(id);
  }
  if (!nodes_) {
    nodes_ = std::make_shared<std::vector<NodeAttr>>();
  } else if (nodes_.use_count() > 1) {
    nodes_ = std::make_shared<std::vector<NodeAttr>>(*nodes_);
  }
  nodes_->push_back(std::move(attr));
  finalized_ = false;
  ++version_;
  return id;
}

void Network::check_link_attr(const LinkAttr& attr) {
  if (attr.bandwidth_mbps <= 0.0) {
    throw std::invalid_argument("Network: bandwidth must be > 0");
  }
  if (attr.min_delay_s < 0.0) {
    throw std::invalid_argument("Network: min link delay must be >= 0");
  }
}

void Network::add_link(NodeId from, NodeId to, LinkAttr attr) {
  check_node(from);
  check_node(to);
  if (from == to) {
    throw std::invalid_argument("Network: self-loops are not allowed");
  }
  check_link_attr(attr);
  // A link past every staged one (ascending staging) cannot repeat one.
  const bool ascending =
      staged_index_.empty() &&
      (staged_.empty() ||
       link_key(staged_.back().from, staged_.back().to) < link_key(from, to));
  if (find_row_edge(from, to) != nullptr ||
      (!ascending && find_staged(from, to) >= 0)) {
    throw std::invalid_argument("Network: duplicate link");
  }
  staged_.push_back(Edge{from, to, attr});
  if (!ascending) {
    index_staged();
  }
  ++link_count_;
  finalized_ = false;
  ++version_;
}

void Network::reserve_links(std::size_t count) {
  staged_.reserve(staged_.size() + count);
}

void Network::index_staged() {
  const auto insert = [this](std::size_t index) {
    const std::uint64_t key = link_key(staged_[index].from, staged_[index].to);
    const std::size_t mask = staged_index_.size() - 1;
    std::size_t s = slot_hash(key) & mask;
    while (staged_index_[s].key != 0) {
      s = (s + 1) & mask;
    }
    staged_index_[s] = StagedSlot{key, index};
  };
  if (2 * staged_.size() > staged_index_.size()) {
    staged_index_.assign(
        std::bit_ceil(std::max<std::size_t>(16, 2 * staged_.size())),
        StagedSlot{});
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      insert(i);
    }
  } else {
    insert(staged_.size() - 1);
  }
}

std::ptrdiff_t Network::find_staged(NodeId from, NodeId to) const {
  // Ids past the node count could alias a valid packed key.
  if (from >= node_count() || to >= node_count()) {
    return -1;
  }
  const std::uint64_t key = link_key(from, to);
  if (staged_index_.empty()) {
    const auto pos = std::lower_bound(
        staged_.begin(), staged_.end(), key,
        [](const Edge& e, std::uint64_t k) {
          return link_key(e.from, e.to) < k;
        });
    return pos != staged_.end() && pos->from == from && pos->to == to
               ? pos - staged_.begin()
               : -1;
  }
  const std::size_t mask = staged_index_.size() - 1;
  for (std::size_t s = slot_hash(key) & mask;; s = (s + 1) & mask) {
    const StagedSlot& slot = staged_index_[s];
    if (slot.key == 0) {
      return -1;
    }
    if (slot.key == key) {
      return static_cast<std::ptrdiff_t>(slot.index);
    }
  }
}

const Edge* Network::find_row_edge(NodeId from, NodeId to) const {
  // The rows cover the nodes of the last finalize(); later nodes have
  // only staged links.
  if (from >= out_.rows.size()) {
    return nullptr;
  }
  const std::size_t* const off = layout_->out.offsets.data();
  const Edge* const row = out_.rows[from];
  const Edge* const end = row + (off[from + 1] - off[from]);
  const Edge* const pos = std::lower_bound(
      row, end, to, [](const Edge& e, NodeId target) { return e.to < target; });
  return pos != end && pos->to == to ? pos : nullptr;
}

const Edge* Network::find_edge(NodeId from, NodeId to) const {
  if (const Edge* const e = find_row_edge(from, to)) {
    return e;
  }
  const std::ptrdiff_t i = find_staged(from, to);
  return i < 0 ? nullptr : &staged_[static_cast<std::size_t>(i)];
}

void Network::add_duplex_link(NodeId a, NodeId b, LinkAttr attr) {
  add_link(a, b, attr);
  add_link(b, a, attr);
}

void Network::point_rows(Rows& rows, const RowLayout& layout,
                         std::size_t chunk) {
  const NodeId first = layout.chunk_rows[chunk];
  const NodeId last = layout.chunk_rows[chunk + 1];
  const std::size_t base = layout.offsets[first];
  Edge* const data = rows.chunks[chunk].edges.get();
  for (NodeId v = first; v < last; ++v) {
    rows.rows[v] = data + (layout.offsets[v] - base);
  }
}

Network::Rows Network::allocate_rows(const RowLayout& layout) {
  Rows rows;
  const std::size_t chunk_count = layout.chunk_rows.size() - 1;
  rows.chunks.reserve(chunk_count);
  rows.rows.resize(layout.offsets.size() - 1);
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const std::size_t size = layout.offsets[layout.chunk_rows[c + 1]] -
                             layout.offsets[layout.chunk_rows[c]];
    rows.chunks.emplace_back(std::make_shared<Edge[]>(size));
    point_rows(rows, layout, c);
  }
  return rows;
}

Edge* Network::writable_row(Rows& rows, const RowLayout& layout, NodeId v) {
  const auto cut = std::upper_bound(layout.chunk_rows.begin(),
                                    layout.chunk_rows.end(), v);
  const auto c = static_cast<std::size_t>(cut - layout.chunk_rows.begin()) - 1;
  Chunk& chunk = rows.chunks[c];
  if (!chunk.sole.load(std::memory_order_relaxed)) {
    const std::size_t size = layout.offsets[layout.chunk_rows[c + 1]] -
                             layout.offsets[layout.chunk_rows[c]];
    std::shared_ptr<Edge[]> copy = std::make_shared<Edge[]>(size);
    std::copy_n(chunk.edges.get(), size, copy.get());
    chunk.edges = std::move(copy);
    chunk.sole.store(true, std::memory_order_relaxed);
    point_rows(rows, layout, c);
  }
  return rows.rows[v];
}

void Network::update_link(NodeId from, NodeId to, const LinkAttr& attr) {
  check_link_attr(attr);
  if (const Edge* const e = find_row_edge(from, to)) {
    // Out row `from` is sorted by `to` and in row `to` by `from`: the
    // position found in the shared chunk is the one to write in the
    // private copy, and the in row is one binary search away.
    const std::size_t out_pos =
        static_cast<std::size_t>(e - out_.rows[from]);
    writable_row(out_, layout_->out, from)[out_pos].attr = attr;
    const std::size_t* const in_off = layout_->in.offsets.data();
    const Edge* const in_row = in_.rows[to];
    const auto in_pos = static_cast<std::size_t>(
        std::lower_bound(in_row, in_row + (in_off[to + 1] - in_off[to]), from,
                         [](const Edge& edge, NodeId source) {
                           return edge.from < source;
                         }) -
        in_row);
    writable_row(in_, layout_->in, to)[in_pos].attr = attr;
  } else if (const std::ptrdiff_t i = find_staged(from, to); i >= 0) {
    staged_[static_cast<std::size_t>(i)].attr = attr;
  } else {
    throw_no_link(from, to);
  }
  ++version_;
}

bool Network::same_content(const Network& other) const {
  if (node_count() != other.node_count() ||
      link_count() != other.link_count()) {
    return false;
  }
  const auto same_edge = [](const Edge& a, const Edge& b) {
    return a.to == b.to && a.attr.bandwidth_mbps == b.attr.bandwidth_mbps &&
           a.attr.min_delay_s == b.attr.min_delay_s;
  };
  for (NodeId v = 0; v < node_count(); ++v) {
    if (node(v).name != other.node(v).name ||
        node(v).processing_power != other.node(v).processing_power) {
      return false;
    }
    // Out-edge rows are sorted by target, so insertion order drops out.
    const std::span<const Edge> mine = out_edges(v);
    const std::span<const Edge> theirs = other.out_edges(v);
    if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                    same_edge)) {
      return false;
    }
  }
  return true;
}

void Network::apply_link_updates(std::span<const LinkUpdate> updates) {
  // Validate the whole batch before touching anything: update_link
  // commits immediately, and a mid-batch throw must not leave the
  // network half-refreshed.
  for (const LinkUpdate& u : updates) {
    check_link_attr(u.attr);
    if (find_edge(u.from, u.to) == nullptr) {
      throw_no_link(u.from, u.to);
    }
  }
  for (const LinkUpdate& u : updates) {
    update_link(u.from, u.to, u.attr);
  }
}

void Network::finalize() const {
  if (finalized_) {
    return;
  }
  // Every link: the rows of the previous build (when links or nodes were
  // added after it), then the staged ones.
  const auto for_each_link = [this](auto&& visit) {
    for (NodeId v = 0; v < out_.rows.size(); ++v) {
      const std::vector<std::size_t>& off = layout_->out.offsets;
      std::ranges::for_each(std::span(out_.rows[v], off[v + 1] - off[v]),
                            visit);
    }
    std::for_each(staged_.begin(), staged_.end(), visit);
  };
  const std::size_t k = node_count();
  auto layout = std::make_shared<Layout>();
  std::vector<std::size_t>& out_off = layout->out.offsets;
  std::vector<std::size_t>& in_off = layout->in.offsets;
  out_off.assign(k + 1, 0);
  in_off.assign(k + 1, 0);
  for_each_link([&](const Edge& e) {
    ++out_off[e.from + 1];
    ++in_off[e.to + 1];
  });
  for (std::size_t v = 0; v < k; ++v) {
    out_off[v + 1] += out_off[v];
    in_off[v + 1] += in_off[v];
  }
  layout->out.chunk_rows = cut_chunks(out_off);
  layout->in.chunk_rows = cut_chunks(in_off);
  Rows out = allocate_rows(layout->out);
  Rows in = allocate_rows(layout->in);

  // Counting scatters only, no comparisons: bucket by source, scatter
  // the out rows in ascending source order (which leaves every in row
  // ascending in `from`), then the in rows in ascending target order
  // (which leaves every out row ascending in `to`).  Links that all
  // arrived ascending — no earlier build, no out-of-order staging —
  // bucket into out rows that are ascending already, so the last
  // scatter is skipped.
  const bool arrived_ascending = out_.rows.empty() && staged_index_.empty();
  std::vector<std::size_t> fill(k, 0);
  for_each_link([&](const Edge& e) { out.rows[e.from][fill[e.from]++] = e; });
  const auto scatter = [&](const Rows& from_rows,
                           const std::vector<std::size_t>& from_off,
                           Rows& to_rows, auto key) {
    std::fill(fill.begin(), fill.end(), 0);
    for (NodeId v = 0; v < k; ++v) {
      for (const Edge& e :
           std::span(from_rows.rows[v], from_off[v + 1] - from_off[v])) {
        const NodeId w = key(e);
        to_rows.rows[w][fill[w]++] = e;
      }
    }
  };
  scatter(out, out_off, in, [](const Edge& e) { return e.to; });
  if (!arrived_ascending) {
    scatter(in, in_off, out, [](const Edge& e) { return e.from; });
  }

  layout_ = std::move(layout);
  out_ = std::move(out);
  in_ = std::move(in);
  // Release the build-phase storage, not just its contents.
  staged_ = std::vector<Edge>();
  staged_index_ = std::vector<StagedSlot>();
  finalized_ = true;
  ++finalize_builds_;
}

bool Network::has_link(NodeId from, NodeId to) const {
  return find_edge(from, to) != nullptr;
}

LinkAttr Network::link(NodeId from, NodeId to) const {
  const Edge* edge = find_edge(from, to);
  if (edge == nullptr) {
    throw_no_link(from, to);
  }
  return edge->attr;
}

std::optional<LinkAttr> Network::find_link(NodeId from, NodeId to) const {
  const Edge* edge = find_edge(from, to);
  if (edge == nullptr) {
    return std::nullopt;
  }
  return edge->attr;
}

double Network::mean_bandwidth_mbps() const {
  if (link_count_ == 0) {
    throw std::logic_error("Network: no links");
  }
  double sum = 0.0;
  for (NodeId v = 0; v < node_count(); ++v) {
    for (const Edge& e : out_edges(v)) {
      sum += e.attr.bandwidth_mbps;
    }
  }
  return sum / static_cast<double>(link_count_);
}

template <typename IsNew>
std::size_t Network::bytes(IsNew&& is_new) const {
  std::size_t total = sizeof(Network);
  if (nodes_ && is_new(nodes_.get())) {
    total += nodes_->capacity() * sizeof(NodeAttr);
    for (const NodeAttr& node : *nodes_) {
      total += node.name.capacity();
    }
  }
  total += staged_.capacity() * sizeof(Edge) +
           staged_index_.capacity() * sizeof(StagedSlot);
  if (!layout_) {
    return total;
  }
  const RowLayout* const layouts[] = {&layout_->out, &layout_->in};
  const Rows* const directions[] = {&out_, &in_};
  if (is_new(layout_.get())) {
    total += sizeof(Layout);
    for (const RowLayout* layout : layouts) {
      total += layout->offsets.capacity() * sizeof(std::size_t) +
               layout->chunk_rows.capacity() * sizeof(NodeId);
    }
  }
  for (std::size_t d = 0; d < 2; ++d) {
    const RowLayout& layout = *layouts[d];
    const Rows& rows = *directions[d];
    total += rows.chunks.capacity() * sizeof(Chunk) +
             rows.rows.capacity() * sizeof(Edge*);
    for (std::size_t c = 0; c < rows.chunks.size(); ++c) {
      if (is_new(rows.chunks[c].edges.get())) {
        total += (layout.offsets[layout.chunk_rows[c + 1]] -
                  layout.offsets[layout.chunk_rows[c]]) *
                 sizeof(Edge);
      }
    }
  }
  return total;
}

std::size_t Network::approx_bytes() const {
  return bytes([](const void*) { return true; });
}

std::size_t Network::approx_bytes(
    std::unordered_set<const void*>& seen) const {
  return bytes(
      [&seen](const void* block) { return seen.insert(block).second; });
}

void Network::validate() const {
  std::size_t out_total = 0;
  std::size_t in_total = 0;
  for (NodeId v = 0; v < node_count(); ++v) {
    const auto out = out_edges(v);
    const auto in = in_edges(v);
    out_total += out.size();
    in_total += in.size();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Edge& e = out[i];
      if (e.from != v || e.to >= node_count() || e.to == v) {
        throw std::logic_error("Network: corrupt out-adjacency");
      }
      if (i > 0 && out[i - 1].to >= e.to) {
        throw std::logic_error("Network: out-adjacency not sorted/unique");
      }
      if (!has_link(e.from, e.to)) {
        throw std::logic_error("Network: adjacency/index mismatch");
      }
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      const Edge& e = in[i];
      if (e.to != v || e.from >= node_count() || e.from == v) {
        throw std::logic_error("Network: corrupt in-adjacency");
      }
      if (i > 0 && in[i - 1].from >= e.from) {
        throw std::logic_error("Network: in-adjacency not sorted/unique");
      }
    }
  }
  if (out_total != link_count() || in_total != link_count()) {
    throw std::logic_error("Network: link count mismatch");
  }
}

void Network::throw_bad_node(NodeId id) const {
  throw std::invalid_argument("Network: node id " + std::to_string(id) +
                              " out of range");
}

void Network::throw_no_link(NodeId from, NodeId to) {
  throw std::out_of_range("Network: no link " + std::to_string(from) +
                          " -> " + std::to_string(to));
}

}  // namespace elpc::graph
