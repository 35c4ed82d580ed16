#include "graph/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace elpc::graph {

NodeId Network::add_node(NodeAttr attr) {
  if (attr.processing_power <= 0.0) {
    throw std::invalid_argument("Network: processing_power must be > 0");
  }
  // The DP layers store node ids in 32-bit slots (FrameRateArena's
  // Candidate/ParentRec); fail loudly rather than truncate silently.
  if (nodes_.size() >= (1ULL << 32)) {
    throw std::invalid_argument("Network: too many nodes");
  }
  const NodeId id = nodes_.size();
  if (attr.name.empty()) {
    attr.name = "node" + std::to_string(id);
  }
  nodes_.push_back(std::move(attr));
  out_index_.emplace_back();
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
  if (links_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Network: too many links");
  }
  // Sorted insertion into the neighbor index doubles as the duplicate
  // check: O(log deg) search plus an O(deg) shift.
  std::vector<std::uint32_t>& index = out_index_[from];
  const auto pos = std::lower_bound(
      index.begin(), index.end(), to,
      [this](std::uint32_t e, NodeId target) { return links_[e].to < target; });
  if (pos != index.end() && links_[*pos].to == to) {
    throw std::invalid_argument("Network: duplicate link");
  }
  index.insert(pos, static_cast<std::uint32_t>(links_.size()));
  links_.push_back(Edge{from, to, attr});
  finalized_ = false;
  ++version_;
}

void Network::add_duplex_link(NodeId a, NodeId b, LinkAttr attr) {
  add_link(a, b, attr);
  add_link(b, a, attr);
}

void Network::update_link(NodeId from, NodeId to, const LinkAttr& attr) {
  check_link_attr(attr);
  Edge* edge = const_cast<Edge*>(find_edge(from, to));
  if (edge == nullptr) {
    throw std::out_of_range("Network: no link " + std::to_string(from) +
                            " -> " + std::to_string(to));
  }
  edge->attr = attr;
  if (finalized_) {
    // Patch the CSR copies in place: the out row of `from` is sorted by
    // `to`, the in row of `to` by `from`, so each copy is one binary
    // search away and the view stays current without a rebuild.
    const auto out_row = out_csr_.begin() + static_cast<std::ptrdiff_t>(
        out_off_[from]);
    const auto out_end = out_csr_.begin() + static_cast<std::ptrdiff_t>(
        out_off_[from + 1]);
    const auto out_pos = std::lower_bound(
        out_row, out_end, to,
        [](const Edge& e, NodeId target) { return e.to < target; });
    out_pos->attr = attr;
    const auto in_row = in_csr_.begin() + static_cast<std::ptrdiff_t>(
        in_off_[to]);
    const auto in_end = in_csr_.begin() + static_cast<std::ptrdiff_t>(
        in_off_[to + 1]);
    const auto in_pos = std::lower_bound(
        in_row, in_end, from,
        [](const Edge& e, NodeId source) { return e.from < source; });
    in_pos->attr = attr;
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
    if (nodes_[v].name != other.nodes_[v].name ||
        nodes_[v].processing_power != other.nodes_[v].processing_power) {
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
      throw std::out_of_range("Network: no link " + std::to_string(u.from) +
                              " -> " + std::to_string(u.to));
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
  const std::size_t k = nodes_.size();
  const std::size_t m = links_.size();
  out_off_.assign(k + 1, 0);
  in_off_.assign(k + 1, 0);
  for (const Edge& e : links_) {
    ++out_off_[e.from + 1];
    ++in_off_[e.to + 1];
  }
  for (std::size_t v = 0; v < k; ++v) {
    out_off_[v + 1] += out_off_[v];
    in_off_[v + 1] += in_off_[v];
  }
  out_csr_.resize(m);
  in_csr_.resize(m);
  // Out rows come straight from the sorted-neighbor index.  Scattering in
  // ascending source order makes each in row ascending in `from`.
  std::vector<std::size_t> in_cursor(in_off_.begin(), in_off_.end() - 1);
  std::size_t out_pos = 0;
  for (NodeId v = 0; v < k; ++v) {
    for (const std::uint32_t idx : out_index_[v]) {
      const Edge& e = links_[idx];
      out_csr_[out_pos++] = e;
      in_csr_[in_cursor[e.to]++] = e;
    }
  }
  finalized_ = true;
  ++finalize_builds_;
}

const Edge* Network::find_edge(NodeId from, NodeId to) const {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return nullptr;
  }
  const std::vector<std::uint32_t>& index = out_index_[from];
  const auto pos = std::lower_bound(
      index.begin(), index.end(), to,
      [this](std::uint32_t e, NodeId target) { return links_[e].to < target; });
  if (pos == index.end() || links_[*pos].to != to) {
    return nullptr;
  }
  return &links_[*pos];
}

bool Network::has_link(NodeId from, NodeId to) const {
  return find_edge(from, to) != nullptr;
}

const LinkAttr& Network::link(NodeId from, NodeId to) const {
  const Edge* edge = find_edge(from, to);
  if (edge == nullptr) {
    throw std::out_of_range("Network: no link " + std::to_string(from) +
                            " -> " + std::to_string(to));
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
  if (links_.empty()) {
    throw std::logic_error("Network: no links");
  }
  double sum = 0.0;
  for (const Edge& e : links_) {
    sum += e.attr.bandwidth_mbps;
  }
  return sum / static_cast<double>(links_.size());
}

std::size_t Network::approx_bytes() const {
  std::size_t bytes = sizeof(Network);
  bytes += nodes_.capacity() * sizeof(NodeAttr);
  for (const NodeAttr& node : nodes_) {
    bytes += node.name.capacity();
  }
  bytes += links_.capacity() * sizeof(Edge);
  bytes += out_index_.capacity() * sizeof(std::vector<std::uint32_t>);
  for (const std::vector<std::uint32_t>& row : out_index_) {
    bytes += row.capacity() * sizeof(std::uint32_t);
  }
  bytes += (out_csr_.capacity() + in_csr_.capacity()) * sizeof(Edge);
  bytes += (out_off_.capacity() + in_off_.capacity()) * sizeof(std::size_t);
  return bytes;
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

}  // namespace elpc::graph
