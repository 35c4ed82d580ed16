#pragma once
// Transport-network model: the paper's graph G = (V, E).
//
// Nodes are computing hosts with a normalized processing power p_i
// (Section 2.2: a scalar abstracting CPU frequency, memory, bus speed).
// Links are *directed* and carry two attributes: bandwidth b_{i,j} and
// minimum link delay (MLD) d_{i,j}, matching the paper's per-link
// parameters LinkBWInMbps / LinkDelayInMilliseconds.  The topology is
// arbitrary (Internet-like), not necessarily complete.
//
// Storage is two-phase.  While links are being added, edges live in a
// flat insertion-order list plus a per-node sorted-neighbor index (the
// index also answers has_link/find_link in O(log deg) at every phase —
// there is no hash map, and no packed 64-bit key to truncate node ids).
// finalize() then builds a CSR (compressed sparse row) view: one
// contiguous Edge array per direction with per-node offset spans, rows
// sorted by neighbor id, which is what every algorithm sweeps.
// Adjacency queries (out_edges/in_edges/degrees/the flat views) finalize
// lazily, so single-threaded callers never notice the phase split.  Link
// lookups (has_link/find_link/link) use the sorted-neighbor index and do
// NOT finalize; code that shares a Network across threads must therefore
// call finalize() (or one adjacency query) once before fanning out (see
// src/core/README.md).  Metric deltas (update_link) change attributes
// without touching the topology, so they patch the CSR view in place
// instead of invalidating it — a finalized network never rebuilds for a
// measurement refresh.
//
// Units used throughout the library:
//   time        seconds
//   data size   megabits (Mb)
//   bandwidth   megabits per second (Mbps)
//   power       abstract "complexity units" per second; a module of
//               complexity c processing m megabits costs m*c/p seconds

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace elpc::graph {

/// Index of a node inside its Network (dense, 0-based).
using NodeId = std::size_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Host attributes (paper: NodeID, NodeIP, ProcessingPower).
struct NodeAttr {
  /// Human-readable label; generators fill in "node<k>".
  std::string name;
  /// Normalized processing power p_i (> 0), abstract units per second.
  double processing_power = 1.0;
};

/// Directed-link attributes (paper: LinkBWInMbps, LinkDelayInMilliseconds,
/// converted to base units).
struct LinkAttr {
  /// Bandwidth b_{i,j} in Mbps (> 0).
  double bandwidth_mbps = 1.0;
  /// Minimum link delay d_{i,j} in seconds (>= 0).
  double min_delay_s = 0.0;
};

/// One metric change for an existing link — the delta format network
/// monitoring (netmeasure) feeds into update_link / service sessions.
struct LinkUpdate {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  LinkAttr attr;
};

/// One outgoing or incoming edge as seen from a node's adjacency span.
struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  LinkAttr attr;
};

/// Directed network with O(log deg) link lookup and CSR adjacency.
///
/// Invariants: node ids are dense [0, node_count()); at most one link per
/// ordered (from, to) pair; no self-loops (a module staying on the same
/// node is modelled by the mapping layer as zero-cost, per the paper's
/// "inter-module transport time within one group is negligible").
/// Adjacency spans are sorted by neighbor id: out_edges(v) ascending in
/// `to`, in_edges(v) ascending in `from`.
class Network {
 public:
  /// Adds a node and returns its id.
  NodeId add_node(NodeAttr attr);

  /// Adds a directed link.  Throws std::invalid_argument on unknown
  /// endpoints, self-loops, duplicate links, bandwidth <= 0, or negative
  /// delay.  Invalidates the CSR view until the next finalize().
  void add_link(NodeId from, NodeId to, LinkAttr attr);

  /// Adds links in both directions with the same attributes.
  void add_duplex_link(NodeId a, NodeId b, LinkAttr attr);

  /// Replaces the attributes of an existing link (a metric delta: the
  /// topology is unchanged).  Throws std::out_of_range when the link does
  /// not exist and std::invalid_argument on bad attribute values.  When
  /// the CSR view is current it is patched in place — O(log deg), no
  /// rebuild — so a finalized network stays finalized.  NOT safe against
  /// concurrent readers of the same object; share-then-update callers go
  /// through service::NetworkSession, which swaps whole snapshots.
  void update_link(NodeId from, NodeId to, const LinkAttr& attr);

  /// Applies a batch of metric deltas via update_link — all-or-nothing:
  /// the whole batch is validated first, so a bad record throws without
  /// leaving the network half-refreshed.
  void apply_link_updates(std::span<const LinkUpdate> updates);

  /// True when both networks have the same nodes (names and powers, by
  /// id) and the same links with the same attributes, whatever order the
  /// links were added in.  Finalizes both (lazily, like any query).
  [[nodiscard]] bool same_content(const Network& other) const;

  /// Builds the CSR adjacency view.  Idempotent and cheap when already
  /// built; called lazily by the adjacency accessors.  Must be invoked
  /// (directly or via any query) before the Network is shared across
  /// threads.
  void finalize() const;

  /// True when the CSR view is current (no add_* since the last build).
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Number of times finalize() actually (re)built the CSR view.  Stable
  /// across no-op finalize() calls and in-place update_link patches, so
  /// callers amortizing the build (service sessions, the batch engine
  /// tests) can assert "finalized exactly once".
  [[nodiscard]] std::size_t finalize_build_count() const noexcept {
    return finalize_builds_;
  }

  /// Monotonic mutation counter: bumped by every add_node / add_link /
  /// update_link.  Lets caches detect that a network they annotated has
  /// changed underneath them.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }

  [[nodiscard]] const NodeAttr& node(NodeId id) const {
    check_node(id);
    return nodes_[id];
  }
  [[nodiscard]] bool has_link(NodeId from, NodeId to) const;
  /// Throws std::out_of_range when the link does not exist.  The
  /// returned reference is invalidated by a later add_link (the backing
  /// edge list may reallocate) — unlike the old hash-map storage, do not
  /// hold it across mutations; find_link copies and has no such hazard.
  [[nodiscard]] const LinkAttr& link(NodeId from, NodeId to) const;
  /// Empty optional when the link does not exist.
  [[nodiscard]] std::optional<LinkAttr> find_link(NodeId from,
                                                  NodeId to) const;

  /// Outgoing / incoming edges of a node as contiguous CSR spans, sorted
  /// by neighbor id.  Finalizes lazily.  Inline: the DP cell sweeps call
  /// these once per cell.
  [[nodiscard]] std::span<const Edge> out_edges(NodeId id) const {
    check_node(id);
    ensure_finalized();
    return {out_csr_.data() + out_off_[id], out_off_[id + 1] - out_off_[id]};
  }
  [[nodiscard]] std::span<const Edge> in_edges(NodeId id) const {
    check_node(id);
    ensure_finalized();
    return {in_csr_.data() + in_off_[id], in_off_[id + 1] - in_off_[id]};
  }

  /// Degree lookups (O(1) once finalized; finalize lazily like the spans).
  [[nodiscard]] std::size_t out_degree(NodeId id) const {
    return out_edges(id).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId id) const {
    return in_edges(id).size();
  }

  /// Whole-graph CSR views: every row concatenated, with row v spanning
  /// [offsets[v], offsets[v + 1]) of the edge array.  DP kernels hoist
  /// these into local pointers once per call — going through the per-row
  /// accessors inside a hot cell loop costs measurable codegen quality
  /// (the compiler re-derives member state per cell).
  [[nodiscard]] std::span<const Edge> in_edges_flat() const {
    ensure_finalized();
    return {in_csr_.data(), in_csr_.size()};
  }
  [[nodiscard]] std::span<const std::size_t> in_row_offsets() const {
    ensure_finalized();
    return {in_off_.data(), in_off_.size()};
  }
  [[nodiscard]] std::span<const Edge> out_edges_flat() const {
    ensure_finalized();
    return {out_csr_.data(), out_csr_.size()};
  }
  [[nodiscard]] std::span<const std::size_t> out_row_offsets() const {
    ensure_finalized();
    return {out_off_.data(), out_off_.size()};
  }

  /// Mean bandwidth over all links (used by baseline heuristics as the
  /// "expected" cost of an unplaced neighbour); throws on empty networks.
  [[nodiscard]] double mean_bandwidth_mbps() const;

  /// Approximate heap footprint in bytes (node/link storage, lookup
  /// index, CSR views, name payloads).  Counts capacities, not sizes, so
  /// it tracks what the allocator actually holds.  Used by the service
  /// layer's memory stats (cached/pinned bytes); O(nodes + links).
  [[nodiscard]] std::size_t approx_bytes() const;

  /// Checks all invariants hold (cheap; used by tests and loaders).
  void validate() const;

 private:
  void check_node(NodeId id) const {
    if (id >= nodes_.size()) {
      throw_bad_node(id);  // cold path kept out of line
    }
  }
  void ensure_finalized() const {
    if (!finalized_) {
      finalize();  // cold path kept out of line
    }
  }
  [[noreturn]] void throw_bad_node(NodeId id) const;
  /// Shared attribute validation of add_link / update_link /
  /// apply_link_updates; throws std::invalid_argument.
  static void check_link_attr(const LinkAttr& attr);
  /// Pointer into links_ for the (from, to) link, or nullptr.  Works in
  /// both phases via the sorted-neighbor index.
  [[nodiscard]] const Edge* find_edge(NodeId from, NodeId to) const;

  std::vector<NodeAttr> nodes_;
  std::uint64_t version_ = 0;
  /// All links in insertion order; never reordered, so Edge pointers
  /// from find_edge stay valid across finalize() — but NOT across
  /// add_link, which may reallocate the vector.
  std::vector<Edge> links_;
  /// Per-node indices into links_, sorted by target id: the permanent
  /// sorted-neighbor lookup index (valid in both phases).
  std::vector<std::vector<std::uint32_t>> out_index_;

  // CSR view, (re)built by finalize(): row v of out_csr_ spans
  // [out_off_[v], out_off_[v + 1]), sorted by `to`; likewise in_csr_ by
  // `from`.  Mutable so const queries can build it lazily.
  mutable std::vector<Edge> out_csr_;
  mutable std::vector<Edge> in_csr_;
  mutable std::vector<std::size_t> out_off_;
  mutable std::vector<std::size_t> in_off_;
  mutable bool finalized_ = false;
  mutable std::size_t finalize_builds_ = 0;
};

}  // namespace elpc::graph
