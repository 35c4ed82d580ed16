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
// Storage is two-phase.  While links are being added they are staged in
// insertion order; duplicate checks and has_link/find_link binary-search
// the staging while links arrive in ascending (from, to) order, and go
// through a hash index over packed (from, to) keys once one does not
// (node ids are capped at 2^32, so the packed key is exact).  finalize()
// sorts the staged edges once into CSR (compressed sparse row) rows —
// one row of Edge records per node and direction, out rows ascending in
// `to`, in rows ascending in `from` — and drops the staging and its
// index.  A finalized link lookup binary-searches the out row of `from`.
// Adjacency queries (out_edges/in_edges/degrees/the hoisted views)
// finalize lazily, so single-threaded callers never notice the phase
// split; link lookups do NOT finalize, so code that shares a Network
// across threads must call finalize() (or one adjacency query) once
// before fanning out (see src/core/README.md).
//
// The finalized rows are a copy-on-write value.  The row offsets never
// change under update_link, so they live in one immutable layout that
// every copy shares.  The edge records are cut into row-aligned chunks
// (whole rows, up to kEdgeChunkEdges edges; a longer row gets a chunk of
// its own), each behind a shared_ptr, and a per-copy table points at
// every row so a span stays O(1) and contiguous.  Copying a Network
// copies the row tables and shares every chunk and the node attributes
// (add_node copies those first while another Network holds them).
// A metric delta (update_link) copies the chunk holding out row `from`
// and the one holding in row `to` unless this Network already owns them,
// then patches them in place; a delta never rebuilds the rows.
//
// Units used throughout the library:
//   time        seconds
//   data size   megabits (Mb)
//   bandwidth   megabits per second (Mbps)
//   power       abstract "complexity units" per second; a module of
//               complexity c processing m megabits costs m*c/p seconds

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
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

/// Most edge records one copy-on-write chunk holds (a longer row gets a
/// chunk of its own).  A delta copies at most two chunks, 2 x 16 KiB at
/// this size, and a copy of the whole network shares about
/// 2 * link_count() / kEdgeChunkEdges of them.
inline constexpr std::size_t kEdgeChunkEdges = 512;

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

  /// Makes room to stage `count` more links, so a loader that knows its
  /// link count up front fills the staging without regrowing it.
  void reserve_links(std::size_t count);

  /// Adds links in both directions with the same attributes.
  void add_duplex_link(NodeId a, NodeId b, LinkAttr attr);

  /// Replaces the attributes of an existing link (a metric delta: the
  /// topology is unchanged).  Throws std::out_of_range when the link does
  /// not exist and std::invalid_argument on bad attribute values.  When
  /// the CSR view is current it is patched copy-on-write — at most two
  /// chunks copied, O(log deg) search, no rebuild — so a finalized
  /// network stays finalized and no copy of it sees the change.  NOT
  /// safe against concurrent readers of the same object; share-then-
  /// update callers go through service::NetworkSession, which publishes
  /// a patched copy.
  void update_link(NodeId from, NodeId to, const LinkAttr& attr);

  /// Applies a batch of metric deltas via update_link — all-or-nothing:
  /// the whole batch is validated first, so a bad record throws without
  /// leaving the network half-refreshed.
  void apply_link_updates(std::span<const LinkUpdate> updates);

  /// True when both networks have the same nodes (names and powers, by
  /// id) and the same links with the same attributes, whatever order the
  /// links were added in.  Finalizes both (lazily, like any query).
  [[nodiscard]] bool same_content(const Network& other) const;

  /// Builds the CSR rows from everything added so far.  Idempotent and
  /// cheap when already built; called lazily by the adjacency accessors.
  /// Must be invoked (directly or via any query) before the Network is
  /// shared across threads.
  void finalize() const;

  /// True when the CSR view is current (no add_* since the last build).
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Number of times finalize() actually (re)built the CSR view.  Stable
  /// across no-op finalize() calls and update_link patches, so callers
  /// amortizing the build (service sessions, the batch engine tests) can
  /// assert "finalized exactly once".
  [[nodiscard]] std::size_t finalize_build_count() const noexcept {
    return finalize_builds_;
  }

  /// Monotonic mutation counter: bumped by every add_node / add_link /
  /// update_link.  Lets caches detect that a network they annotated has
  /// changed underneath them.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_ ? nodes_->size() : 0;
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return link_count_;
  }

  [[nodiscard]] const NodeAttr& node(NodeId id) const {
    check_node(id);
    return (*nodes_)[id];
  }
  [[nodiscard]] bool has_link(NodeId from, NodeId to) const;
  /// Throws std::out_of_range when the link does not exist.
  [[nodiscard]] LinkAttr link(NodeId from, NodeId to) const;
  /// Empty optional when the link does not exist.
  [[nodiscard]] std::optional<LinkAttr> find_link(NodeId from,
                                                  NodeId to) const;

  /// Outgoing / incoming edges of a node as contiguous CSR spans, sorted
  /// by neighbor id.  Finalizes lazily.  Inline: the DP cell sweeps call
  /// these once per cell.
  [[nodiscard]] std::span<const Edge> out_edges(NodeId id) const {
    check_node(id);
    ensure_finalized();
    const std::size_t* const off = layout_->out.offsets.data();
    return {out_.rows[id], off[id + 1] - off[id]};
  }
  [[nodiscard]] std::span<const Edge> in_edges(NodeId id) const {
    check_node(id);
    ensure_finalized();
    const std::size_t* const off = layout_->in.offsets.data();
    return {in_.rows[id], off[id + 1] - off[id]};
  }

  /// Degree lookups (O(1) once finalized; finalize lazily like the spans).
  [[nodiscard]] std::size_t out_degree(NodeId id) const {
    return out_edges(id).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId id) const {
    return in_edges(id).size();
  }

  /// Whole-graph row views: row v starts at pointers[v] and holds
  /// offsets[v + 1] - offsets[v] edges (offsets has node_count() + 1
  /// entries).  DP kernels hoist these into local pointers once per call
  /// — going through the per-row accessors inside a hot cell loop costs
  /// measurable codegen quality (the compiler re-derives member state
  /// per cell).  The pointers stay valid until this Network is mutated.
  [[nodiscard]] std::span<const Edge* const> in_row_pointers() const {
    ensure_finalized();
    return {static_cast<const Edge* const*>(in_.rows.data()),
            in_.rows.size()};
  }
  [[nodiscard]] std::span<const std::size_t> in_row_offsets() const {
    ensure_finalized();
    return layout_->in.offsets;
  }
  [[nodiscard]] std::span<const Edge* const> out_row_pointers() const {
    ensure_finalized();
    return {static_cast<const Edge* const*>(out_.rows.data()),
            out_.rows.size()};
  }
  [[nodiscard]] std::span<const std::size_t> out_row_offsets() const {
    ensure_finalized();
    return layout_->out.offsets;
  }

  /// Mean bandwidth over all links (used by baseline heuristics as the
  /// "expected" cost of an unplaced neighbour), summed in out-row order
  /// so it does not depend on the order the links were added in.
  /// Finalizes lazily; throws on networks without links.
  [[nodiscard]] double mean_bandwidth_mbps() const;

  /// Approximate heap footprint in bytes: node attributes, staged links
  /// and their index, the row tables, the shared layout and every chunk
  /// this Network references.  Counts capacities, not sizes, so it
  /// tracks what the allocator actually holds; O(nodes + chunks).
  [[nodiscard]] std::size_t approx_bytes() const;
  /// The same, except that a block shared between copies (the node
  /// attributes, the layout, a chunk) is counted only when `seen` does
  /// not hold it yet, and is then added to it: summing over several
  /// revisions with one `seen` counts each shared block once.
  [[nodiscard]] std::size_t approx_bytes(
      std::unordered_set<const void*>& seen) const;

  /// Checks all invariants hold (cheap; used by tests and loaders).
  void validate() const;

 private:
  /// Row offsets of one direction plus where its chunks are cut; fixed
  /// by finalize(), never written afterwards.
  struct RowLayout {
    /// Row v spans [offsets[v], offsets[v + 1]) of the direction's edges.
    std::vector<std::size_t> offsets;
    /// Chunk c holds rows [chunk_rows[c], chunk_rows[c + 1]).
    std::vector<NodeId> chunk_rows;
  };
  struct Layout {
    RowLayout out;
    RowLayout in;
  };

  /// One chunk of edge records.  `sole` says this Network may write it in
  /// place: true for a chunk it allocated itself, cleared on both sides
  /// once a copy shares it.  The flag is mutable and atomic because the
  /// source of a copy is const and may be copied by several threads at
  /// once.
  struct Chunk {
    std::shared_ptr<Edge[]> edges;
    mutable std::atomic<bool> sole{false};

    Chunk() = default;
    explicit Chunk(std::shared_ptr<Edge[]> fresh)
        : edges(std::move(fresh)), sole(true) {}
    Chunk(const Chunk& other) : edges(other.edges) {
      other.sole.store(false, std::memory_order_relaxed);
    }
    Chunk(Chunk&& other) noexcept
        : edges(std::move(other.edges)),
          sole(other.sole.load(std::memory_order_relaxed)) {}
    Chunk& operator=(const Chunk& other) {
      edges = other.edges;
      other.sole.store(false, std::memory_order_relaxed);
      sole.store(false, std::memory_order_relaxed);
      return *this;
    }
    Chunk& operator=(Chunk&& other) noexcept {
      edges = std::move(other.edges);
      sole.store(other.sole.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      return *this;
    }
  };

  /// One direction of the finalized rows.
  struct Rows {
    std::vector<Chunk> chunks;
    /// rows[v] points at row v's first edge inside its chunk.
    std::vector<Edge*> rows;
  };

  void check_node(NodeId id) const {
    if (id >= node_count()) {
      throw_bad_node(id);  // cold path kept out of line
    }
  }
  void ensure_finalized() const {
    if (!finalized_) {
      finalize();  // cold path kept out of line
    }
  }
  [[noreturn]] void throw_bad_node(NodeId id) const;
  [[noreturn]] static void throw_no_link(NodeId from, NodeId to);
  /// Shared attribute validation of add_link / update_link /
  /// apply_link_updates; throws std::invalid_argument.
  static void check_link_attr(const LinkAttr& attr);
  /// The (from, to) link among the rows of the last finalize() or the
  /// links staged since, or nullptr.  Works in both phases.
  [[nodiscard]] const Edge* find_edge(NodeId from, NodeId to) const;
  /// The (from, to) link in the rows of the last finalize(), or nullptr.
  [[nodiscard]] const Edge* find_row_edge(NodeId from, NodeId to) const;
  /// Index into staged_ of the staged (from, to) link, or -1.
  [[nodiscard]] std::ptrdiff_t find_staged(NodeId from, NodeId to) const;
  /// Adds staged_.back() to the staged-link index, building the index
  /// over all of staged_ when it is empty or half full.
  void index_staged();
  /// Allocates one direction's chunks and points every row into them.
  static Rows allocate_rows(const RowLayout& layout);
  /// Points the rows of chunk `chunk` into its edge array.
  static void point_rows(Rows& rows, const RowLayout& layout,
                         std::size_t chunk);
  /// Row v of `rows`, made writable: copies its chunk first unless this
  /// Network is the chunk's sole holder.
  static Edge* writable_row(Rows& rows, const RowLayout& layout, NodeId v);
  /// approx_bytes, counting a shared block only when is_new(block).
  template <typename IsNew>
  std::size_t bytes(IsNew&& is_new) const;

  /// Node attributes by id, shared between copies (update_link never
  /// touches them); null until the first add_node.
  std::shared_ptr<std::vector<NodeAttr>> nodes_;
  std::size_t link_count_ = 0;
  std::uint64_t version_ = 0;

  /// One slot of the staged-link index: a packed (from, to) key (0 =
  /// empty, which no link has: it would be a self-loop) and the link's
  /// position in staged_.
  struct StagedSlot {
    std::uint64_t key = 0;
    std::size_t index = 0;
  };

  // Build phase: links added since the last finalize(), in insertion
  // order.  While they arrive in ascending (from, to) order — a to_json
  // round trip's order — lookups binary-search them and staged_index_
  // stays empty.  The first link out of order builds an open-addressing
  // index over them (a power-of-two table at most half full), kept until
  // finalize(), which empties both.  Mutable so const queries can
  // finalize lazily.
  mutable std::vector<Edge> staged_;
  mutable std::vector<StagedSlot> staged_index_;

  // Finalized rows (see the storage note above the class).
  mutable std::shared_ptr<const Layout> layout_;
  mutable Rows out_;
  mutable Rows in_;
  mutable bool finalized_ = false;
  mutable std::size_t finalize_builds_ = 0;
};

}  // namespace elpc::graph
