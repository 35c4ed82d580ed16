#include "core/elpc.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/framerate_arena.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "graph/algorithms.hpp"
#include "util/profiler.hpp"
#include "util/thread_pool.hpp"

namespace elpc::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A re-solve column sweeps in full once its dirty cells pass this share
/// of the nodes: a scattered cell costs ~5 us, a swept one ~2.5 us (E6).
constexpr double kWideColumnShare = 0.5;

using graph::Edge;
using graph::kInvalidNode;
using graph::NodeId;
using mapping::MapResult;
using mapping::Mapping;
using mapping::Problem;

/// Shared worker pool for the per-column node sweep, built on first use.
/// ThreadPool::parallel_for is safe for concurrent callers, so mapper
/// instances running on different threads share these workers.
util::ThreadPool& sweep_pool() {
  static util::ThreadPool pool;
  return pool;
}

/// Parallel sweeps only pay off with real hardware parallelism.  A
/// hardware_concurrency() of 0 means "unknown" — but ThreadPool sizes
/// its default worker count from the same call (max(1, hc)), so the pool
/// would have one worker there anyway and gating off is consistent.
bool multicore() {
  return std::thread::hardware_concurrency() > 1;
}

/// Backward hop prune for the frame-rate DP (its transitions all cross a
/// link): cell (j, v) is dead when v cannot reach the destination within
/// the modules that remain.  A link u -> v bounds
/// to_dest[u] <= 1 + to_dest[v], so a dead cell can never feed a live
/// one — skipping dead cells is exactly result-preserving there.
/// min_delay does NOT use it: its grouping sub-case (stay on the node
/// while j advances) needs a separate argument, and the BFS did not pay
/// for itself when measured.
inline bool cell_dead(const std::vector<std::size_t>& to_dest, NodeId v,
                      std::size_t j, std::size_t n) {
  return to_dest[v] > n - 1 - j;  // unreachable is SIZE_MAX, always dead
}

/// Reconstructs the per-module assignment from column-parent pointers:
/// parent[j * k + v] is the node running module j-1 when module j runs
/// on v along the best partial solution ending at cell (j, v).
/// The once-per-column abort poll (ElpcOptions::abort_probe): answers
/// with an exception so one code path serves both DPs and every loop
/// shape (full solve, incremental replay) without threading a flag.
inline void check_abort(const ElpcOptions& options) {
  if (!options.abort_probe) {
    return;
  }
  const SolveAbort reason = options.abort_probe();
  if (reason == SolveAbort::kCancelled) {
    throw SolveAborted(reason, "solve cancelled mid-run");
  }
  if (reason == SolveAbort::kTimedOut) {
    throw SolveAborted(reason, "solve deadline exceeded mid-run");
  }
}

Mapping reconstruct(const std::vector<NodeId>& parent, std::size_t n,
                    std::size_t k, NodeId destination) {
  std::vector<NodeId> assignment(n, kInvalidNode);
  assignment[n - 1] = destination;
  for (std::size_t j = n - 1; j > 0; --j) {
    assignment[j - 1] = parent[j * k + assignment[j]];
  }
  return Mapping(std::move(assignment));
}

}  // namespace

MapResult ElpcMapper::min_delay(const Problem& problem) const {
  problem.validate();
  const pipeline::CostModel model = problem.model();
  const graph::Network& net = *problem.network;
  const std::size_t n = problem.pipeline->module_count();
  const std::size_t k = net.node_count();

  // The CSR view must exist before worker threads start sweeping it.
  net.finalize();
  util::ThreadPool* pool = nullptr;
  std::size_t chunks = 1;
  if (options_.parallel_sweep && multicore() && n >= 3 && k >= 128 &&
      net.link_count() >= 16384) {
    pool = &sweep_pool();
    chunks = std::min(k, 4 * pool->worker_count());
  }

  // T^j(v): minimal delay mapping modules 0..j onto a walk source -> v.
  // Two rolling columns plus a full parent table for reconstruction.
  std::vector<double> prev(k, kInf);
  std::vector<double> cur(k, kInf);
  std::vector<NodeId> parent(n * k, kInvalidNode);
  std::vector<double> comp_col(k);
  std::vector<NodeId> frontier;
  frontier.reserve(k);
  bool sparse_head = true;

  // Hoisted CSR row tables: the cell kernels index these local
  // variables instead of calling the per-row accessors, which measurably
  // improves the generated inner loops.
  const Edge* const* const in_rows = net.in_row_pointers().data();
  const std::size_t* const in_off = net.in_row_offsets().data();
  const Edge* const* const out_rows = net.out_row_pointers().data();
  const std::size_t* const out_off = net.out_row_offsets().data();

  prev[problem.source] = 0.0;  // module 0 (source stage) computes nothing

  // Segmented column profiling (one event pair per 64 columns, arg = the
  // segment's first column): disabled cost is one branch per column —
  // same class as the check_abort poll beside it.
  util::PhaseSegments columns_phase("delay_columns", "dp");
  for (std::size_t j = 1; j < n; ++j) {
    check_abort(options_);
    columns_phase.tick(j);
    const double input_mb = problem.pipeline->input_mb(j);
    // Hoist the per-node computing times (one division each) out of the
    // edge sweep, and collect the reachable frontier: early columns touch
    // only a few nodes, and a frontier scatter skips every edge whose
    // source cell is infinite.  Both sweeps evaluate the same candidate
    // set with the same operations, so cell values are bit-identical
    // either way (only tie-broken parents may differ).
    for (NodeId v = 0; v < k; ++v) {
      comp_col[v] = model.computing_time(j, v);
    }
    bool use_scatter = false;
    if (sparse_head) {
      // The forward-reachable set only grows, so once the frontier is
      // dense it stays dense: stop scanning for it (abort mid-scan the
      // moment it crosses the threshold).
      frontier.clear();
      std::size_t frontier_out_edges = 0;
      use_scatter = true;
      for (NodeId v = 0; v < k; ++v) {
        if (prev[v] == kInf) {
          continue;
        }
        frontier.push_back(v);
        frontier_out_edges += out_off[v + 1] - out_off[v];
        if (frontier_out_edges * 2 >= net.link_count()) {
          use_scatter = false;
          sparse_head = false;
          break;
        }
      }
    }

    if (use_scatter) {
      // Sparse frontier: scatter along its out-edges only.
      for (NodeId v = 0; v < k; ++v) {
        // Sub-case (i): module j joins module j-1's node (grouping).
        cur[v] = prev[v] == kInf ? kInf : prev[v] + comp_col[v];
        parent[j * k + v] = v;
      }
      for (const NodeId u : frontier) {
        const double from_cost = prev[u];
        for (const Edge& e :
             std::span(out_rows[u], out_off[u + 1] - out_off[u])) {
          const double cand = from_cost +
                              model.transport_time(input_mb, e.attr) +
                              comp_col[e.to];
          if (cand < cur[e.to]) {
            cur[e.to] = cand;
            parent[j * k + e.to] = u;
          }
        }
      }
    } else {
      // Dense frontier: gather per cell.  Each cell reads only the
      // previous column and writes its own slots, so the column sweep
      // parallelizes without changing a single floating-point operation
      // — parallel and serial results are bit-identical.
      const auto sweep_cell = [&](NodeId v) {
        const double comp = comp_col[v];
        // Sub-case (i): module j joins module j-1's node (grouping).
        double best = prev[v] == kInf ? kInf : prev[v] + comp;
        NodeId best_parent = v;
        // Sub-case (ii): module j-1 ran on an in-neighbour u of v.
        for (const Edge& e :
             std::span(in_rows[v], in_off[v + 1] - in_off[v])) {
          if (prev[e.from] == kInf) {
            continue;
          }
          const double cand =
              prev[e.from] + model.transport_time(input_mb, e.attr) + comp;
          if (cand < best) {
            best = cand;
            best_parent = e.from;
          }
        }
        cur[v] = best;
        parent[j * k + v] = best_parent;
      };
      if (pool != nullptr) {
        pool->parallel_for(chunks, [&](std::size_t c) {
          const NodeId lo = static_cast<NodeId>(c * k / chunks);
          const NodeId hi = static_cast<NodeId>((c + 1) * k / chunks);
          for (NodeId v = lo; v < hi; ++v) {
            sweep_cell(v);
          }
        });
      } else {
        for (NodeId v = 0; v < k; ++v) {
          sweep_cell(v);
        }
      }
    }
    std::swap(prev, cur);
  }

  if (prev[problem.destination] == kInf) {
    return MapResult::infeasible(
        "destination unreachable from source within the pipeline length");
  }
  MapResult result;
  result.feasible = true;
  result.seconds = prev[problem.destination];
  result.mapping = reconstruct(parent, n, k, problem.destination);
  return result;
}

namespace {

using Candidate = FrameRateArena::Candidate;
using ParentRec = FrameRateArena::ParentRec;

/// Bottleneck-targeted 1-swap local search on a one-to-one mapping.
/// Repeatedly replaces one interior path node with an unused node (both
/// adjacent links must exist) when that strictly lowers the bottleneck.
void improve_by_node_swaps(const Problem& problem,
                           const pipeline::CostModel& model,
                           std::vector<NodeId>& assignment,
                           double& bottleneck) {
  const graph::Network& net = *problem.network;
  const std::size_t n = assignment.size();
  const std::size_t k = net.node_count();
  if (n < 3) {
    return;
  }

  // Cost terms along the path: term[2j-1] = transport into module j,
  // term[2j] = computing of module j (j = 1..n-1).
  const std::size_t terms = 2 * n - 1;
  std::vector<double> term(terms, 0.0);
  auto recompute_terms = [&]() {
    for (std::size_t j = 1; j < n; ++j) {
      term[2 * j - 1] = model.input_transport_time(j, assignment[j - 1],
                                                   assignment[j]);
      term[2 * j] = model.computing_time(j, assignment[j]);
    }
  };

  std::vector<bool> used(k, false);
  for (NodeId v : assignment) {
    used[v] = true;
  }

  // Bounded rounds; each accepted swap strictly lowers the bottleneck,
  // and the value is bounded below, so this terminates early in practice.
  for (int round = 0; round < 64; ++round) {
    recompute_terms();
    // Prefix/suffix maxima let us evaluate "bottleneck excluding the
    // three terms around position j" in O(1).
    std::vector<double> prefix(terms + 1, 0.0);
    std::vector<double> suffix(terms + 1, 0.0);
    for (std::size_t t = 0; t < terms; ++t) {
      prefix[t + 1] = std::max(prefix[t], term[t]);
    }
    for (std::size_t t = terms; t > 0; --t) {
      suffix[t - 1] = std::max(suffix[t], term[t - 1]);
    }
    bottleneck = prefix[terms];

    double best = bottleneck;
    std::size_t best_pos = 0;
    NodeId best_node = kInvalidNode;
    for (std::size_t j = 1; j + 1 < n; ++j) {
      // Terms affected by replacing assignment[j]: transport in (2j-1),
      // compute (2j), transport out (2j+1).
      const double others = std::max(prefix[2 * j - 1], suffix[2 * j + 2]);
      if (others >= best) {
        continue;  // replacement cannot improve past the rest of the path
      }
      const NodeId before = assignment[j - 1];
      const NodeId after = assignment[j + 1];
      for (const Edge& e : net.out_edges(before)) {
        const NodeId x = e.to;
        if (used[x]) {
          continue;
        }
        const auto out_link = net.find_link(x, after);
        if (!out_link.has_value()) {
          continue;
        }
        const double cand = std::max(
            {others,
             model.transport_time(problem.pipeline->input_mb(j), e.attr),
             model.computing_time(j, x),
             model.transport_time(problem.pipeline->input_mb(j + 1),
                                  *out_link)});
        if (cand < best) {
          best = cand;
          best_pos = j;
          best_node = x;
        }
      }
    }
    if (best_node != kInvalidNode) {
      used[assignment[best_pos]] = false;
      used[best_node] = true;
      assignment[best_pos] = best_node;
      bottleneck = best;
      continue;
    }

    // No single-node replacement helps; try exchanging two interior path
    // positions (a heavy stage may simply sit on the wrong fast node).
    // Exchanging a and b rewrites only terms 2a-1..2a+1 and 2b-1..2b+1,
    // so the candidate is at least the max of the terms it keeps:
    // prefix[2a-1], term[2a+2..2b-2] (`middle`, a running max over b) and
    // suffix[2b+2].  When that max already reaches the acceptance bound
    // the pair cannot be accepted, and skipping it is exact.
    const double accept_below = bottleneck * (1.0 - 1e-12);
    bool exchanged = false;
    for (std::size_t a = 1; a + 1 < n && !exchanged; ++a) {
      if (prefix[2 * a - 1] >= accept_below) {
        break;  // prefix only grows with a: no later pair can pass either
      }
      double middle = 0.0;
      std::size_t next_term = 2 * a + 2;
      for (std::size_t b = a + 1; b + 1 < n && !exchanged; ++b) {
        for (; next_term + 2 <= 2 * b; ++next_term) {
          middle = std::max(middle, term[next_term]);
        }
        if (std::max({prefix[2 * a - 1], middle, suffix[2 * b + 2]}) >=
            accept_below) {
          continue;
        }
        std::swap(assignment[a], assignment[b]);
        bool valid = true;
        for (std::size_t t : {a, a + 1, b, b + 1}) {
          if (t < 1 || t >= n) {
            continue;
          }
          if (!net.has_link(assignment[t - 1], assignment[t])) {
            valid = false;
            break;
          }
        }
        if (valid) {
          double cand = 0.0;
          for (std::size_t j2 = 1; j2 < n; ++j2) {
            cand = std::max(
                {cand,
                 model.input_transport_time(j2, assignment[j2 - 1],
                                            assignment[j2]),
                 model.computing_time(j2, assignment[j2])});
          }
          if (cand < accept_below) {
            bottleneck = cand;
            exchanged = true;
            break;
          }
        }
        std::swap(assignment[a], assignment[b]);  // revert
      }
    }
    if (!exchanged) {
      return;  // local optimum under both move types
    }
  }
}

}  // namespace

MapResult ElpcMapper::max_frame_rate(const Problem& problem) const {
  problem.validate();
  if (options_.incremental_stats != nullptr) {
    *options_.incremental_stats = IncrementalStats{};  // early returns
  }
  const pipeline::CostModel model = problem.model();
  const graph::Network& net = *problem.network;
  const std::size_t n = problem.pipeline->module_count();
  const std::size_t k = net.node_count();
  const std::size_t beam =
      std::max<std::size_t>(1, options_.framerate_beam_width);

  if (n > k) {
    return MapResult::infeasible(
        "pipeline longer than the node count; no one-to-one mapping exists");
  }
  if (problem.source == problem.destination) {
    return MapResult::infeasible(
        "source equals destination; no simple n-node path exists");
  }

  // The CSR view must exist before worker threads start sweeping it.
  net.finalize();

  // The parallel sweep pays for its task dispatch only when a column
  // carries real work; below the threshold the serial sweep wins.
  util::ThreadPool* pool = nullptr;
  std::size_t chunks = 1;
  if (options_.parallel_sweep && multicore() && n >= 3 && k >= 128 &&
      net.link_count() * beam >= 16384) {
    pool = &sweep_pool();
    chunks = std::min(k, 4 * pool->worker_count());
  }

  // B^j(v) of the paper's Fig. 1 table, generalized to a beam: cell
  // (j, v) holds up to `beam` surviving partial paths (modules 0..j
  // mapped one-to-one onto a simple path source -> v), each carrying the
  // node set it consumed so extensions honour the no-reuse constraint.
  // Width 1 is exactly the published recursion (Eq. 5).  Only two label
  // columns are live at a time; the arena (reused across calls on this
  // thread) makes the steady state allocation-free.
  // NB: thread_local variables are not captured by lambdas — worker
  // threads would silently touch their own empty arenas — so the sweep
  // closes over this ordinary reference instead.
  thread_local FrameRateArena tls_arena;
  FrameRateArena& arena =
      options_.arena != nullptr ? *options_.arena : tls_arena;
  {
    const util::ProfileScope arena_phase("arena_acquire", "dp", k);
    arena.setup(k, beam, n, chunks);
  }
  const std::size_t W = arena.words_per_set();
  const std::size_t realloc_baseline = arena.reallocations();

  // ---- incremental checkpoint decision (core/incremental.hpp) ------
  // The fingerprint folds every non-link input of the DP — pipeline
  // sizes, computing times (node powers included), endpoints, beam, and
  // cost/tie-break conventions — so a checkpoint can only ever replay
  // against a problem whose sole difference from the captured one is
  // the link attributes `delta` accounts for.
  IncrementalCheckpoint* const ckpt = options_.checkpoint;
  IncrementalStats inc;
  inc.columns_total = n;
  inc.cells_total = n * k;
  IncrementalCheckpoint::Fingerprint fp;
  bool run_incremental = false;
  // The delta's links with their current attributes (duplicates kept:
  // testing a link twice changes nothing).
  std::vector<Edge> delta_links;
  if (ckpt != nullptr) {
    // Covers the fingerprint fold (O(n + k)) and the reuse decision.
    const util::ProfileScope ckpt_phase("checkpoint_decide", "dp");
    inc.attempted = true;
    fp.modules = n;
    fp.nodes = k;
    fp.beam = beam;
    fp.words = W;
    fp.source = problem.source;
    fp.destination = problem.destination;
    fp.visited_check = options_.framerate_visited_check;
    fp.sum_tiebreak = options_.framerate_sum_tiebreak;
    fp.include_link_delay = model.options().include_link_delay;
    // computing_time(j, v) is work_units(j) / processing_power(v), so
    // folding the operands is at least as strict as folding the n * k
    // quotients.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t j = 1; j < n; ++j) {
      h = incremental_mix(
          h, std::bit_cast<std::uint64_t>(problem.pipeline->input_mb(j)));
      h = incremental_mix(
          h, std::bit_cast<std::uint64_t>(problem.pipeline->work_units(j)));
    }
    for (NodeId v = 0; v < k; ++v) {
      h = incremental_mix(
          h, std::bit_cast<std::uint64_t>(net.node(v).processing_power));
    }
    fp.problem_hash = h;

    const std::vector<graph::LinkUpdate>* delta = options_.delta;
    if (!ckpt->valid()) {
      inc.fallback = "no-checkpoint";
    } else if (!ckpt->matches(fp)) {
      inc.fallback = "fingerprint-mismatch";
    } else if (delta == nullptr) {
      inc.fallback = "no-delta";
    } else if (net.version() != ckpt->network_version() + delta->size()) {
      inc.fallback = "network-version-mismatch";
    } else {
      for (const graph::LinkUpdate& u : *delta) {
        const std::optional<graph::LinkAttr> attr =
            u.from < k && u.to < k ? net.find_link(u.from, u.to)
                                   : std::nullopt;
        if (!attr.has_value()) {
          inc.fallback = "unknown-link";
          break;
        }
        delta_links.push_back(Edge{u.from, u.to, *attr});
      }
      run_incremental = inc.fallback == nullptr;
    }
    if (!run_incremental) {
      ckpt->setup(fp);  // the full solve below recaptures from scratch
    }
  }

  const auto publish_stats = [&]() {
    if (options_.incremental_stats != nullptr) {
      *options_.incremental_stats = inc;
    }
  };

  // The cell kernel computes one DP cell's candidate list per call (the
  // edge scan, row scans, and top-beam insertion — the DP's entire
  // inner loop); which variant runs is a per-solve constant, so the
  // indirect call predicts perfectly.  All variants are bit-identical
  // by contract — the choice never affects results, so a plain kAuto
  // (no explicit option, no ELPC_FORCE_KERNEL) may downshift tiny
  // instances to scalar: below ~4k label-row operations per column the
  // vector kernels' per-cell setup costs more than their lanes win
  // (measured at the E6 5x10 point; break-even near 10x25).
  kernels::Kind kernel_kind =
      kernels::resolve_kernel(options_.framerate_kernel);
  if (options_.framerate_kernel == kernels::Kind::kAuto &&
      !kernels::auto_kernel_env_forced() &&
      net.link_count() * beam < 4096) {
    kernel_kind = kernels::Kind::kScalar;
  }
  const kernels::CellKernelFn cell_kernel = kernels::kernel_fn(kernel_kind);

  // Backward hop distances for the dead-cell prune: a cell that cannot
  // reach the destination on a simple path within the remaining modules
  // can never feed a live cell (see cell_dead), so skipping it changes
  // nothing but the work done.
  const std::vector<std::size_t> to_dest =
      graph::hops_to_target(net, problem.destination);

  // Hoisted CSR row tables (see min_delay): local variables give the
  // cell kernel measurably better code than per-row accessor calls.
  const Edge* const* const in_rows = net.in_row_pointers().data();
  const std::size_t* const in_off = net.in_row_offsets().data();

  // Where each label column lives: the checkpoint's columns when one is
  // supplied (a capturing full solve writes them in place, a re-solve
  // replays them in place), else the arena's two rolling columns.  Both
  // share one layout, so the kernels read either directly.
  using Column = FrameRateArena::Column;
  const auto column_at = [&](std::size_t j) {
    return ckpt != nullptr ? ckpt->column(j)
                           : arena.column(static_cast<int>(j & 1));
  };
  ParentRec* const parents =
      ckpt != nullptr ? ckpt->parents() : arena.parents();
  const std::size_t stride = arena.word_plane_stride();
  const bool visited_check = options_.framerate_visited_check;
  const bool sum_tiebreak = options_.framerate_sum_tiebreak;

  // Only the destination cell matters in the final column; other nodes
  // would strand the sink module elsewhere.  Conversely, intermediate
  // modules must stay OFF the destination: a simple path that consumes
  // the destination mid-way can never host the pinned sink module, so
  // such cells are dead ends that would only displace viable candidates.
  // Dead cells cannot reach the destination in the remaining columns.
  const auto cell_live = [&](std::size_t j, NodeId v) {
    return (j + 1 == n) == (v == problem.destination) &&
           !cell_dead(to_dest, v, j, n);
  };

  // Computes cell (j, v) of column `cur` from column `prev`: scans
  // incoming edges, keeps the top `beam` extensions, and materializes the
  // survivors' visited sets and parent records.  Each predecessor node
  // contributes at most its best extendable label, so survivors
  // automatically have distinct predecessors — the diversity rule of the
  // beam (identical-parent survivors have highly correlated visited sets
  // and add little).  A cell that is not live, or keeps nothing, leaves
  // cur.counts[v] as the caller set it.
  const auto sweep_cell = [&](std::size_t j, NodeId v, double input_mb,
                              const Column& prev, const Column& cur,
                              Candidate* cand) {
    if (!cell_live(j, v)) {
      return;
    }
    kernels::CellInputs inputs;
    inputs.edges = in_rows[v];
    inputs.edge_count = in_off[v + 1] - in_off[v];
    inputs.bottleneck = prev.bottleneck;
    inputs.sum = prev.sum;
    inputs.counts = prev.counts;
    // Node v's bit lives in word v >> 6 of every visited set; with the
    // word-major layout that whole word plane is contiguous by slot.
    const std::size_t word_index = v >> 6;
    inputs.visited =
        visited_check ? prev.words + word_index * stride : nullptr;
    inputs.beam = beam;
    inputs.bit = std::uint64_t{1} << (v & 63);
    inputs.input_mb = input_mb;
    inputs.comp = model.computing_time(j, v);
    inputs.include_link_delay = model.options().include_link_delay;
    inputs.sum_tiebreak = sum_tiebreak;
    const std::size_t kept = cell_kernel(inputs, cand);
    if (kept == 0) {
      return;
    }
    for (std::size_t s = 0; s < kept; ++s) {
      cur.bottleneck[v * beam + s] = cand[s].bottleneck;
      cur.sum[v * beam + s] = cand[s].sum;
      // Copy the parent's visited set — W strided moves under the
      // word-major layout, paid per survivor (<= beam per cell), not
      // per scanned edge like the check the layout optimizes for.
      const std::size_t from_slot = cand[s].node * beam + cand[s].slot;
      const std::size_t to_slot = v * beam + s;
      for (std::size_t w = 0; w < W; ++w) {
        cur.words[w * stride + to_slot] = prev.words[w * stride + from_slot];
      }
      cur.words[word_index * stride + to_slot] |= inputs.bit;
      parents[(j * k + v) * beam + s] = ParentRec{cand[s].node, cand[s].slot};
    }
    cur.counts[v] = static_cast<std::uint32_t>(kept);
  };

  // Sweeps column j from `prev` into `cur`: every column of a full solve,
  // a re-solve's wide columns.  Cells write disjoint slots, so the
  // pool-chunked sweep is bit-identical to the serial one.
  const auto sweep_column = [&](std::size_t j, const Column& prev,
                                const Column& cur) {
    std::fill_n(cur.counts, k, 0u);
    const double input_mb = problem.pipeline->input_mb(j);
    if (pool != nullptr && j + 1 < n) {
      pool->parallel_for(chunks, [&](std::size_t c) {
        const NodeId lo = static_cast<NodeId>(c * k / chunks);
        const NodeId hi = static_cast<NodeId>((c + 1) * k / chunks);
        Candidate* cand = arena.scratch(c);
        for (NodeId v = lo; v < hi; ++v) {
          sweep_cell(j, v, input_mb, prev, cur, cand);
        }
      });
    } else if (j + 1 == n) {
      // The final column reduces to the destination cell: the beam's
      // last top-k selection, worth its own slice.
      const util::ProfileScope topk_phase("beam_topk", "dp", j);
      sweep_cell(j, problem.destination, input_mb, prev, cur,
                 arena.scratch(0));
    } else {
      Candidate* cand = arena.scratch(0);
      for (NodeId v = 0; v < k; ++v) {
        sweep_cell(j, v, input_mb, prev, cur, cand);
      }
    }
  };

  if (!run_incremental) {
    const Column source = column_at(0);
    std::fill_n(source.counts, k, 0u);
    const std::size_t start = problem.source * beam;
    source.bottleneck[start] = 0.0;
    source.sum[start] = 0.0;
    for (std::size_t w = 0; w < W; ++w) {
      source.words[w * stride + start] = 0;
    }
    source.words[(problem.source >> 6) * stride + start] |=
        std::uint64_t{1} << (problem.source & 63);
    source.counts[problem.source] = 1;

    // One event pair per 64 columns (arg = segment's first column); the
    // per-cell beam top-k lives inside these segments — it runs in the
    // cell kernel, far too hot for per-cell events.
    util::PhaseSegments columns_phase("fps_columns", "dp");
    for (std::size_t j = 1; j < n; ++j) {
      check_abort(options_);
      columns_phase.tick(j);
      sweep_column(j, column_at(j - 1), column_at(j));
    }
  } else {
    // Column-reuse re-solve, in place.  Invariant at the top of iteration
    // j: checkpoint column j-1 holds the NEW column j-1, and `changed`
    // lists its cells whose state moved.  A changed input from
    // in-neighbour u — u in `changed`, or u -> v in the delta — makes
    // cell (j, v) dirty only when input_can_change says so (see
    // core/incremental.hpp); every other cell provably reproduces its
    // checkpointed state bit for bit and is never touched.
    ckpt->invalidate();  // torn until set_valid below
    inc.incremental = true;
    inc.columns_reused = 1;  // column 0 is the fixed source init
    const Edge* const* const out_rows = net.out_row_pointers().data();
    const std::size_t* const out_off = net.out_row_offsets().data();
    const Column scratch = arena.column(0);
    // Per-node stamps: the column that last tested / dirtied the cell.
    std::vector<std::size_t> tested_in(k, 0);
    std::vector<std::size_t> dirty_in(k, 0);
    std::vector<NodeId> dirty_list;
    std::vector<NodeId> changed;  // cells of column j-1 whose state moved
    std::vector<NodeId> next_changed;

    // Exact frontier test for live cell (j, v) against u's candidate over
    // `attr`, with the kernel contract's operations (see
    // kernels/framerate_kernel.hpp).  `old` is checkpoint column j before
    // any write-back; `prev` is the new column j-1.
    const auto input_can_change = [&](std::size_t j, NodeId u, NodeId v,
                                      const graph::LinkAttr& attr,
                                      double input_mb, const Column& prev,
                                      const Column& old) {
      if (old.counts[v] < beam) {
        return true;
      }
      const ParentRec* kept = parents + (j * k + v) * beam;
      for (std::size_t s = 0; s < beam; ++s) {
        if (kept[s].node == u) {
          return true;
        }
      }
      const double transport = model.transport_time(input_mb, attr);
      const double comp = model.computing_time(j, v);
      const std::uint64_t* visited =
          visited_check ? prev.words + (v >> 6) * stride : nullptr;
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      bool found = false;
      double best_bn = 0.0;
      double best_sum = 0.0;
      for (std::size_t s = 0; s < prev.counts[u]; ++s) {
        const std::size_t slot = u * beam + s;
        if (visited != nullptr && (visited[slot] & bit) != 0) {
          continue;
        }
        const double bn = std::max({prev.bottleneck[slot], transport, comp});
        const double sum = (prev.sum[slot] + transport) + comp;
        if (!found || kernels::candidate_before(bn, sum, best_bn, best_sum,
                                                sum_tiebreak)) {
          found = true;
          best_bn = bn;
          best_sum = sum;
        }
      }
      const std::size_t worst = v * beam + beam - 1;
      return found &&
             !kernels::candidate_before(old.bottleneck[worst], old.sum[worst],
                                        best_bn, best_sum, sum_tiebreak);
    };
    // Exact (bitwise) live-slot comparison of cell v between two columns.
    const auto same_cell = [&](const Column& a, const Column& b, NodeId v) {
      const std::size_t first = v * beam;
      const std::uint32_t count = a.counts[v];
      bool same = count == b.counts[v] &&
                  std::memcmp(a.bottleneck + first, b.bottleneck + first,
                              count * sizeof(double)) == 0 &&
                  std::memcmp(a.sum + first, b.sum + first,
                              count * sizeof(double)) == 0;
      for (std::size_t w = 0; w < W && same; ++w) {
        same = std::memcmp(a.words + w * stride + first,
                           b.words + w * stride + first,
                           count * sizeof(std::uint64_t)) == 0;
      }
      return same;
    };

    // Checkpoint replay, segmented like the full-solve column loop; each
    // column's frontier work gets its own slice below.
    util::PhaseSegments replay_phase("replay_columns", "dp");
    for (std::size_t j = 1; j < n; ++j) {
      // An abort here leaves the checkpoint invalidated (the upfront
      // invalidate() — set_valid only runs below), so a torn replay can
      // never be reused; the next re-solve recaptures from scratch.
      check_abort(options_);
      replay_phase.tick(j);
      const Column prev = ckpt->column(j - 1);
      const Column old = ckpt->column(j);
      const double input_mb = problem.pipeline->input_mb(j);
      const std::size_t tested_before = inc.cells_tested;
      util::ProfileScope dirty_phase("dirty_recompute", "dp", j);
      dirty_list.clear();
      bool wide = false;
      const auto consider = [&](NodeId u, NodeId v,
                                const graph::LinkAttr& attr) {
        if (wide || dirty_in[v] == j || !cell_live(j, v)) {
          return;
        }
        if (tested_in[v] != j) {
          tested_in[v] = j;
          ++inc.cells_tested;
        }
        if (input_can_change(j, u, v, attr, input_mb, prev, old)) {
          dirty_in[v] = j;
          dirty_list.push_back(v);
          wide = static_cast<double>(dirty_list.size()) >
                 kWideColumnShare * static_cast<double>(k);
        }
      };
      for (const Edge& e : delta_links) {
        consider(e.from, e.to, e.attr);
      }
      for (std::size_t i = 0; i < changed.size() && !wide; ++i) {
        const NodeId u = changed[i];
        for (const Edge& e :
             std::span(out_rows[u], out_off[u + 1] - out_off[u])) {
          consider(u, e.to, e.attr);
        }
      }
      if (wide) {
        sweep_column(j, prev, scratch);
        dirty_list.clear();
        for (NodeId v = 0; v < k; ++v) {
          if (cell_live(j, v)) {
            dirty_list.push_back(v);
          }
        }
      }
      next_changed.clear();
      for (const NodeId v : dirty_list) {
        if (!wide) {
          scratch.counts[v] = 0;
          sweep_cell(j, v, input_mb, prev, scratch, arena.scratch(0));
        }
        if (!same_cell(scratch, old, v)) {
          next_changed.push_back(v);
          const std::uint32_t kept = scratch.counts[v];
          old.counts[v] = kept;
          std::copy_n(scratch.bottleneck + v * beam, kept,
                      old.bottleneck + v * beam);
          std::copy_n(scratch.sum + v * beam, kept, old.sum + v * beam);
          for (std::size_t w = 0; w < W; ++w) {
            std::copy_n(scratch.words + w * stride + v * beam, kept,
                        old.words + w * stride + v * beam);
          }
        }
      }
      inc.cells_recomputed += dirty_list.size();
      inc.cells_changed += next_changed.size();
      // Span arg: this column's tested | recomputed << 21 | changed << 42.
      dirty_phase.set_end_arg(
          (inc.cells_tested - tested_before) |
          (std::uint64_t{dirty_list.size()} << 21) |
          (std::uint64_t{next_changed.size()} << 42));
      if (next_changed.empty()) {
        ++inc.columns_reused;
      }
      changed.swap(next_changed);
    }
  }
  if (ckpt != nullptr) {  // a capture or a replay completed
    ckpt->set_network_version(net.version());
    ckpt->set_valid();
  }

  // Steady-state guarantee: extending labels touched only setup()-sized
  // buffers, never the allocator.
  assert(arena.reallocations() == realloc_baseline);
  static_cast<void>(realloc_baseline);

  publish_stats();
  const Column last = column_at(n - 1);
  if (last.counts[problem.destination] == 0) {
    return MapResult::infeasible(
        "no simple path of the pipeline's length reaches the destination "
        "(heuristic may also have exhausted candidate nodes)");
  }

  // Reconstruct the best survivor (slot 0) by walking parent records.
  std::vector<NodeId> assignment(n, kInvalidNode);
  assignment[n - 1] = problem.destination;
  {
    NodeId v = problem.destination;
    std::uint32_t slot = 0;
    for (std::size_t j = n - 1; j > 0; --j) {
      const ParentRec rec = parents[(j * k + v) * beam + slot];
      assignment[j - 1] = rec.node;
      v = rec.node;
      slot = rec.slot;
    }
  }

  double bottleneck = last.bottleneck[problem.destination * beam];
  if (options_.framerate_local_search) {
    const util::ProfileScope search_phase("local_search", "dp");
    improve_by_node_swaps(problem, model, assignment, bottleneck);
  }

  MapResult result;
  result.feasible = true;
  result.seconds = bottleneck;
  result.mapping = Mapping(std::move(assignment));
  return result;
}

}  // namespace elpc::core
