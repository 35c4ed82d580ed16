#include "graph/algorithms.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>

namespace elpc::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reconstructs a path from per-node parent pointers.
Path path_from_parents(const std::vector<NodeId>& parent, NodeId from,
                       NodeId to) {
  std::vector<NodeId> nodes;
  for (NodeId v = to; v != kInvalidNode; v = parent[v]) {
    nodes.push_back(v);
    if (v == from) {
      break;
    }
  }
  std::reverse(nodes.begin(), nodes.end());
  return Path(std::move(nodes));
}

}  // namespace

std::vector<bool> reachable_from(const Network& net, NodeId start) {
  std::vector<bool> seen(net.node_count(), false);
  if (start >= net.node_count()) {
    return seen;
  }
  std::queue<NodeId> frontier;
  frontier.push(start);
  seen[start] = true;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const Edge& e : net.out_edges(v)) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        frontier.push(e.to);
      }
    }
  }
  return seen;
}

std::vector<std::size_t> hops_to_target(const Network& net, NodeId target) {
  constexpr std::size_t kUnreach = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(net.node_count(), kUnreach);
  if (target >= net.node_count()) {
    return dist;
  }
  std::queue<NodeId> frontier;
  dist[target] = 0;
  frontier.push(target);
  // Stop once every node has its distance: BFS never revises one, and on
  // a dense network that takes a couple of pops, not a scan of every
  // in-edge.
  std::size_t reached = 1;
  while (!frontier.empty() && reached < dist.size()) {
    const NodeId v = frontier.front();
    frontier.pop();
    // Walk reversed edges: predecessors of v are one hop farther from the
    // target than v itself.
    for (const Edge& e : net.in_edges(v)) {
      if (dist[e.from] == kUnreach) {
        dist[e.from] = dist[v] + 1;
        frontier.push(e.from);
        ++reached;
      }
    }
  }
  return dist;
}

bool is_strongly_connected(const Network& net) {
  if (net.node_count() == 0) {
    return true;
  }
  const auto fwd = reachable_from(net, 0);
  if (std::find(fwd.begin(), fwd.end(), false) != fwd.end()) {
    return false;
  }
  // Reverse reachability: node 0 reachable from all <=> all nodes reach 0,
  // i.e. hops_to_target(0) finite everywhere.
  const auto back = hops_to_target(net, 0);
  return std::all_of(back.begin(), back.end(), [](std::size_t h) {
    return h != std::numeric_limits<std::size_t>::max();
  });
}

std::optional<WeightedPath> shortest_path(const Network& net, NodeId from,
                                          NodeId to,
                                          const EdgeWeight& weight) {
  const std::size_t k = net.node_count();
  if (from >= k || to >= k) {
    return std::nullopt;
  }
  std::vector<double> dist(k, kInf);
  std::vector<NodeId> parent(k, kInvalidNode);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) {
      continue;
    }
    if (v == to) {
      break;
    }
    for (const Edge& e : net.out_edges(v)) {
      const double w = weight(e);
      if (w < 0.0) {
        throw std::invalid_argument("shortest_path: negative edge weight");
      }
      if (d + w < dist[e.to]) {
        dist[e.to] = d + w;
        parent[e.to] = v;
        heap.emplace(dist[e.to], e.to);
      }
    }
  }
  if (dist[to] == kInf) {
    return std::nullopt;
  }
  return WeightedPath{path_from_parents(parent, from, to), dist[to]};
}

std::optional<WidestPath> widest_path(const Network& net, NodeId from,
                                      NodeId to, const EdgeWeight& weight) {
  const std::size_t k = net.node_count();
  if (from >= k || to >= k) {
    return std::nullopt;
  }
  std::vector<double> width(k, -kInf);
  std::vector<NodeId> parent(k, kInvalidNode);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item> heap;  // max-heap on width
  width[from] = kInf;
  heap.emplace(kInf, from);
  while (!heap.empty()) {
    const auto [w, v] = heap.top();
    heap.pop();
    if (w < width[v]) {
      continue;
    }
    if (v == to) {
      break;
    }
    for (const Edge& e : net.out_edges(v)) {
      const double cand = std::min(w, weight(e));
      if (cand > width[e.to]) {
        width[e.to] = cand;
        parent[e.to] = v;
        heap.emplace(cand, e.to);
      }
    }
  }
  if (width[to] == -kInf) {
    return std::nullopt;
  }
  return WidestPath{path_from_parents(parent, from, to), width[to]};
}

namespace {

/// Shared scaffolding for the exact-h-hop DPs over (visited-set, node)
/// states.  `better(a, b)` returns true when a should replace b;
/// `extend(state, edge)` combines a partial-path value with a new edge.
template <typename Better, typename Extend>
std::optional<std::pair<Path, double>> exact_hop_dp(
    const Network& net, NodeId from, NodeId to, std::size_t hops,
    const EdgeWeight& weight, std::size_t max_nodes, double init,
    const Better& better, const Extend& extend) {
  const std::size_t k = net.node_count();
  if (k > max_nodes) {
    throw std::invalid_argument(
        "exact_hop_dp: network too large for exact search");
  }
  if (k > 63) {
    throw std::invalid_argument("exact_hop_dp: more than 63 nodes");
  }
  if (from >= k || to >= k) {
    return std::nullopt;
  }
  if (hops + 1 > k) {
    return std::nullopt;  // a simple path cannot revisit nodes
  }

  using Mask = std::uint64_t;
  const std::size_t table_size = (1ULL << k) * k;
  // value[mask * k + v]: best objective over simple paths from `from`
  // that visit exactly `mask` and end at v.
  std::vector<double> value(table_size, kInf);
  std::vector<NodeId> parent(table_size, kInvalidNode);

  auto idx = [k](Mask mask, NodeId v) {
    return static_cast<std::size_t>(mask) * k + v;
  };

  const Mask start_mask = Mask{1} << from;
  value[idx(start_mask, from)] = init;

  // Iterate masks in increasing order; any extension adds a bit, so all
  // predecessor states are final before they are read.
  for (Mask mask = 1; mask < (Mask{1} << k); ++mask) {
    if ((mask & start_mask) == 0) {
      continue;
    }
    const auto bits = static_cast<std::size_t>(__builtin_popcountll(mask));
    if (bits > hops + 1) {
      continue;
    }
    for (NodeId v = 0; v < k; ++v) {
      if ((mask & (Mask{1} << v)) == 0) {
        continue;
      }
      const double cur = value[idx(mask, v)];
      if (cur == kInf) {
        continue;
      }
      for (const Edge& e : net.out_edges(v)) {
        const Mask bit = Mask{1} << e.to;
        if ((mask & bit) != 0) {
          continue;  // node already visited
        }
        const Mask next = mask | bit;
        const double cand = extend(cur, weight(e));
        double& slot = value[idx(next, e.to)];
        if (better(cand, slot)) {
          slot = cand;
          parent[idx(next, e.to)] = v;
        }
      }
    }
  }

  // Choose the best terminal state: exactly hops+1 visited nodes, ending
  // at `to`, containing `from`.
  double best = kInf;
  Mask best_mask = 0;
  for (Mask mask = 1; mask < (Mask{1} << k); ++mask) {
    if ((mask & start_mask) == 0 || (mask & (Mask{1} << to)) == 0) {
      continue;
    }
    if (static_cast<std::size_t>(__builtin_popcountll(mask)) != hops + 1) {
      continue;
    }
    const double v = value[idx(mask, to)];
    if (better(v, best)) {
      best = v;
      best_mask = mask;
    }
  }
  if (best == kInf) {
    return std::nullopt;
  }

  // Reconstruct by walking parents while clearing bits.
  std::vector<NodeId> nodes;
  Mask mask = best_mask;
  NodeId v = to;
  while (v != kInvalidNode) {
    nodes.push_back(v);
    const NodeId p = parent[idx(mask, v)];
    mask &= ~(Mask{1} << v);
    v = p;
  }
  std::reverse(nodes.begin(), nodes.end());
  return std::make_pair(Path(std::move(nodes)), best);
}

}  // namespace

std::optional<WeightedPath> exact_hop_shortest_path(
    const Network& net, NodeId from, NodeId to, std::size_t hops,
    const EdgeWeight& weight, std::size_t max_nodes) {
  auto result = exact_hop_dp(
      net, from, to, hops, weight, max_nodes, /*init=*/0.0,
      [](double a, double b) { return a < b; },
      [](double acc, double w) { return acc + w; });
  if (!result.has_value()) {
    return std::nullopt;
  }
  return WeightedPath{std::move(result->first), result->second};
}

std::optional<WidestPath> exact_hop_widest_path(const Network& net,
                                                NodeId from, NodeId to,
                                                std::size_t hops,
                                                const EdgeWeight& weight,
                                                std::size_t max_nodes) {
  // Track the *negated* width so "smaller is better" matches the shared
  // DP's infinity sentinel.
  auto result = exact_hop_dp(
      net, from, to, hops, weight, max_nodes, /*init=*/-kInf,
      [](double a, double b) { return a < b; },
      [](double acc, double w) { return std::max(acc, -w); });
  if (!result.has_value()) {
    return std::nullopt;
  }
  return WidestPath{std::move(result->first), -result->second};
}

void for_each_simple_path(const Network& net, NodeId from, NodeId to,
                          std::size_t node_count,
                          const std::function<bool(const Path&)>& visit) {
  if (from >= net.node_count() || to >= net.node_count() || node_count == 0) {
    return;
  }
  if (node_count == 1) {
    if (from == to) {
      visit(Path({from}));
    }
    return;
  }
  std::vector<NodeId> stack{from};
  std::vector<bool> used(net.node_count(), false);
  used[from] = true;
  bool stop = false;

  const std::function<void()> dfs = [&]() {
    if (stop) {
      return;
    }
    if (stack.size() == node_count) {
      if (stack.back() == to) {
        if (!visit(Path(stack))) {
          stop = true;
        }
      }
      return;
    }
    const NodeId v = stack.back();
    for (const Edge& e : net.out_edges(v)) {
      if (used[e.to]) {
        continue;
      }
      // Prune: `to` may only appear in the final position.
      if (e.to == to && stack.size() + 1 != node_count) {
        continue;
      }
      used[e.to] = true;
      stack.push_back(e.to);
      dfs();
      stack.pop_back();
      used[e.to] = false;
      if (stop) {
        return;
      }
    }
  };
  dfs();
}

std::size_t count_simple_paths(const Network& net, NodeId from, NodeId to,
                               std::size_t node_count) {
  std::size_t count = 0;
  for_each_simple_path(net, from, to, node_count, [&count](const Path&) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace elpc::graph
