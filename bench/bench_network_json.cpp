// The text -> Network layer of register_network on the E6 largest point
// (400 nodes, 95 760 links at density 0.6, ~9 MB of JSON, the network
// perfbench's large_solve and link_churn register).  Two ways through it:
//
//   tree    Json::parse of the whole document, a walk over the tree,
//           and the tree freed: how the daemon read a network before
//           graph::read_network_json.
//   cursor  graph::read_network_json straight from the text.
//
// Prints both medians with their spread first (9 timed runs each,
// interleaved), then hands over to google-benchmark.  Run:
//   ./bench_network_json --benchmark_filter=NONE

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "../tests/graph/tree_json_oracle.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace elpc::bench {
namespace {

constexpr std::size_t kNodes = 400;

/// The E6 40x400 network, as bench_runtime_scaling builds it.
const std::string& e6_text() {
  static const std::string text = [] {
    util::Rng rng(1234 + 40 * 7 + kNodes);
    const auto links = static_cast<std::size_t>(
        0.6 * static_cast<double>(kNodes) * static_cast<double>(kNodes - 1));
    const graph::Network net =
        graph::random_connected_network(rng, kNodes, links, {});
    std::string out;
    graph::append_json(out, net);
    return out;
  }();
  return text;
}

std::size_t read_by_tree(const std::string& text) {
  return graph::testing::tree_network_from_json(util::Json::parse(text))
      .link_count();
}

std::size_t read_by_cursor(const std::string& text) {
  util::JsonCursor in(text);
  const std::size_t links = graph::read_network_json(in).link_count();
  in.finish();
  return links;
}

void BM_NetworkJson_Tree(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_by_tree(e6_text()));
  }
}
BENCHMARK(BM_NetworkJson_Tree)->Unit(benchmark::kMillisecond);

void BM_NetworkJson_Cursor(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_by_cursor(e6_text()));
  }
}
BENCHMARK(BM_NetworkJson_Cursor)->Unit(benchmark::kMillisecond);

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void print_table() {
  banner("register_network text -> Network, E6 40x400");
  const std::string& text = e6_text();
  constexpr int kRuns = 9;
  std::vector<double> tree_ms;
  std::vector<double> cursor_ms;
  const auto time_ms = [&text](std::size_t (*read)(const std::string&)) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(read(text));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  (void)time_ms(read_by_tree);  // untimed warm-up of both paths
  (void)time_ms(read_by_cursor);
  for (int run = 0; run < kRuns; ++run) {
    tree_ms.push_back(time_ms(read_by_tree));
    cursor_ms.push_back(time_ms(read_by_cursor));
  }
  std::printf("%.2f MB, %zu links, %d interleaved runs each\n",
              static_cast<double>(text.size()) / 1e6,
              static_cast<std::size_t>(
                  0.6 * static_cast<double>(kNodes * (kNodes - 1))),
              kRuns);
  std::printf("%-8s %10s %10s %10s\n", "path", "p25_ms", "median_ms",
              "p75_ms");
  for (const auto& [name, ms] :
       {std::pair<const char*, const std::vector<double>&>{"tree", tree_ms},
        {"cursor", cursor_ms}}) {
    std::printf("%-8s %10.2f %10.2f %10.2f\n", name, quantile(ms, 0.25),
                quantile(ms, 0.5), quantile(ms, 0.75));
  }
}

}  // namespace
}  // namespace elpc::bench

int main(int argc, char** argv) {
  elpc::bench::print_table();
  return elpc::bench::run_registered_benchmarks(argc, argv);
}
