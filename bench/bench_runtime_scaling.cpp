// E6 — supports the paper's Section 4.3 execution-time claim ("varies
// from milliseconds for small-scale problems to seconds for large-scale
// ones") and the quoted complexities: O(n*|E|) for ELPC, O(m*n^2) for
// Streamline (original), O(m*n) for Greedy.  Prints a wall-clock scaling
// table over a size sweep, then runs google-benchmark timers per
// algorithm at increasing scales so the growth curves can be read off
// directly.

#include "bench_common.hpp"

#include <algorithm>
#include <chrono>

#include "core/elpc.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "experiments/scaling.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace elpc;

constexpr const char* kJsonPath = "BENCH_runtime_scaling.json";

/// Persists the sweep as the machine-readable perf trajectory future PRs
/// regress against: one record per (scale, algorithm) with the mean
/// per-objective milliseconds, plus the delta-driven re-solve dimension
/// as two pseudo-algorithm records per scale ("ELPC-resolve-full" /
/// "ELPC-resolve-incremental" — frame-rate-only by construction, so the
/// delay field is zero; their `*_mean_ms` keys, kept for the gate's
/// reference, carry the median of the timed flips).  The nightly perf run uploads this document;
/// the regression gate only compares keys present in its reference.
void write_scaling_json(const std::vector<experiments::ScalingPoint>& points,
                        const std::vector<std::string>& names) {
  util::JsonArray records;
  for (const auto& p : points) {
    for (std::size_t a = 0; a < names.size(); ++a) {
      util::Json record = util::JsonObject{};
      record.set("modules", p.modules);
      record.set("nodes", p.nodes);
      record.set("links", p.links);
      record.set("algorithm", names[a]);
      record.set("min_delay_mean_ms", p.min_delay_ms[a]);
      record.set("max_frame_rate_mean_ms", p.max_frame_rate_ms[a]);
      record.set("total_mean_ms", p.min_delay_ms[a] + p.max_frame_rate_ms[a]);
      records.push_back(std::move(record));
    }
    for (const auto& [name, resolve_ms] :
         {std::pair<const char*, double>{"ELPC-resolve-full",
                                         p.elpc_resolve_full_ms},
          {"ELPC-resolve-incremental", p.elpc_resolve_incremental_ms}}) {
      util::Json record = util::JsonObject{};
      record.set("modules", p.modules);
      record.set("nodes", p.nodes);
      record.set("links", p.links);
      record.set("algorithm", name);
      record.set("min_delay_mean_ms", 0.0);
      record.set("max_frame_rate_mean_ms", resolve_ms);
      record.set("total_mean_ms", resolve_ms);
      records.push_back(std::move(record));
    }
  }
  util::Json doc = util::JsonObject{};
  doc.set("bench", "runtime_scaling");
  doc.set("unit", "milliseconds");
  doc.set("records", util::Json(std::move(records)));
  util::write_text_file(kJsonPath, doc.dump(2) + "\n");
  std::printf("wrote %s\n", kJsonPath);
}

void print_scaling() {
  bench::banner("algorithm runtime scaling (mean of 3 runs, both objectives)");
  experiments::ScalingConfig config;
  const auto points = experiments::run_scaling_study(config);
  util::TextTable table({"modules", "nodes", "links", "ELPC ms",
                         "Streamline ms", "Greedy ms"});
  for (const auto& p : points) {
    const auto total = [&p](std::size_t a) {
      return p.min_delay_ms[a] + p.max_frame_rate_ms[a];
    };
    table.add_row({std::to_string(p.modules), std::to_string(p.nodes),
                   std::to_string(p.links), util::format_double(total(0), 3),
                   util::format_double(total(1), 3),
                   util::format_double(total(2), 3)});
  }
  std::printf("%s\n", table.render().c_str());

  bench::banner(
      "single-link delta re-solve (ELPC frame rate): full recompute vs "
      "checkpoint column reuse — bit-identical answers");
  util::TextTable resolve_table(
      {"modules", "nodes", "full ms", "incremental ms", "speedup"});
  for (const auto& p : points) {
    const double speedup =
        p.elpc_resolve_incremental_ms > 0.0
            ? p.elpc_resolve_full_ms / p.elpc_resolve_incremental_ms
            : 0.0;
    resolve_table.add_row(
        {std::to_string(p.modules), std::to_string(p.nodes),
         util::format_double(p.elpc_resolve_full_ms, 3),
         util::format_double(p.elpc_resolve_incremental_ms, 3),
         util::format_double(speedup, 2) + "x"});
  }
  std::printf("%s\n", resolve_table.render().c_str());
  write_scaling_json(points, experiments::scaling_algorithm_names());
}

workload::Scenario make_scaled(std::size_t modules, std::size_t nodes) {
  util::Rng rng(1234 + modules * 7 + nodes);
  const std::size_t links = std::min(
      nodes * (nodes - 1),
      static_cast<std::size_t>(0.6 * static_cast<double>(nodes) *
                               static_cast<double>(nodes - 1)));
  workload::Scenario s;
  s.pipeline = pipeline::random_pipeline(rng, modules, {});
  s.network = graph::random_connected_network(rng, nodes,
                                              std::max(links, nodes), {});
  s.source = 0;
  s.destination = nodes - 1;
  return s;
}

void BM_Algorithm(benchmark::State& state, const std::string& name) {
  const auto modules = static_cast<std::size_t>(state.range(0));
  const auto nodes = static_cast<std::size_t>(state.range(1));
  const workload::Scenario scenario = make_scaled(modules, nodes);
  const mapping::Problem problem = scenario.problem();
  const mapping::MapperPtr mapper = experiments::make_mapper(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper->min_delay(problem));
    benchmark::DoNotOptimize(mapper->max_frame_rate(problem));
  }
  state.counters["modules"] = static_cast<double>(modules);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["links"] = static_cast<double>(scenario.network.link_count());
}

/// Per-kernel dimension: the frame-rate DP alone (the only code the row
/// kernels serve), one benchmark per kernel this machine can run, at
/// the same scale points as the algorithm sweep.  Comparing the largest
/// point across kernels is the headline speedup number; the kernels are
/// bit-identical (KernelParity tests + the CI parity job), so any delta
/// is pure throughput.
void BM_ElpcFramerateKernel(benchmark::State& state,
                            core::kernels::Kind kind) {
  const auto modules = static_cast<std::size_t>(state.range(0));
  const auto nodes = static_cast<std::size_t>(state.range(1));
  const workload::Scenario scenario = make_scaled(modules, nodes);
  const mapping::Problem problem = scenario.problem();
  core::ElpcOptions options;
  options.framerate_kernel = kind;
  const core::ElpcMapper mapper(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.max_frame_rate(problem));
  }
  state.counters["modules"] = static_cast<double>(modules);
  state.counters["nodes"] = static_cast<double>(nodes);
}

/// Delta re-solve dimension under the google-benchmark timers: one
/// single-link bandwidth flip + frame-rate re-solve per iteration,
/// either from scratch or through the retained column checkpoint.  The
/// two variants produce bit-identical results (Incremental* tests + the
/// CI incremental-parity job); the ratio at the largest point is the
/// headline incremental speedup.
void BM_ElpcDeltaResolve(benchmark::State& state, bool incremental) {
  const auto modules = static_cast<std::size_t>(state.range(0));
  const auto nodes = static_cast<std::size_t>(state.range(1));
  workload::Scenario scenario = make_scaled(modules, nodes);
  scenario.network.finalize();
  const mapping::Problem problem = scenario.problem();
  const graph::Edge edge = scenario.network.out_edges(nodes / 2).front();
  std::vector<graph::LinkUpdate> updates = {
      graph::LinkUpdate{edge.from, edge.to, edge.attr}};
  std::size_t flips = 0;
  const auto flip = [&]() {
    updates[0].attr.bandwidth_mbps =
        edge.attr.bandwidth_mbps * (flips++ % 2 == 0 ? 0.5 : 1.0);
    scenario.network.apply_link_updates(updates);
  };

  core::IncrementalCheckpoint checkpoint;
  core::ElpcOptions options;
  if (incremental) {
    options.checkpoint = &checkpoint;
  }
  const core::ElpcMapper capture_mapper(options);
  (void)capture_mapper.max_frame_rate(problem);  // warm-up / capture
  if (incremental) {
    options.delta = &updates;
  }
  const core::ElpcMapper mapper(options);
  for (auto _ : state) {
    flip();
    benchmark::DoNotOptimize(mapper.max_frame_rate(problem));
  }
  state.counters["modules"] = static_cast<double>(modules);
  state.counters["nodes"] = static_cast<double>(nodes);
}

/// Updates in the delta re-solve stream, and the stream bench's pinned
/// iteration count: the values are absolute, so a second pass would
/// re-apply what the links already hold and time no-op re-solves.
constexpr std::size_t kStreamLength = 200;

/// Delta re-solve over a seeded stream of kStreamLength random
/// single-link updates (bandwidth x0.5 or x2 of the link's original
/// value), each applied once: iteration i applies update i and
/// re-solves through the checkpoint.  The fixed link above is one
/// typical (p50) case; the stream's mean includes the tail, where an
/// update reaches many cells.  Reports the mean cells_recomputed per
/// re-solve, and the tail beside it: the stream's largest
/// cells_recomputed and its slowest re-solve.
void BM_ElpcDeltaResolveStream(benchmark::State& state) {
  const auto modules = static_cast<std::size_t>(state.range(0));
  const auto nodes = static_cast<std::size_t>(state.range(1));
  workload::Scenario scenario = make_scaled(modules, nodes);
  scenario.network.finalize();
  const mapping::Problem problem = scenario.problem();
  util::Rng rng(7);
  std::vector<graph::LinkUpdate> stream;
  while (stream.size() < kStreamLength) {
    const graph::NodeId from = rng.index(nodes);
    const auto out = scenario.network.out_edges(from);
    if (out.empty()) {
      continue;
    }
    const graph::Edge edge = out[rng.index(out.size())];
    const double factor = rng.index(2) == 0 ? 0.5 : 2.0;
    stream.push_back(graph::LinkUpdate{
        edge.from, edge.to,
        graph::LinkAttr{edge.attr.bandwidth_mbps * factor,
                        edge.attr.min_delay_s}});
  }

  core::IncrementalCheckpoint checkpoint;
  core::IncrementalStats stats;
  core::ElpcOptions options;
  options.checkpoint = &checkpoint;
  (void)core::ElpcMapper(options).max_frame_rate(problem);  // capture
  std::vector<graph::LinkUpdate> delta(1);
  options.delta = &delta;
  options.incremental_stats = &stats;
  const core::ElpcMapper mapper(options);
  std::size_t resolves = 0;
  std::size_t cells = 0;
  std::size_t max_cells = 0;
  double max_ms = 0.0;
  for (auto _ : state) {
    delta[0] = stream[resolves];
    scenario.network.apply_link_updates(delta);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(mapper.max_frame_rate(problem));
    max_ms = std::max(max_ms, std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
    cells += stats.cells_recomputed;
    max_cells = std::max(max_cells, stats.cells_recomputed);
    ++resolves;
  }
  state.counters["modules"] = static_cast<double>(modules);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["cells_recomputed"] =
      resolves == 0 ? 0.0
                    : static_cast<double>(cells) / static_cast<double>(resolves);
  state.counters["max_cells_recomputed"] = static_cast<double>(max_cells);
  state.counters["max_resolve_ms"] = max_ms;
}

void register_benchmarks() {
  for (const bool incremental : {false, true}) {
    auto* b = benchmark::RegisterBenchmark(
        incremental ? "BM_ELPC_delta_resolve/incremental"
                    : "BM_ELPC_delta_resolve/full",
        [incremental](benchmark::State& state) {
          BM_ElpcDeltaResolve(state, incremental);
        });
    b->Args({5, 10})->Args({10, 25})->Args({20, 100})->Args({40, 400});
    b->Unit(benchmark::kMillisecond);
  }
  {
    auto* b = benchmark::RegisterBenchmark("BM_ELPC_delta_resolve/stream",
                                           BM_ElpcDeltaResolveStream);
    b->Args({5, 10})->Args({10, 25})->Args({20, 100})->Args({40, 400});
    b->Iterations(kStreamLength);
    b->Unit(benchmark::kMillisecond);
  }
  for (const char* name : {"ELPC", "Streamline", "Greedy"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("BM_") + name).c_str(),
        [name](benchmark::State& state) { BM_Algorithm(state, name); });
    b->Args({5, 10})->Args({10, 25})->Args({20, 100})->Args({40, 400});
    b->Unit(benchmark::kMillisecond);
  }
  for (const core::kernels::Kind kind : core::kernels::available_kernels()) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("BM_ELPC_framerate_kernel/") +
         core::kernels::kind_name(kind))
            .c_str(),
        [kind](benchmark::State& state) {
          BM_ElpcFramerateKernel(state, kind);
        });
    b->Args({5, 10})->Args({10, 25})->Args({20, 100})->Args({40, 400});
    b->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_scaling();
  register_benchmarks();
  return elpc::bench::run_registered_benchmarks(argc, argv);
}
