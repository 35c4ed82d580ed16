#include "experiments/scaling.hpp"

#include <algorithm>
#include <vector>

#include "core/elpc.hpp"
#include "core/incremental.hpp"
#include "experiments/registry.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload/scenario.hpp"

namespace elpc::experiments {

std::vector<std::string> scaling_algorithm_names() {
  return {"ELPC", "Streamline", "Greedy"};
}

std::vector<ScalingPoint> run_scaling_study(const ScalingConfig& config) {
  util::Rng master(config.seed);
  const std::vector<std::string> names = scaling_algorithm_names();

  std::vector<ScalingPoint> points;
  for (std::size_t s = 0; s < config.sizes.size(); ++s) {
    const auto [modules, nodes] = config.sizes[s];
    const std::size_t max_links = nodes * (nodes - 1);
    const std::size_t links = std::clamp(
        static_cast<std::size_t>(config.density *
                                 static_cast<double>(max_links)),
        nodes, max_links);

    util::Rng rng = master.split(s + 1);
    workload::Scenario scenario;
    scenario.pipeline =
        pipeline::random_pipeline(rng, modules, pipeline::PipelineRanges{});
    scenario.network = graph::random_connected_network(
        rng, nodes, links, graph::AttributeRanges{});
    scenario.source = rng.index(nodes);
    do {
      scenario.destination = rng.index(nodes);
    } while (scenario.destination == scenario.source);
    scenario.network.finalize();

    ScalingPoint point;
    point.modules = modules;
    point.nodes = nodes;
    point.links = links;

    // Delta-driven re-solve dimension (ELPC frame rate only — the one
    // code path with an incremental solver).  Measured on a private copy
    // so the timed study below is untouched: flip one link's bandwidth,
    // re-solve from scratch; then recapture and re-solve the same flip
    // sequence with column reuse.
    {
      graph::Network net = scenario.network;
      const mapping::Problem problem(scenario.pipeline, net,
                                     scenario.source, scenario.destination,
                                     pipeline::CostOptions{});
      const graph::Edge edge = net.out_edges(nodes / 2).front();
      std::vector<graph::LinkUpdate> updates = {
          graph::LinkUpdate{edge.from, edge.to, edge.attr}};
      const auto flip = [&](std::size_t i) {
        updates[0].attr.bandwidth_mbps =
            edge.attr.bandwidth_mbps * (i % 2 == 0 ? 0.5 : 1.0);
        net.apply_link_updates(updates);
      };
      const std::size_t resolves =
          std::max<std::size_t>(1, config.resolve_repeats);
      // Each flip and its re-solve timed on its own, reported as the
      // median: one stalled run cannot set the row.
      const auto median_resolve_ms = [&](const core::ElpcMapper& mapper,
                                         std::size_t first_flip) {
        std::vector<double> ms(resolves);
        for (std::size_t i = 0; i < resolves; ++i) {
          const util::WallTimer timer;
          flip(first_flip + i);
          (void)mapper.max_frame_rate(problem);
          ms[i] = timer.elapsed_ms();
        }
        return util::percentile(std::move(ms), 50.0);
      };

      core::IncrementalCheckpoint checkpoint;
      core::ElpcOptions capture_options;
      capture_options.checkpoint = &checkpoint;
      // Capture doubles as the warm-up solve for both timed loops.
      (void)core::ElpcMapper(capture_options).max_frame_rate(problem);

      point.elpc_resolve_full_ms =
          median_resolve_ms(core::ElpcMapper(), 0);

      // Re-capture against the post-flip network so the incremental
      // loop's first delta applies (versions must line up exactly).
      (void)core::ElpcMapper(capture_options).max_frame_rate(problem);
      core::ElpcOptions incremental_options = capture_options;
      incremental_options.delta = &updates;
      point.elpc_resolve_incremental_ms =
          median_resolve_ms(core::ElpcMapper(incremental_options), 1);
    }

    // Time each algorithm's library-default mapper (internal column sweep
    // on where it engages) on both objectives under the default cost
    // model, one untimed call before the timed ones: the convention the
    // checked-in perf trajectory was measured under.
    const mapping::Problem problem(scenario.pipeline, scenario.network,
                                   scenario.source, scenario.destination,
                                   pipeline::CostOptions{});
    const std::size_t repeats = std::max<std::size_t>(1, config.repeats);
    for (const std::string& name : names) {
      const mapping::MapperPtr mapper = make_mapper(name);
      for (const bool framerate : {false, true}) {
        const auto run = [&]() {
          return framerate ? mapper->max_frame_rate(problem)
                           : mapper->min_delay(problem);
        };
        (void)run();
        const util::WallTimer timer;
        for (std::size_t r = 0; r < repeats; ++r) {
          (void)run();
        }
        (framerate ? point.max_frame_rate_ms : point.min_delay_ms)
            .push_back(timer.elapsed_ms() / static_cast<double>(repeats));
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace elpc::experiments
