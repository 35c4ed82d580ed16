#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "pipeline/generator.hpp"

namespace perfbench {

namespace g = elpc::graph;
namespace s = elpc::service;
using elpc::util::Rng;

namespace {

// Stream ids keep each input family independent of the others, so adding
// a family never changes what an existing seed generates.
constexpr std::uint64_t kSmallStream = 1;
constexpr std::uint64_t kBulkStream = 2;
constexpr std::uint64_t kLargeStream = 3;
constexpr std::uint64_t kChurnStream = 4;

std::size_t links_at_density(std::size_t nodes, double density) {
  const std::size_t max_links = nodes * (nodes - 1);
  const auto links = static_cast<std::size_t>(
      std::llround(density * static_cast<double>(max_links)));
  return std::clamp(links, nodes, max_links);
}

s::SolveJob make_job(Rng& rng, std::string id, const std::string& network,
                     std::size_t nodes, std::size_t modules,
                     s::Objective objective, std::string algorithm) {
  s::SolveJob job;
  job.id = std::move(id);
  job.network = network;
  job.pipeline = elpc::pipeline::random_pipeline(
      rng, modules, elpc::pipeline::PipelineRanges{});
  job.objective = objective;
  job.algorithm = std::move(algorithm);
  job.cost = s::default_cost(objective);
  job.source = rng.index(nodes);
  do {
    job.destination = rng.index(nodes);
  } while (job.destination == job.source);
  return job;
}

/// One small job: 4-6 modules, either objective, ELPC two times in three.
s::SolveJob small_job(Rng& rng, std::string id, const NamedNetworks& networks) {
  const auto& [name, network] = networks[rng.index(networks.size())];
  const std::size_t modules = 4 + rng.index(3);
  const s::Objective objective =
      rng.bernoulli(0.5) ? s::Objective::kMinDelay : s::Objective::kMaxFrameRate;
  static const char* const kAlgorithms[] = {"ELPC", "ELPC", "ELPC",
                                            "ELPC", "Streamline", "Greedy"};
  return make_job(rng, std::move(id), name, network.node_count(), modules,
                  objective, kAlgorithms[rng.index(6)]);
}

g::Network large_network(Rng& rng) {
  return g::random_connected_network(
      rng, kLargeNodes, links_at_density(kLargeNodes, kLargeDensity),
      g::AttributeRanges{});
}

}  // namespace

SmallInputs make_small(std::uint64_t seed) {
  Rng rng = Rng(seed).split(kSmallStream);
  SmallInputs in;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t nodes = 8 + rng.index(9);
    in.networks.emplace_back(
        "small" + std::to_string(i),
        g::random_connected_network(rng, nodes, links_at_density(nodes, 0.6),
                                    g::AttributeRanges{}));
  }
  for (std::size_t i = 0; i < kSmallPoolJobs; ++i) {
    in.pool.push_back(small_job(rng, "rpc" + std::to_string(i), in.networks));
  }
  return in;
}

s::BatchSpec make_bulk(std::uint64_t seed, const SmallInputs& small) {
  Rng rng = Rng(seed).split(kBulkStream);
  s::BatchSpec spec;
  spec.networks = small.networks;
  for (std::size_t i = 0; i < kBulkJobs; ++i) {
    spec.jobs.push_back(
        small_job(rng, "bulk" + std::to_string(i), small.networks));
  }
  return spec;
}

LargeInputs make_large(std::uint64_t seed) {
  Rng rng = Rng(seed).split(kLargeStream);
  LargeInputs in;
  for (std::size_t n = 0; n < kLargeNetworks; ++n) {
    const std::string id = "large" + std::to_string(n);
    in.networks.emplace_back(id, large_network(rng));
    for (std::size_t j = 0; j < kLargeJobsPerNetwork; ++j) {
      in.pool.push_back(make_job(
          rng, id + "-job" + std::to_string(j), id, kLargeNodes, kLargeModules,
          s::Objective::kMaxFrameRate, "ELPC"));
    }
  }
  return in;
}

ChurnInputs make_churn(std::uint64_t seed) {
  Rng rng = Rng(seed).split(kChurnStream);
  ChurnInputs in;
  in.network_id = "churn";
  in.network = large_network(rng);
  for (std::size_t j = 0; j < kChurnSubscriptions; ++j) {
    s::SolveJob job =
        make_job(rng, "sub" + std::to_string(j), in.network_id, kLargeNodes,
                 kLargeModules, s::Objective::kMaxFrameRate, "ELPC");
    job.resolve_on_update = true;
    in.subscriptions.push_back(std::move(job));
  }
  return in;
}

UpdateStream::UpdateStream(const g::Network& network, std::uint64_t seed)
    : rng_(Rng(seed).split(kChurnStream + 100)) {
  for (g::NodeId v = 0; v < network.node_count(); ++v) {
    for (const g::Edge& e : network.out_edges(v)) {
      links_.emplace_back(e.from, e.to);
    }
  }
}

std::vector<g::LinkUpdate> UpdateStream::next() {
  const std::size_t width = (produced_ % 8 == 7) ? 4 + rng_.index(5) : 1;
  ++produced_;
  std::vector<std::size_t> picked;
  while (picked.size() < width) {
    const std::size_t k = rng_.index(links_.size());
    if (std::find(picked.begin(), picked.end(), k) == picked.end()) {
      picked.push_back(k);
    }
  }
  const g::AttributeRanges ranges;
  std::vector<g::LinkUpdate> batch;
  for (const std::size_t k : picked) {
    g::LinkUpdate u;
    u.from = links_[k].first;
    u.to = links_[k].second;
    u.attr.bandwidth_mbps =
        rng_.uniform_real(ranges.min_bandwidth_mbps, ranges.max_bandwidth_mbps);
    u.attr.min_delay_s =
        rng_.uniform_real(ranges.min_link_delay_s, ranges.max_link_delay_s);
    batch.push_back(u);
  }
  return batch;
}

}  // namespace perfbench
