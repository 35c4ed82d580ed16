#pragma once
// Seeded workload inputs.  Everything the benchmark sends is generated
// here from --seed, so the same seed gives the same networks, jobs,
// bulk file and link-update stream; the program under test only ever
// sees the generated inputs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/network.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "util/rng.hpp"

namespace perfbench {

using NamedNetworks = std::vector<std::pair<std::string, elpc::graph::Network>>;

/// Small networks (8-16 nodes) and a pool of 4-6-module jobs over them,
/// delay and frame rate mixed, mostly ELPC with some Streamline and
/// Greedy — the shape of examples/batch_jobs.json.  small_rpc draws from
/// the pool; bulk_load's file is built the same way.
struct SmallInputs {
  NamedNetworks networks;
  std::vector<elpc::service::SolveJob> pool;
};

/// The E6 largest point: 400-node networks at density 0.6 and 40-module
/// ELPC frame-rate jobs over them.
struct LargeInputs {
  NamedNetworks networks;
  std::vector<elpc::service::SolveJob> pool;
};

/// link_churn: one 400-node network and the four 40-module frame-rate
/// jobs subscribed to it (resolve_on_update).
struct ChurnInputs {
  std::string network_id;
  elpc::graph::Network network;
  std::vector<elpc::service::SolveJob> subscriptions;
};

inline constexpr std::size_t kSmallPoolJobs = 512;
inline constexpr std::size_t kBulkJobs = 2000;
inline constexpr std::size_t kLargeModules = 40;
inline constexpr std::size_t kLargeNodes = 400;
inline constexpr double kLargeDensity = 0.6;
inline constexpr std::size_t kLargeNetworks = 2;
inline constexpr std::size_t kLargeJobsPerNetwork = 4;
inline constexpr std::size_t kChurnSubscriptions = 4;

[[nodiscard]] SmallInputs make_small(std::uint64_t seed);
/// The bulk_load job file: the small networks plus kBulkJobs jobs.
[[nodiscard]] elpc::service::BatchSpec make_bulk(std::uint64_t seed,
                                                 const SmallInputs& small);
[[nodiscard]] LargeInputs make_large(std::uint64_t seed);
[[nodiscard]] ChurnInputs make_churn(std::uint64_t seed);

/// Endless seeded stream of link-update batches over one network's
/// links: mostly single links, every eighth batch 4-8 distinct links —
/// far under the incremental dirty-fraction cutoff.  One in eight, not
/// one in ten: with exactly 10% wide batches the p90 latency would sit
/// on the boundary between the two cost modes and jump between them
/// from run to run.
class UpdateStream {
 public:
  UpdateStream(const elpc::graph::Network& network, std::uint64_t seed);
  [[nodiscard]] std::vector<elpc::graph::LinkUpdate> next();

 private:
  std::vector<std::pair<elpc::graph::NodeId, elpc::graph::NodeId>> links_;
  elpc::util::Rng rng_;
  std::uint64_t produced_ = 0;
};

}  // namespace perfbench
