// Incremental (delta-driven, column-reuse) frame-rate re-solves must be
// BIT-IDENTICAL to from-scratch solves — same seconds, same mapping —
// under arbitrary link-update sequences, and must fall back to a full
// solve (recapturing the checkpoint) whenever the checkpoint cannot
// prove reuse safe.  The CI incremental-parity job extends this suite
// with per-kernel fuzzing over serialized batch results.

#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/elpc.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "util/rng.hpp"

namespace elpc::core {
namespace {

using graph::LinkAttr;
using graph::LinkUpdate;
using graph::Network;
using graph::NodeId;

Network make_network(std::uint64_t seed, std::size_t nodes,
                     std::size_t links) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, nodes, links,
                                         graph::AttributeRanges{});
}

pipeline::Pipeline make_pipeline(std::uint64_t seed, std::size_t modules) {
  util::Rng rng(seed);
  return pipeline::random_pipeline(rng, modules, pipeline::PipelineRanges{});
}

mapping::Problem framerate_problem(const pipeline::Pipeline& pipeline,
                                   const Network& net, NodeId source,
                                   NodeId destination) {
  return mapping::Problem(pipeline, net, source, destination,
                          pipeline::CostOptions{.include_link_delay = false});
}

/// Incremental-vs-scratch comparison for one state of `net`:
/// `incremental` solves with the persistent checkpoint + delta, scratch
/// runs a plain mapper on the same network.  Exact (==) equality.
void expect_parity(const pipeline::Pipeline& pipeline, const Network& net,
                   NodeId source, NodeId destination,
                   IncrementalCheckpoint& ckpt,
                   const std::vector<LinkUpdate>* delta,
                   IncrementalStats* stats, const std::string& context) {
  ElpcOptions inc_options;
  inc_options.checkpoint = &ckpt;
  inc_options.delta = delta;
  inc_options.incremental_stats = stats;
  const mapping::MapResult inc =
      ElpcMapper(inc_options).max_frame_rate(
          framerate_problem(pipeline, net, source, destination));
  const mapping::MapResult scratch = ElpcMapper().max_frame_rate(
      framerate_problem(pipeline, net, source, destination));
  ASSERT_EQ(inc.feasible, scratch.feasible) << context;
  if (scratch.feasible) {
    EXPECT_EQ(inc.seconds, scratch.seconds) << context;
    EXPECT_EQ(inc.mapping, scratch.mapping) << context;
  }
}

/// 1..max_links random metric deltas on existing links.
std::vector<LinkUpdate> random_updates(util::Rng& rng, const Network& net,
                                       std::size_t max_links) {
  const std::size_t count = 1 + rng.index(max_links);
  std::vector<LinkUpdate> updates;
  for (std::size_t i = 0; i < count; ++i) {
    NodeId from = rng.index(net.node_count());
    while (net.out_degree(from) == 0) {
      from = rng.index(net.node_count());
    }
    const graph::Edge edge =
        net.out_edges(from)[rng.index(net.out_degree(from))];
    updates.push_back(LinkUpdate{
        edge.from, edge.to,
        LinkAttr{edge.attr.bandwidth_mbps * rng.uniform_real(0.3, 3.0),
                 edge.attr.min_delay_s * rng.uniform_real(0.5, 2.0)}});
  }
  return updates;
}

TEST(Incremental, EmptyDeltaReplaysEveryColumn) {
  const pipeline::Pipeline pipeline = make_pipeline(3, 5);
  const Network net = make_network(7, 12, 70);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;

  // First solve: nothing to reuse; captures.
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "capture");
  EXPECT_TRUE(stats.attempted);
  EXPECT_FALSE(stats.incremental);
  EXPECT_STREQ(stats.fallback, "no-checkpoint");
  EXPECT_TRUE(ckpt.valid());

  // Unchanged network + empty delta: pure replay, zero kernel runs.
  const std::vector<LinkUpdate> none;
  expect_parity(pipeline, net, 0, 11, ckpt, &none, &stats, "replay");
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.fallback, nullptr);
  EXPECT_EQ(stats.columns_reused, stats.columns_total);
  EXPECT_EQ(stats.cells_recomputed, 0u);
}

TEST(Incremental, RandomUpdateSequencesMatchScratch) {
  // The 80-node case crosses the 64-node boundary, so checkpoint
  // columns carry multi-word visited planes (words_per_set == 2).
  for (const auto& [net_seed, nodes, links, modules] :
       {std::tuple<std::uint64_t, std::size_t, std::size_t, std::size_t>{
            11, 12, 70, 5},
        {12, 25, 300, 8},
        {13, 16, 60, 9},
        {14, 80, 900, 10}}) {
    Network net = make_network(net_seed, nodes, links);
    const pipeline::Pipeline pipeline = make_pipeline(net_seed + 50, modules);
    IncrementalCheckpoint ckpt;
    util::Rng rng(net_seed * 1000 + 1);

    IncrementalStats stats;
    expect_parity(pipeline, net, 0, nodes - 1, ckpt, nullptr, &stats,
                  "initial");
    std::size_t hits = 0;
    for (int round = 0; round < 12; ++round) {
      const std::vector<LinkUpdate> updates = random_updates(rng, net, 2);
      net.apply_link_updates(updates);
      expect_parity(pipeline, net, 0, nodes - 1, ckpt, &updates, &stats,
                    "seed " + std::to_string(net_seed) + " round " +
                        std::to_string(round));
      hits += stats.incremental ? 1 : 0;
    }
    // Two-link updates on these sizes are always narrow enough to reuse.
    EXPECT_EQ(hits, 12u) << net_seed;
  }
}

TEST(Incremental, UpdateIntoDestinationReachesLastColumn) {
  Network net = make_network(21, 14, 80);
  const pipeline::Pipeline pipeline = make_pipeline(22, 6);
  const NodeId destination = 13;
  ASSERT_GT(net.in_degree(destination), 0u);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, destination, ckpt, nullptr, &stats,
                "initial");

  // The only cell computed in the final column is the destination's;
  // throttling a link INTO it must dirty exactly that frontier and stay
  // bit-identical.
  const graph::Edge edge = net.in_edges(destination).front();
  for (const double factor : {0.05, 20.0, 1.0}) {
    const std::vector<LinkUpdate> updates = {LinkUpdate{
        edge.from, edge.to,
        LinkAttr{edge.attr.bandwidth_mbps * factor, edge.attr.min_delay_s}}};
    net.apply_link_updates(updates);
    expect_parity(pipeline, net, 0, destination, ckpt, &updates, &stats,
                  "factor " + std::to_string(factor));
    EXPECT_TRUE(stats.incremental);
  }
}

TEST(Incremental, BandwidthSwingMovesCandidatesInAndOutOfTheBeam) {
  // Swinging one link's bandwidth across two orders of magnitude makes
  // its transport term dominate or vanish, so the predecessor it feeds
  // enters and leaves cells' beams — the "row widens/narrows" edge case.
  Network net = make_network(31, 12, 70);
  const pipeline::Pipeline pipeline = make_pipeline(32, 6);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "initial");

  const graph::Edge edge = net.out_edges(3).front();
  for (const double factor :
       {0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 0.01, 100.0}) {
    const std::vector<LinkUpdate> updates = {LinkUpdate{
        edge.from, edge.to,
        LinkAttr{edge.attr.bandwidth_mbps * factor, edge.attr.min_delay_s}}};
    net.apply_link_updates(updates);
    expect_parity(pipeline, net, 0, 11, ckpt, &updates, &stats,
                  "factor " + std::to_string(factor));
    EXPECT_TRUE(stats.incremental);
  }
}

TEST(Incremental, NoOpUpdateReplaysAllColumns) {
  Network net = make_network(41, 12, 70);
  const pipeline::Pipeline pipeline = make_pipeline(42, 5);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "initial");

  // Re-publishing a link's existing attributes recomputes its target's
  // cells but changes nothing, so no difference ever propagates.
  const graph::Edge edge = net.out_edges(0).front();
  const std::vector<LinkUpdate> updates = {
      LinkUpdate{edge.from, edge.to, edge.attr}};
  net.apply_link_updates(updates);
  expect_parity(pipeline, net, 0, 11, ckpt, &updates, &stats, "no-op");
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.columns_reused, stats.columns_total);
  EXPECT_GT(stats.cells_recomputed, 0u);
  EXPECT_LT(stats.cells_recomputed, stats.cells_total);
}

TEST(Incremental, FallsBackWithoutDeltaAndRecaptures) {
  Network net = make_network(51, 12, 70);
  const pipeline::Pipeline pipeline = make_pipeline(52, 5);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "initial");

  const graph::Edge edge = net.out_edges(0).front();
  std::vector<LinkUpdate> updates = {LinkUpdate{
      edge.from, edge.to,
      LinkAttr{edge.attr.bandwidth_mbps * 0.5, edge.attr.min_delay_s}}};
  net.apply_link_updates(updates);
  // Unknown delta: must not reuse, must recapture.
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "no delta");
  EXPECT_FALSE(stats.incremental);
  EXPECT_STREQ(stats.fallback, "no-delta");
  // The recaptured checkpoint serves the next delta incrementally.
  updates[0].attr.bandwidth_mbps = edge.attr.bandwidth_mbps * 2.0;
  net.apply_link_updates(updates);
  expect_parity(pipeline, net, 0, 11, ckpt, &updates, &stats, "after");
  EXPECT_TRUE(stats.incremental);
}

TEST(Incremental, FallsBackOnStaleDeltaVersion) {
  Network net = make_network(61, 12, 70);
  const pipeline::Pipeline pipeline = make_pipeline(62, 5);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "initial");

  // Apply TWO update batches but only admit to the second: the version
  // arithmetic catches the gap.
  const graph::Edge edge = net.out_edges(0).front();
  for (const double factor : {0.5, 0.25}) {
    const std::vector<LinkUpdate> updates = {LinkUpdate{
        edge.from, edge.to,
        LinkAttr{edge.attr.bandwidth_mbps * factor, edge.attr.min_delay_s}}};
    net.apply_link_updates(updates);
    if (factor == 0.25) {
      expect_parity(pipeline, net, 0, 11, ckpt, &updates, &stats, "stale");
      EXPECT_FALSE(stats.incremental);
      EXPECT_STREQ(stats.fallback, "network-version-mismatch");
    }
  }
}

/// A single-link update scaling the bandwidth of `edge` by `factor`.
std::vector<LinkUpdate> scaled(const graph::Edge& edge, double factor) {
  return {LinkUpdate{
      edge.from, edge.to,
      LinkAttr{edge.attr.bandwidth_mbps * factor, edge.attr.min_delay_s}}};
}

/// Every link of `net`, its bandwidth scaled by `factor`.
std::vector<LinkUpdate> every_link_scaled(const Network& net, double factor) {
  std::vector<LinkUpdate> updates;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    for (const graph::Edge& e : net.out_edges(v)) {
      updates.push_back(LinkUpdate{
          e.from, e.to,
          LinkAttr{e.attr.bandwidth_mbps * factor, e.attr.min_delay_s}});
    }
  }
  return updates;
}

TEST(Incremental, WideUpdateReplaysThroughFullColumnSweeps) {
  Network net = make_network(71, 12, 70);
  const pipeline::Pipeline pipeline = make_pipeline(72, 5);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "initial");

  // Touch every link: the replay sweeps the wide columns in full (which
  // stops their frontier tests, so more cells are re-run than tested).
  const std::vector<LinkUpdate> wide = every_link_scaled(net, 0.9);
  net.apply_link_updates(wide);
  expect_parity(pipeline, net, 0, 11, ckpt, &wide, &stats, "wide");
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.fallback, nullptr);
  EXPECT_GT(stats.cells_recomputed, stats.cells_tested);

  // Invalidation (what a cache eviction amounts to mid-sequence): the
  // next solve is a full recapture, and the one after reuses again.
  ckpt.invalidate();
  const graph::Edge edge = net.out_edges(0).front();
  std::vector<LinkUpdate> updates = {LinkUpdate{
      edge.from, edge.to,
      LinkAttr{edge.attr.bandwidth_mbps * 3.0, edge.attr.min_delay_s}}};
  net.apply_link_updates(updates);
  expect_parity(pipeline, net, 0, 11, ckpt, &updates, &stats, "evicted");
  EXPECT_FALSE(stats.incremental);
  EXPECT_STREQ(stats.fallback, "no-checkpoint");
  updates[0].attr.bandwidth_mbps = edge.attr.bandwidth_mbps;
  net.apply_link_updates(updates);
  expect_parity(pipeline, net, 0, 11, ckpt, &updates, &stats, "recovered");
  EXPECT_TRUE(stats.incremental);

  // At a size where the column sweep runs on the shared pool (>= 128
  // nodes, links * beam >= 16384, on a multicore host): a wide update,
  // then a one-link update, with parity after each.
  Network big = make_network(73, 128, 4096);
  ASSERT_GE(big.link_count() * ElpcOptions{}.framerate_beam_width, 16384u);
  const pipeline::Pipeline long_pipeline = make_pipeline(74, 12);
  IncrementalCheckpoint big_ckpt;
  expect_parity(long_pipeline, big, 0, 127, big_ckpt, nullptr, &stats,
                "pool initial");
  const std::vector<LinkUpdate> big_wide = every_link_scaled(big, 0.8);
  big.apply_link_updates(big_wide);
  expect_parity(long_pipeline, big, 0, 127, big_ckpt, &big_wide, &stats,
                "pool wide");
  EXPECT_TRUE(stats.incremental);
  EXPECT_GT(stats.cells_recomputed, stats.cells_tested);
  const std::vector<LinkUpdate> one = scaled(big.out_edges(0).front(), 2.0);
  big.apply_link_updates(one);
  expect_parity(long_pipeline, big, 0, 127, big_ckpt, &one, &stats,
                "pool one link");
  EXPECT_TRUE(stats.incremental);
}

TEST(Incremental, FingerprintRejectsDifferentProblem) {
  const Network net = make_network(81, 12, 70);
  const pipeline::Pipeline pipeline_a = make_pipeline(82, 5);
  const pipeline::Pipeline pipeline_b = make_pipeline(83, 5);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline_a, net, 0, 11, ckpt, nullptr, &stats, "capture");

  const std::vector<LinkUpdate> none;
  // Different pipeline, different endpoints: both must refuse to replay.
  expect_parity(pipeline_b, net, 0, 11, ckpt, &none, &stats, "pipeline");
  EXPECT_STREQ(stats.fallback, "fingerprint-mismatch");
  expect_parity(pipeline_b, net, 1, 11, ckpt, &none, &stats, "endpoints");
  EXPECT_STREQ(stats.fallback, "fingerprint-mismatch");
}

TEST(Incremental, CheckpointBytesAreChargedAndBounded) {
  const Network net = make_network(91, 12, 70);
  const pipeline::Pipeline pipeline = make_pipeline(92, 5);
  IncrementalCheckpoint ckpt;
  EXPECT_LT(ckpt.approx_bytes(), std::size_t{4096});

  ElpcOptions options;
  options.checkpoint = &ckpt;
  (void)ElpcMapper(options).max_frame_rate(
      framerate_problem(pipeline, net, 0, 11));
  // 5 columns x 12 nodes x beam 4: comfortably under a megabyte, but
  // clearly charged.
  EXPECT_GT(ckpt.approx_bytes(), std::size_t{5000});
  EXPECT_LT(ckpt.approx_bytes(), std::size_t{1} << 20);
}

/// expect_parity with explicit mapper options and cost convention: both
/// sides solve with `options` (the incremental side adds the checkpoint,
/// delta and stats).
void expect_parity_with(const ElpcOptions& options,
                        const pipeline::CostOptions& cost,
                        const pipeline::Pipeline& pipeline,
                        const Network& net, NodeId source,
                        NodeId destination, IncrementalCheckpoint& ckpt,
                        const std::vector<LinkUpdate>* delta,
                        IncrementalStats* stats, const std::string& context) {
  ElpcOptions inc_options = options;
  inc_options.checkpoint = &ckpt;
  inc_options.delta = delta;
  inc_options.incremental_stats = stats;
  const mapping::Problem problem(pipeline, net, source, destination, cost);
  const mapping::MapResult inc =
      ElpcMapper(inc_options).max_frame_rate(problem);
  const mapping::MapResult scratch = ElpcMapper(options).max_frame_rate(problem);
  ASSERT_EQ(inc.feasible, scratch.feasible) << context;
  if (scratch.feasible) {
    EXPECT_EQ(inc.seconds, scratch.seconds) << context;
    EXPECT_EQ(inc.mapping, scratch.mapping) << context;
  }
}

/// A uniformly chosen existing link of `net`.
graph::Edge random_link(util::Rng& rng, const Network& net) {
  NodeId from = rng.index(net.node_count());
  while (net.out_degree(from) == 0) {
    from = rng.index(net.node_count());
  }
  return net.out_edges(from)[rng.index(net.out_degree(from))];
}

struct WorkTotals {
  std::size_t tested = 0;
  std::size_t recomputed = 0;
  std::size_t changed = 0;
};

/// Captures, then re-solves after each of 50 seeded single-link updates
/// (bandwidth x0.5 or x2) and one 6-link batch, summing the work
/// counters.  Parity (==) against scratch on every step, or on the final
/// state only.
WorkTotals run_seeded_stream(std::size_t modules, std::size_t nodes,
                             std::uint64_t seed, bool parity_every_step) {
  Network net = make_network(
      seed, nodes,
      static_cast<std::size_t>(0.6 * static_cast<double>(nodes) *
                               static_cast<double>(nodes - 1)));
  const pipeline::Pipeline pipeline = make_pipeline(seed + 1, modules);
  const NodeId destination = nodes - 1;
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  ElpcOptions capture;
  capture.checkpoint = &ckpt;
  (void)ElpcMapper(capture).max_frame_rate(
      framerate_problem(pipeline, net, 0, destination));
  EXPECT_TRUE(ckpt.valid());

  util::Rng rng(seed * 7 + 3);
  WorkTotals totals;
  for (int step = 0; step <= 50; ++step) {
    std::vector<LinkUpdate> updates;
    const std::size_t width = step < 50 ? 1 : 6;
    while (updates.size() < width) {
      const graph::Edge edge = random_link(rng, net);
      const double factor = rng.index(2) == 0 ? 0.5 : 2.0;
      updates.push_back(scaled(edge, factor).front());
    }
    net.apply_link_updates(updates);
    const std::string context = std::to_string(modules) + "x" +
                                std::to_string(nodes) + " step " +
                                std::to_string(step);
    if (parity_every_step || step == 50) {
      expect_parity(pipeline, net, 0, destination, ckpt, &updates, &stats,
                    context);
    } else {
      ElpcOptions options;
      options.checkpoint = &ckpt;
      options.delta = &updates;
      options.incremental_stats = &stats;
      (void)ElpcMapper(options).max_frame_rate(
          framerate_problem(pipeline, net, 0, destination));
    }
    EXPECT_TRUE(stats.incremental) << context;
    EXPECT_LE(stats.cells_changed, stats.cells_recomputed) << context;
    EXPECT_LE(stats.cells_recomputed, stats.cells_tested) << context;
    totals.tested += stats.cells_tested;
    totals.recomputed += stats.cells_recomputed;
    totals.changed += stats.cells_changed;
  }
  return totals;
}

TEST(Incremental, WorkCountersArePinnedOnASeededStream) {
  // The frontier test and replay are scalar code outside the cell
  // kernel, so these totals are exact and identical for every kernel;
  // a change that moves them changed how much work a re-solve does.
  const WorkTotals small = run_seeded_stream(20, 100, 5, true);
  EXPECT_EQ(small.tested, 12182u);
  EXPECT_EQ(small.recomputed, 5741u);
  EXPECT_EQ(small.changed, 2979u);
  const WorkTotals large = run_seeded_stream(40, 400, 6, false);
  EXPECT_EQ(large.tested, 52446u);
  EXPECT_EQ(large.recomputed, 19597u);
  EXPECT_EQ(large.changed, 15980u);
}

/// The tie network: source 0 feeds a1..a5 (nodes 1..5) over equal links,
/// each a_i feeds v = 6, and v feeds the destination d = 7.  Transport
/// dominates every bottleneck, so the a_i are exact ties at cell (2, v)
/// except a1, whose link into v starts at half bandwidth.  A 4-module
/// pipeline keeps 4 of the 5 at (2, v) and maps module 1 onto the first
/// kept one.
Network tie_network() {
  Network net;
  for (int i = 0; i < 8; ++i) {
    net.add_node(graph::NodeAttr{"n" + std::to_string(i), 1000.0});
  }
  for (NodeId a = 1; a <= 5; ++a) {
    net.add_link(0, a, LinkAttr{100.0, 0.0});
    net.add_link(a, 6, LinkAttr{a == 1 ? 5.0 : 10.0, 0.0});
  }
  net.add_link(6, 7, LinkAttr{100.0, 0.0});
  return net;
}

pipeline::Pipeline tie_pipeline() {
  return pipeline::Pipeline({{"src", 0.0, 10.0},
                             {"m1", 0.001, 10.0},
                             {"m2", 0.001, 10.0},
                             {"sink", 0.001, 1.0}});
}

TEST(Incremental, CandidateTyingTheWorstKeptSlotIsDirty) {
  for (const bool tiebreak : {true, false}) {
    const std::string mode = tiebreak ? "tiebreak" : "no tiebreak";
    Network net = tie_network();
    const pipeline::Pipeline pipeline = tie_pipeline();
    ElpcOptions options;
    options.framerate_sum_tiebreak = tiebreak;
    const pipeline::CostOptions cost{.include_link_delay = false};
    IncrementalCheckpoint ckpt;
    IncrementalStats stats;
    expect_parity_with(options, cost, pipeline, net, 0, 7, ckpt, nullptr,
                       &stats, mode + " initial");
    const mapping::MapResult before = ElpcMapper(options).max_frame_rate(
        mapping::Problem(pipeline, net, 0, 7, cost));
    ASSERT_TRUE(before.feasible);
    EXPECT_EQ(before.mapping.assignment()[1], 2u) << mode;

    // a1 -> v now ties a5, the worst kept candidate, exactly.  a1 is not
    // a kept parent and the cell is full, so only the tie rule marks it;
    // a1 comes first in the in-row, so it enters the beam and the path.
    const graph::Edge edge = net.in_edges(6).front();
    ASSERT_EQ(edge.from, 1u);
    const std::vector<LinkUpdate> updates = scaled(edge, 2.0);
    net.apply_link_updates(updates);
    expect_parity_with(options, cost, pipeline, net, 0, 7, ckpt, &updates,
                       &stats, mode + " tie");
    EXPECT_TRUE(stats.incremental) << mode;
    EXPECT_GT(stats.cells_changed, 0u) << mode;
    const mapping::MapResult after = ElpcMapper(options).max_frame_rate(
        mapping::Problem(pipeline, net, 0, 7, cost));
    EXPECT_EQ(after.mapping.assignment()[1], 1u) << mode;
  }
}

TEST(Incremental, WorsenedLinkFromAKeptParentIsDirty) {
  // a2 is the first kept candidate at (2, v).  Throttling a2 -> v makes
  // its candidate strictly worse than every kept one, so only the
  // parent rule can see that a2 must leave the beam.
  Network net = tie_network();
  const pipeline::Pipeline pipeline = tie_pipeline();
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 7, ckpt, nullptr, &stats, "initial");
  const graph::Edge edge = net.in_edges(6)[1];
  ASSERT_EQ(edge.from, 2u);
  for (const double factor : {0.2, 1.0}) {
    const std::vector<LinkUpdate> updates = scaled(edge, factor);
    net.apply_link_updates(updates);
    expect_parity(pipeline, net, 0, 7, ckpt, &updates, &stats,
                  "factor " + std::to_string(factor));
    EXPECT_TRUE(stats.incremental);
    EXPECT_GT(stats.cells_changed, 0u);
  }
}

TEST(Incremental, CellWithFewerThanBeamSurvivorsIsDirty) {
  // Beam 1.  Nodes: source 0, x 1, u 2, v 3, d 4; a 5-module pipeline
  // maps module 3 onto v.  While s -> v -> u beats s -> x -> u, cell
  // (2, u) keeps a label that already holds v, so (3, v) keeps nothing
  // and the pipeline is infeasible.  Speeding up x -> u changes (2, u)
  // to a v-free label: (3, v) has no kept slot to compare against and
  // no kept parent, so only the survivor-count rule marks it.
  Network net;
  for (int i = 0; i < 5; ++i) {
    net.add_node(graph::NodeAttr{"n" + std::to_string(i), 1000.0});
  }
  net.add_link(0, 3, LinkAttr{100.0, 0.0});
  net.add_link(0, 1, LinkAttr{100.0, 0.0});
  net.add_link(3, 2, LinkAttr{100.0, 0.0});
  net.add_link(1, 2, LinkAttr{10.0, 0.0});
  net.add_link(2, 3, LinkAttr{100.0, 0.0});
  net.add_link(3, 4, LinkAttr{100.0, 0.0});
  const pipeline::Pipeline pipeline({{"src", 0.0, 10.0},
                                     {"m1", 0.001, 10.0},
                                     {"m2", 0.001, 10.0},
                                     {"m3", 0.001, 10.0},
                                     {"sink", 0.001, 1.0}});
  ElpcOptions options;
  options.framerate_beam_width = 1;
  const pipeline::CostOptions cost{.include_link_delay = false};
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity_with(options, cost, pipeline, net, 0, 4, ckpt, nullptr,
                     &stats, "initial");
  EXPECT_FALSE(ElpcMapper(options)
                   .max_frame_rate(mapping::Problem(pipeline, net, 0, 4, cost))
                   .feasible);

  const graph::Edge edge = net.in_edges(2).front();
  ASSERT_EQ(edge.from, 1u);
  for (const double factor : {100.0, 1.0}) {
    const std::vector<LinkUpdate> updates = scaled(edge, factor);
    net.apply_link_updates(updates);
    expect_parity_with(options, cost, pipeline, net, 0, 4, ckpt, &updates,
                       &stats, "factor " + std::to_string(factor));
    EXPECT_TRUE(stats.incremental);
    EXPECT_EQ(ElpcMapper(options)
                  .max_frame_rate(mapping::Problem(pipeline, net, 0, 4, cost))
                  .feasible,
              factor == 100.0);
  }
}

/// Random single- and two-link update rounds under `options` and `cost`,
/// parity on every round; returns how many rounds reused the checkpoint.
std::size_t random_rounds_with(const ElpcOptions& options,
                               const pipeline::CostOptions& cost,
                               std::uint64_t seed, std::size_t nodes,
                               std::size_t links, std::size_t modules,
                               int rounds) {
  Network net = make_network(seed, nodes, links);
  const pipeline::Pipeline pipeline = make_pipeline(seed + 50, modules);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  util::Rng rng(seed * 1000 + 1);
  expect_parity_with(options, cost, pipeline, net, 0, nodes - 1, ckpt,
                     nullptr, &stats, "initial");
  std::size_t hits = 0;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<LinkUpdate> updates = random_updates(rng, net, 2);
    net.apply_link_updates(updates);
    expect_parity_with(options, cost, pipeline, net, 0, nodes - 1, ckpt,
                       &updates, &stats,
                       "seed " + std::to_string(seed) + " round " +
                           std::to_string(round));
    hits += stats.incremental ? 1 : 0;
  }
  return hits;
}

TEST(Incremental, LinkDelayUpdatesMatchScratch) {
  // random_updates also moves min_delay_s, which only counts here.
  const pipeline::CostOptions cost{.include_link_delay = true};
  EXPECT_EQ(random_rounds_with(ElpcOptions{}, cost, 101, 25, 300, 8, 20),
            20u);
}

TEST(Incremental, NoVisitedCheckMatchesScratch) {
  ElpcOptions options;
  options.framerate_visited_check = false;
  const pipeline::CostOptions cost{.include_link_delay = false};
  EXPECT_EQ(random_rounds_with(options, cost, 102, 25, 300, 8, 20), 20u);
}

TEST(Incremental, TwoVisitedWordsMatchScratch) {
  // 80 nodes: visited sets span two words, and links into nodes >= 64
  // test bits of the second word.
  const pipeline::CostOptions cost{.include_link_delay = false};
  EXPECT_EQ(random_rounds_with(ElpcOptions{}, cost, 103, 80, 2400, 12, 20),
            20u);
  Network net = make_network(104, 80, 2400);
  const pipeline::Pipeline pipeline = make_pipeline(105, 12);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 79, ckpt, nullptr, &stats, "initial");
  for (NodeId v = 64; v < 79; v += 2) {
    const std::vector<LinkUpdate> updates =
        scaled(net.in_edges(v).front(), v % 4 == 0 ? 0.25 : 4.0);
    net.apply_link_updates(updates);
    expect_parity(pipeline, net, 0, 79, ckpt, &updates, &stats,
                  "into " + std::to_string(v));
    EXPECT_TRUE(stats.incremental);
  }
}

TEST(Incremental, FingerprintRejectsChangedNodePower) {
  const Network net = make_network(111, 12, 70);
  const pipeline::Pipeline pipeline = make_pipeline(112, 5);
  IncrementalCheckpoint ckpt;
  IncrementalStats stats;
  expect_parity(pipeline, net, 0, 11, ckpt, nullptr, &stats, "capture");

  // The same links and every node but one with its power unchanged.
  Network faster;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    graph::NodeAttr attr = net.node(v);
    if (v == 5) {
      attr.processing_power *= 2.0;
    }
    faster.add_node(attr);
  }
  for (NodeId v = 0; v < net.node_count(); ++v) {
    for (const graph::Edge& e : net.out_edges(v)) {
      faster.add_link(e.from, e.to, e.attr);
    }
  }
  const std::vector<LinkUpdate> none;
  const mapping::MapResult inc = [&] {
    ElpcOptions options;
    options.checkpoint = &ckpt;
    options.delta = &none;
    options.incremental_stats = &stats;
    return ElpcMapper(options).max_frame_rate(
        framerate_problem(pipeline, faster, 0, 11));
  }();
  EXPECT_FALSE(stats.incremental);
  EXPECT_STREQ(stats.fallback, "fingerprint-mismatch");
  const mapping::MapResult scratch =
      ElpcMapper().max_frame_rate(framerate_problem(pipeline, faster, 0, 11));
  ASSERT_EQ(inc.feasible, scratch.feasible);
  EXPECT_EQ(inc.seconds, scratch.seconds);
  EXPECT_EQ(inc.mapping, scratch.mapping);
}

}  // namespace
}  // namespace elpc::core
