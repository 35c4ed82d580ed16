// Engine-level incremental re-solves: an engine with
// BatchEngineOptions::incremental must serve byte-identical results to
// a plain engine across arbitrary delta sequences (the serialized
// canonical form, same discipline as the shard-count and kernel parity
// pins), reuse checkpoints when it can, and degrade to full solves —
// never wrong answers — when the session cache evicts them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "util/rng.hpp"

namespace elpc::service {
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

/// Three subscribed frame-rate jobs plus one subscribed delay job (the
/// incremental path only serves the former; mixing pins that the delta
/// flow keeps working for the rest).
std::vector<SolveJob> subscription_jobs() {
  std::vector<SolveJob> jobs;
  std::size_t n = 0;
  for (const auto& [pseed, src, dst] :
       {std::tuple<std::uint64_t, NodeId, NodeId>{61, 0, 11},
        {62, 3, 8},
        {63, 1, 10}}) {
    SolveJob job;
    job.id = "sub" + std::to_string(n++);
    job.network = "net";
    job.pipeline = make_pipeline(pseed, 5);
    job.source = src;
    job.destination = dst;
    job.objective = Objective::kMaxFrameRate;
    job.cost = default_cost(job.objective);
    job.resolve_on_update = true;
    jobs.push_back(std::move(job));
  }
  SolveJob delay = jobs.front();
  delay.id = "sub-delay";
  delay.objective = Objective::kMinDelay;
  delay.cost = default_cost(delay.objective);
  jobs.push_back(std::move(delay));
  return jobs;
}

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

TEST(IncrementalEngine, ResolvesByteIdenticalToPlainEngineAcrossRounds) {
  BatchEngineOptions incremental_options;
  incremental_options.incremental = true;
  BatchEngine incremental(incremental_options);
  BatchEngine plain;
  incremental.register_network("net", make_network(5, 12, 70));
  plain.register_network("net", make_network(5, 12, 70));

  const std::vector<SolveJob> jobs = subscription_jobs();
  EXPECT_EQ(results_to_json(incremental.solve(jobs)).dump(2),
            results_to_json(plain.solve(jobs)).dump(2));

  util::Rng rng(99);
  const Network reference = make_network(5, 12, 70);
  for (int round = 0; round < 10; ++round) {
    const std::vector<LinkUpdate> updates =
        random_updates(rng, reference, 2);
    const std::string inc_doc =
        results_to_json(incremental.apply_link_updates("net", updates))
            .dump(2);
    const std::string plain_doc =
        results_to_json(plain.apply_link_updates("net", updates)).dump(2);
    EXPECT_EQ(inc_doc, plain_doc) << "round " << round;
  }

  const EngineStats stats = incremental.stats();
  // Every frame-rate re-solve after the captures should have reused.
  EXPECT_GT(stats.incremental_hits, 0u);
  EXPECT_GT(stats.incremental_columns_reused, 0u);
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  // The plain engine never touched the incremental machinery.
  const EngineStats plain_stats = plain.stats();
  EXPECT_EQ(plain_stats.incremental_hits, 0u);
  EXPECT_EQ(plain_stats.incremental_misses, 0u);
  EXPECT_EQ(plain_stats.checkpoints, 0u);
}

TEST(IncrementalEngine, SolveRepeatedOnSameRevisionReplaysForFree) {
  BatchEngineOptions options;
  options.incremental = true;
  BatchEngine engine(options);
  engine.register_network("net", make_network(7, 12, 70));
  std::vector<SolveJob> jobs = subscription_jobs();
  jobs.resize(1);
  (void)engine.solve(jobs);  // captures
  (void)engine.solve(jobs);  // same revision: empty-delta replay
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.incremental_hits, 1u);
  EXPECT_EQ(stats.incremental_misses, 1u);  // the initial capture
}

TEST(IncrementalEngine, EvictedCheckpointFallsBackToFullSolve) {
  // A 1-byte budget (explicit, so the incremental default is not
  // applied) evicts every checkpoint at the first sweep after its solve
  // releases it: each re-solve is a miss, yet answers stay identical to
  // a plain engine's.
  BatchEngineOptions options;
  options.incremental = true;
  options.checkpoint_budget_bytes = 1;
  BatchEngine engine(options);
  BatchEngine plain;
  engine.register_network("net", make_network(9, 12, 70));
  plain.register_network("net", make_network(9, 12, 70));

  std::vector<SolveJob> jobs = subscription_jobs();
  jobs.resize(1);
  EXPECT_EQ(results_to_json(engine.solve(jobs)).dump(2),
            results_to_json(plain.solve(jobs)).dump(2));

  util::Rng rng(17);
  const Network reference = make_network(9, 12, 70);
  for (int round = 0; round < 4; ++round) {
    const std::vector<LinkUpdate> updates =
        random_updates(rng, reference, 1);
    EXPECT_EQ(
        results_to_json(engine.apply_link_updates("net", updates)).dump(2),
        results_to_json(plain.apply_link_updates("net", updates)).dump(2))
        << "round " << round;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.incremental_hits, 0u);
  EXPECT_EQ(stats.incremental_misses, 5u);
  EXPECT_GT(stats.checkpoint_evictions, 0u);
}

TEST(IncrementalEngine, UnsubscribingDropsTheCheckpoint) {
  BatchEngineOptions options;
  options.incremental = true;
  BatchEngine engine(options);
  engine.register_network("net", make_network(11, 12, 70));
  std::vector<SolveJob> jobs = subscription_jobs();
  jobs.resize(1);
  (void)engine.solve(jobs);
  EXPECT_EQ(engine.stats().checkpoints, 1u);

  jobs[0].resolve_on_update = false;
  (void)engine.solve(jobs);
  EXPECT_EQ(engine.subscription_count(), 0u);
  EXPECT_EQ(engine.stats().checkpoints, 0u);
}

TEST(IncrementalEngine, PinnedRevisionDiagnosticTracksSubscriptions) {
  BatchEngineOptions options;
  options.incremental = true;
  BatchEngine engine(options);
  engine.register_network("net", make_network(13, 12, 70));
  std::vector<SolveJob> jobs = subscription_jobs();
  jobs.resize(1);
  (void)engine.solve(jobs);
  EXPECT_EQ(engine.stats().pinned_revisions, 0u);  // nothing superseded

  // A delta supersedes revision 0; the subscription immediately
  // re-pins to revision 1, so steady state stays at zero pinned
  // SUPERSEDED revisions...
  const Network reference = make_network(13, 12, 70);
  const graph::Edge edge = reference.out_edges(0).front();
  const std::vector<LinkUpdate> updates = {LinkUpdate{
      edge.from, edge.to,
      LinkAttr{edge.attr.bandwidth_mbps * 0.5, edge.attr.min_delay_s}}};
  (void)engine.apply_link_updates("net", updates);
  EXPECT_EQ(engine.stats().pinned_revisions, 0u);

  // ...until someone holds a superseded snapshot (what a hung solve
  // amounts to): the diagnostic must surface exactly that pin.
  const NetworkSnapshot held = engine.session("net").snapshot();
  const std::vector<LinkUpdate> again = {LinkUpdate{
      edge.from, edge.to,
      LinkAttr{edge.attr.bandwidth_mbps * 0.25, edge.attr.min_delay_s}}};
  (void)engine.apply_link_updates("net", again);
  const EngineStats pinned = engine.stats();
  EXPECT_EQ(pinned.pinned_revisions, 1u);
  EXPECT_GT(pinned.pinned_bytes, 0u);
}

TEST(IncrementalEngine, AbortedSubscribeSolvesLeaveNoCheckpoint) {
  // The factory stalls past the deadline before the DP starts, so the
  // solve sizes its checkpoint and then aborts at the first column.
  BatchEngineOptions options;
  options.incremental = true;
  options.factory = [](const SolveJob&, const MapperContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return make_engine_elpc(ctx);
  };
  BatchEngine engine(options);
  engine.register_network("net", make_network(19, 12, 70));
  std::vector<SolveJob> jobs = subscription_jobs();
  jobs.resize(1);

  jobs[0].deadline_ms = 5;
  ASSERT_EQ(engine.solve(jobs).front().error, kTimedOutError);

  // Cancelled mid-solve: the job-boundary check passes, every per-column
  // check after it cancels.
  jobs[0].deadline_ms = 0;
  std::atomic<int> checks{0};
  const CancelFn cancel_after_start = [&checks](std::size_t) {
    return checks++ == 0 ? JobSignal::kNone : JobSignal::kCancel;
  };
  ASSERT_EQ(engine.solve(jobs, cancel_after_start).front().error,
            kCancelledError);
  EXPECT_GT(checks.load(), 1);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.subscriptions, 0u);
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_EQ(stats.checkpoint_bytes, 0u);
}

TEST(IncrementalEngine, ReSolvesAnswerInSubscriptionOrder) {
  // Replacing a subscription keeps its place; unsubscribing and
  // resubscribing moves it to the end.
  BatchEngineOptions options;
  options.incremental = true;
  BatchEngine engine(options);
  engine.register_network("net", make_network(21, 12, 70));
  std::vector<SolveJob> jobs = subscription_jobs();
  jobs.resize(3);
  jobs[0].id = "a";
  jobs[1].id = "b";
  jobs[2].id = "c";
  (void)engine.solve(jobs);

  SolveJob b = jobs[1];
  b.destination = 11;
  (void)engine.solve({b});
  SolveJob a = jobs[0];
  a.resolve_on_update = false;
  (void)engine.solve({a});
  ASSERT_EQ(engine.subscription_count(), 2u);
  (void)engine.solve({jobs[0]});

  const Network reference = make_network(21, 12, 70);
  const graph::Edge edge = reference.out_edges(0).front();
  const std::vector<SolveResult> results = engine.apply_link_updates(
      "net", {{LinkUpdate{edge.from, edge.to,
                          LinkAttr{edge.attr.bandwidth_mbps * 0.5,
                                   edge.attr.min_delay_s}}}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].job_id, "b");
  EXPECT_EQ(results[1].job_id, "c");
  EXPECT_EQ(results[2].job_id, "a");
  // b re-solved as replaced, not as first subscribed.
  ASSERT_TRUE(results[0].result.feasible);
  EXPECT_EQ(results[0].result.mapping.assignment().back(), 11u);
}

}  // namespace
}  // namespace elpc::service
