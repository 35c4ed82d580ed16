#include "service/network_session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "graph/generators.hpp"
#include "netmeasure/netmeasure.hpp"
#include "util/rng.hpp"

namespace elpc::service {
namespace {

using graph::LinkAttr;
using graph::LinkUpdate;
using graph::Network;

Network small_network() {
  util::Rng rng(7);
  return graph::random_connected_network(rng, 10, 50,
                                         graph::AttributeRanges{});
}

TEST(NetworkSession, RegistersAndFinalizesOnce) {
  NetworkSession session("net", small_network());
  EXPECT_EQ(session.id(), "net");
  EXPECT_EQ(session.revision(), 0u);
  const NetworkSnapshot snap = session.snapshot();
  EXPECT_TRUE(snap->finalized());
  EXPECT_EQ(session.finalize_builds(), 1u);
}

TEST(NetworkSession, DeltasPublishNewRevisionWithoutRebuilding) {
  NetworkSession session("net", small_network());
  const NetworkSnapshot before = session.snapshot();
  const graph::Edge edge = before->out_edges(0).front();

  const std::vector<LinkUpdate> updates = {
      LinkUpdate{edge.from, edge.to, LinkAttr{edge.attr.bandwidth_mbps * 2.0,
                                              edge.attr.min_delay_s}}};
  session.apply_link_updates(updates);

  EXPECT_EQ(session.revision(), 1u);
  const NetworkSnapshot after = session.snapshot();
  EXPECT_NE(before.get(), after.get());  // copy-on-write, not in-place
  // The already-published snapshot is immutable...
  EXPECT_DOUBLE_EQ(before->link(edge.from, edge.to).bandwidth_mbps,
                   edge.attr.bandwidth_mbps);
  // ...the new one carries the delta, still without any CSR rebuild.
  EXPECT_DOUBLE_EQ(after->link(edge.from, edge.to).bandwidth_mbps,
                   edge.attr.bandwidth_mbps * 2.0);
  EXPECT_EQ(session.finalize_builds(), 1u);
  after->validate();
}

TEST(NetworkSession, FailedDeltaPublishesNothing) {
  NetworkSession session("net", small_network());
  const std::vector<LinkUpdate> bad = {
      LinkUpdate{0, 0, LinkAttr{1.0, 0.0}}};  // self-loop: no such link
  EXPECT_THROW(session.apply_link_updates(bad), std::out_of_range);
  EXPECT_EQ(session.revision(), 0u);
}

TEST(NetworkSession, ConsumesNetmeasureDeltas) {
  Network truth = small_network();
  NetworkSession session("net", truth);

  util::Rng rng(11);
  netmeasure::ProbePlan plan;
  plan.relative_noise = 0.0;  // noiseless probes recover the truth
  const std::vector<LinkUpdate> updates =
      netmeasure::measure_link_updates(rng, truth, plan);
  ASSERT_EQ(updates.size(), truth.link_count());
  session.apply_link_updates(updates);

  const NetworkSnapshot snap = session.snapshot();
  for (const LinkUpdate& u : updates) {
    EXPECT_NEAR(snap->link(u.from, u.to).bandwidth_mbps,
                truth.link(u.from, u.to).bandwidth_mbps, 1e-6);
  }
}

TEST(NetworkSession, ConcurrentReadersSurviveDeltaStorm) {
  // Enough links for several edge chunks per direction, and deltas
  // spread over rows in different chunks, so revisions share some
  // chunks and own others while readers sweep them.
  util::Rng rng(7);
  NetworkSession session(
      "net", graph::random_connected_network(rng, 60, 2400,
                                             graph::AttributeRanges{}));
  const NetworkSnapshot first = session.snapshot();
  std::vector<graph::Edge> targets;
  for (graph::NodeId v = 0; v < first->node_count(); v += 7) {
    targets.push_back(first->out_edges(v).front());
  }
  ASSERT_GT(first->out_row_offsets().back(), 2 * graph::kEdgeChunkEdges);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        // Hold a snapshot across a full sweep, as a solve shard would.
        const NetworkSnapshot snap = session.snapshot();
        double sum = 0.0;
        for (graph::NodeId v = 0; v < snap->node_count(); ++v) {
          for (const graph::Edge& e : snap->out_edges(v)) {
            sum += e.attr.bandwidth_mbps;
          }
        }
        ASSERT_GT(sum, 0.0);
        // One revision's out and in rows agree on every patched link.
        for (const graph::Edge& target : targets) {
          double in_bw = 0.0;
          for (const graph::Edge& e : snap->in_edges(target.to)) {
            if (e.from == target.from) {
              in_bw = e.attr.bandwidth_mbps;
            }
          }
          ASSERT_EQ(in_bw,
                    snap->link(target.from, target.to).bandwidth_mbps);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 1; i <= 200; ++i) {
    const graph::Edge& edge = targets[static_cast<std::size_t>(i) %
                                      targets.size()];
    const std::vector<LinkUpdate> updates = {LinkUpdate{
        edge.from, edge.to, LinkAttr{static_cast<double>(i), 0.001}}};
    session.apply_link_updates(updates);
  }
  // On a single-CPU box the delta loop can outrun reader scheduling;
  // insist every reader completed at least one full sweep (so reads
  // genuinely overlapped or followed the storm) before stopping them.
  while (reads.load(std::memory_order_relaxed) < 4) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(session.revision(), 200u);
  EXPECT_GT(reads.load(), 0u);
  const NetworkSnapshot last = session.snapshot();
  for (std::size_t t = 0; t < targets.size(); ++t) {
    // The last of i = 1..200 with i % size == t.
    const std::size_t i = 200 - (200 - t) % targets.size();
    EXPECT_DOUBLE_EQ(
        last->link(targets[t].from, targets[t].to).bandwidth_mbps,
        static_cast<double>(i));
  }
  EXPECT_EQ(session.finalize_builds(), 1u);
}

std::vector<LinkUpdate> one_delta(const NetworkSnapshot& snap, double bw) {
  const graph::Edge edge = snap->out_edges(0).front();
  return {LinkUpdate{edge.from, edge.to, LinkAttr{bw, edge.attr.min_delay_s}}};
}

TEST(SessionCache, DefaultBudgetRetainsNoUnpinnedHistory) {
  NetworkSession session("net", small_network());
  const std::weak_ptr<const graph::Network> revision0 = session.snapshot();
  for (int i = 1; i <= 10; ++i) {
    session.apply_link_updates(
        one_delta(session.snapshot(), static_cast<double>(i)));
  }
  // Nothing outside held a superseded revision, so none is alive and
  // the session's network bytes are the current snapshot's alone.
  EXPECT_TRUE(revision0.expired());
  const SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.pinned_revisions, 0u);
  EXPECT_EQ(stats.cached_bytes, session.snapshot()->approx_bytes());
}

TEST(SessionCache, PinnedRevisionDiagnosticCountsOutsideReferences) {
  NetworkSession session("net", small_network());
  NetworkSnapshot held = session.snapshot();  // will pin revision 0
  for (int i = 1; i <= 3; ++i) {
    session.apply_link_updates(
        one_delta(session.snapshot(), static_cast<double>(i)));
  }
  const SessionCacheStats pinned = session.cache_stats();
  EXPECT_EQ(pinned.pinned_revisions, 1u);  // only revision 0 is held
  // Revision 0 shares the row layout with the current revision: it is
  // charged only for the tables and chunks it holds alone (the deltas
  // rewrote both of this small network's chunks).
  std::unordered_set<const void*> seen;
  const std::size_t current_bytes = session.snapshot()->approx_bytes(seen);
  EXPECT_EQ(current_bytes, session.snapshot()->approx_bytes());
  EXPECT_EQ(pinned.pinned_bytes, held->approx_bytes(seen));
  EXPECT_LT(pinned.pinned_bytes, held->approx_bytes());
  EXPECT_EQ(pinned.cached_bytes, current_bytes + pinned.pinned_bytes);
  held.reset();
  const SessionCacheStats released = session.cache_stats();
  EXPECT_EQ(released.pinned_revisions, 0u);
  EXPECT_EQ(released.pinned_bytes, 0u);
  EXPECT_EQ(released.cached_bytes, session.snapshot()->approx_bytes());
}

/// A subscription of job `id` on network "net".
SolveJob subscribed_job(const std::string& id) {
  SolveJob job;
  job.id = id;
  job.network = "net";
  job.resolve_on_update = true;
  return job;
}

/// A checkpoint sized for `fp`, charged as a solver leaves it.
NetworkSession::CheckpointEntryPtr sized_checkpoint(
    const core::IncrementalCheckpoint::Fingerprint& fp) {
  auto entry = std::make_shared<NetworkSession::CheckpointEntry>();
  entry->state.setup(fp);
  entry->bytes.store(entry->state.approx_bytes());
  return entry;
}

TEST(SessionCache, CheckpointsShareTheBudgetAndEvictLru) {
  NetworkSession session("net", small_network());  // budget 0
  {
    // Held checkpoint: pinned, survives the sweep even at budget 0.
    const NetworkSession::CheckpointEntryPtr entry = sized_checkpoint(
        {.modules = 4, .nodes = 10, .beam = 4, .words = 1});
    session.subscribe(subscribed_job("job"), entry);
    const SessionCacheStats stats = session.cache_stats();
    EXPECT_EQ(stats.subscriptions, 1u);
    EXPECT_EQ(stats.checkpoints, 1u);
    EXPECT_EQ(stats.checkpoint_bytes, entry->state.approx_bytes());
    // The subscription hands back the checkpoint it owns.
    EXPECT_EQ(session.checkpoint("job").get(), entry.get());
  }
  // Released: the next sweep resets it, and the subscription stays.
  const SessionCacheStats swept = session.cache_stats();
  EXPECT_EQ(swept.subscriptions, 1u);
  EXPECT_EQ(swept.checkpoints, 0u);
  EXPECT_EQ(swept.checkpoint_bytes, 0u);
  EXPECT_EQ(swept.checkpoint_evictions, 1u);
  EXPECT_FALSE(session.checkpoint("job")->state.valid());
}

TEST(SessionCache, BudgetResetsTheLeastRecentlyTouchedCheckpoint) {
  const core::IncrementalCheckpoint::Fingerprint fp{
      .modules = 4, .nodes = 10, .beam = 4, .words = 1};
  const std::size_t one = sized_checkpoint(fp)->bytes.load();
  NetworkSession session("net", small_network(), one);
  {
    // Held while both subscribe, so neither sweep can take them yet.
    const NetworkSession::CheckpointEntryPtr a = sized_checkpoint(fp);
    const NetworkSession::CheckpointEntryPtr b = sized_checkpoint(fp);
    session.subscribe(subscribed_job("a"), a);
    session.subscribe(subscribed_job("b"), b);
    (void)session.checkpoint("a");  // touched after b
  }
  const SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.checkpoint_evictions, 1u);
  EXPECT_NE(session.checkpoint("a")->bytes.load(), 0u);
  EXPECT_EQ(session.checkpoint("b")->bytes.load(), 0u);
}

TEST(SessionCache, PinnedRevisionsNeverYieldToCheckpointPressure) {
  // Budget sized for roughly one revision, and a checkpoint past it.
  // The sweep may only take the checkpoint: revisions are never the
  // budget's to evict, and a held one stays counted.
  const std::size_t one_revision = small_network().approx_bytes();
  NetworkSession session("net", small_network(), one_revision);
  NetworkSnapshot held = session.snapshot();  // pins revision 0
  for (int i = 1; i <= 2; ++i) {
    session.apply_link_updates(
        one_delta(session.snapshot(), static_cast<double>(i)));
  }
  // Size the checkpoint past the whole budget.
  session.subscribe(subscribed_job("job"),
                    sized_checkpoint({.modules = 64,
                                      .nodes = 256,
                                      .beam = 4,
                                      .words = 4}));
  const SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.checkpoints, 0u);  // the oversized checkpoint went
  EXPECT_EQ(stats.checkpoint_evictions, 1u);
  EXPECT_EQ(stats.pinned_revisions, 1u);
  std::unordered_set<const void*> seen;
  (void)session.snapshot()->approx_bytes(seen);
  EXPECT_EQ(stats.pinned_bytes, held->approx_bytes(seen));
}

TEST(SessionCache, PinnedRevisionIsChargedOnlyForChunksItHoldsAlone) {
  // Many chunks per direction; one delta rewrites one out chunk and one
  // in chunk, so a pinned predecessor holds little the current revision
  // does not.
  util::Rng rng(3);
  NetworkSession session(
      "net", graph::random_connected_network(rng, 120, 9000,
                                             graph::AttributeRanges{}));
  NetworkSnapshot held = session.snapshot();
  session.apply_link_updates(one_delta(held, 1.0));
  const SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.pinned_revisions, 1u);
  EXPECT_GE(stats.pinned_bytes, 2 * sizeof(graph::Edge));
  EXPECT_LE(stats.pinned_bytes, held->approx_bytes() / 8);
  EXPECT_LE(stats.cached_bytes,
            session.snapshot()->approx_bytes() + stats.pinned_bytes);
}

}  // namespace
}  // namespace elpc::service
