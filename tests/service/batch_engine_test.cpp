#include "service/batch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/elpc.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "service/serialize.hpp"
#include "util/rng.hpp"

#include "../graph/tree_json_oracle.hpp"

namespace elpc::service {
namespace {

graph::Network make_network(std::uint64_t seed, std::size_t nodes,
                            std::size_t links) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, nodes, links,
                                         graph::AttributeRanges{});
}

pipeline::Pipeline make_pipeline(std::uint64_t seed, std::size_t modules) {
  util::Rng rng(seed);
  return pipeline::random_pipeline(rng, modules,
                                   pipeline::PipelineRanges{});
}

/// Twelve ELPC jobs over one 12-node network: both objectives, three
/// pipelines, two endpoint pairs.
std::vector<SolveJob> shared_network_jobs() {
  std::vector<SolveJob> jobs;
  std::size_t n = 0;
  for (std::uint64_t pseed : {21u, 22u, 23u}) {
    for (const auto& [src, dst] : {std::pair<std::size_t, std::size_t>{0, 11},
                                   {3, 8}}) {
      for (const Objective objective :
           {Objective::kMinDelay, Objective::kMaxFrameRate}) {
        SolveJob job;
        job.id = "job" + std::to_string(n++);
        job.network = "shared";
        job.pipeline = make_pipeline(pseed, 5);
        job.source = src;
        job.destination = dst;
        job.objective = objective;
        job.cost = default_cost(objective);
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

TEST(BatchEngine, BatchOverOneNetworkFinalizesExactlyOnce) {
  BatchEngine engine;
  engine.register_network("shared", make_network(5, 12, 70));

  const std::vector<SolveJob> jobs = shared_network_jobs();
  ASSERT_GE(jobs.size(), 8u);
  const std::vector<SolveResult> results = engine.solve(jobs);

  ASSERT_EQ(results.size(), jobs.size());
  for (const SolveResult& r : results) {
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.result.feasible) << r.result.reason;
  }
  // The acceptance pin: >= 8 jobs sharing one network, one CSR build.
  EXPECT_EQ(engine.session("shared").finalize_builds(), 1u);
}

TEST(BatchEngine, ResultsBitIdenticalToDirectMapperCalls) {
  BatchEngine engine;
  graph::Network net = make_network(5, 12, 70);
  const graph::Network direct_net = net;  // independent copy
  engine.register_network("shared", std::move(net));

  const std::vector<SolveJob> jobs = shared_network_jobs();
  const std::vector<SolveResult> results = engine.solve(jobs);

  const core::ElpcMapper direct;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const mapping::Problem problem(jobs[i].pipeline, direct_net,
                                   jobs[i].source, jobs[i].destination,
                                   jobs[i].cost);
    const mapping::MapResult expected =
        jobs[i].objective == Objective::kMaxFrameRate
            ? direct.max_frame_rate(problem)
            : direct.min_delay(problem);
    ASSERT_EQ(results[i].result.feasible, expected.feasible);
    // Bit-identical, not approximately equal: the engine runs the same
    // kernels on the same inputs, sharding must not perturb them.
    EXPECT_EQ(results[i].result.seconds, expected.seconds) << jobs[i].id;
    EXPECT_EQ(results[i].result.mapping, expected.mapping) << jobs[i].id;
  }
}

TEST(BatchEngine, CanonicalJsonByteIdenticalAcrossShardCounts) {
  const std::vector<SolveJob> jobs = shared_network_jobs();

  std::string serial_doc;
  std::string sharded_doc;
  {
    BatchEngineOptions options;
    options.threads = 1;
    BatchEngine engine(options);
    engine.register_network("shared", make_network(5, 12, 70));
    serial_doc = results_to_json(engine.solve(jobs)).dump(2);
  }
  {
    BatchEngineOptions options;
    options.threads = 4;
    BatchEngine engine(options);
    engine.register_network("shared", make_network(5, 12, 70));
    sharded_doc = results_to_json(engine.solve(jobs)).dump(2);
  }
  EXPECT_EQ(serial_doc, sharded_doc);
}

TEST(BatchEngine, ArenaLeasesAreBoundedByShardCount) {
  BatchEngineOptions options;
  options.threads = 4;
  BatchEngine engine(options);
  engine.register_network("shared", make_network(5, 12, 70));
  const std::vector<SolveJob> jobs = shared_network_jobs();
  for (int round = 0; round < 3; ++round) {
    (void)engine.solve(jobs);
  }
  // Leases recycle across batches: repeated solves never grow the pool
  // past the peak concurrent shard count.
  EXPECT_LE(engine.arenas_created(), 4u);
}

TEST(BatchEngine, SkewedBatchByteIdenticalAcrossThreadCounts) {
  // One 40-module, 400-node frame-rate job among the small ones: pulled
  // one job at a time, the heavy job's worker falls behind while the
  // others take the rest — the results must not notice.
  std::vector<SolveJob> jobs = shared_network_jobs();
  SolveJob heavy;
  heavy.id = "heavy";
  heavy.network = "large";
  heavy.pipeline = make_pipeline(31, 40);
  heavy.source = 0;
  heavy.destination = 399;
  heavy.objective = Objective::kMaxFrameRate;
  heavy.cost = default_cost(heavy.objective);
  jobs.insert(jobs.begin() + 1, heavy);

  const auto solve_on = [&jobs](std::size_t threads) {
    BatchEngineOptions options;
    options.threads = threads;
    BatchEngine engine(options);
    engine.register_network("shared", make_network(5, 12, 70));
    engine.register_network("large", make_network(9, 400, 4000));
    return results_to_json(engine.solve(jobs)).dump(2);
  };
  const std::string serial_doc = solve_on(1);
  EXPECT_NE(serial_doc.find("\"heavy\""), std::string::npos);
  EXPECT_EQ(serial_doc, solve_on(4));
}

TEST(BatchEngine, OneJobSolveRunsOnTheCallersThread) {
  // Zero pool hops for a single job: the factory runs on the thread that
  // called solve(), even with idle workers available.
  std::mutex ids_mutex;
  std::vector<std::thread::id> factory_threads;
  BatchEngineOptions options;
  options.threads = 4;
  options.factory = [&](const SolveJob&, const MapperContext& ctx) {
    {
      const std::lock_guard<std::mutex> lock(ids_mutex);
      factory_threads.push_back(std::this_thread::get_id());
    }
    return make_engine_elpc(ctx);
  };
  BatchEngine engine(options);
  engine.register_network("shared", make_network(5, 12, 70));
  const std::vector<SolveJob> jobs = shared_network_jobs();
  for (int round = 0; round < 3; ++round) {
    const std::vector<SolveResult> results = engine.solve({jobs[round]});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].shard, 0u);
  }
  ASSERT_EQ(factory_threads.size(), 3u);
  for (const std::thread::id id : factory_threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(BatchEngine, UnknownNetworkRejectsWholeBatchUpFront) {
  BatchEngine engine;
  engine.register_network("shared", make_network(5, 12, 70));
  std::vector<SolveJob> jobs = shared_network_jobs();
  jobs.back().network = "nope";
  EXPECT_THROW((void)engine.solve(jobs), std::invalid_argument);
}

TEST(BatchEngine, UnknownAlgorithmFailsOnlyThatJob) {
  BatchEngine engine;  // built-in factory: ELPC only
  engine.register_network("shared", make_network(5, 12, 70));
  std::vector<SolveJob> jobs = shared_network_jobs();
  jobs[2].algorithm = "Streamline";
  const std::vector<SolveResult> results = engine.solve(jobs);
  EXPECT_FALSE(results[2].error.empty());
  EXPECT_FALSE(results[2].result.feasible);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 2) {
      EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    }
  }
}

TEST(BatchEngine, DuplicateRegistrationThrows) {
  BatchEngine engine;
  engine.register_network("shared", make_network(5, 12, 70));
  EXPECT_THROW(engine.register_network("shared", make_network(6, 5, 12)),
               std::invalid_argument);
}

/// The same content again is a no-op returning the registered session,
/// in any link order; different content throws NetworkConflict.  The
/// comparison is against the current revision.
TEST(BatchEngine, ReRegistrationComparesContent) {
  BatchEngine engine;
  NetworkSession& first = engine.register_network("shared",
                                                  make_network(5, 12, 70));
  EXPECT_EQ(&engine.register_network("shared", make_network(5, 12, 70)),
            &first);

  const graph::Network original = make_network(5, 12, 70);
  graph::Network reordered;
  for (graph::NodeId v = 0; v < original.node_count(); ++v) {
    reordered.add_node(original.node(v));
  }
  for (graph::NodeId v = original.node_count(); v-- > 0;) {
    for (const graph::Edge& e : original.out_edges(v)) {
      reordered.add_link(e.from, e.to, e.attr);
    }
  }
  EXPECT_EQ(&engine.register_network("shared", std::move(reordered)),
            &first);

  EXPECT_THROW(engine.register_network("shared", make_network(6, 12, 70)),
               NetworkConflict);
  graph::Network retuned = make_network(5, 12, 70);
  const graph::Edge edge = retuned.out_edges(0).front();
  graph::LinkAttr attr = edge.attr;
  attr.bandwidth_mbps *= 2.0;
  retuned.update_link(edge.from, edge.to, attr);
  EXPECT_THROW(engine.register_network("shared", retuned), NetworkConflict);

  // After a delta the current revision is the retuned network.
  const graph::LinkUpdate update{edge.from, edge.to, attr};
  (void)engine.apply_link_updates("shared", {&update, 1});
  EXPECT_EQ(&engine.register_network("shared", std::move(retuned)), &first);
  EXPECT_THROW(engine.register_network("shared", make_network(5, 12, 70)),
               NetworkConflict);
}

TEST(BatchEngine, DeltaUpdatesResolveSubscribedJobs) {
  BatchEngine engine;
  graph::Network net = make_network(9, 12, 70);
  engine.register_network("shared", std::move(net));

  std::vector<SolveJob> jobs = shared_network_jobs();
  for (SolveJob& job : jobs) {
    job.resolve_on_update = job.objective == Objective::kMaxFrameRate;
  }
  const std::vector<SolveResult> first = engine.solve(jobs);
  EXPECT_EQ(engine.subscription_count(), jobs.size() / 2);
  // Re-submitting replaces subscriptions (keyed on id + network) rather
  // than duplicating them.
  (void)engine.solve(jobs);
  EXPECT_EQ(engine.subscription_count(), jobs.size() / 2);
  // Re-submitting one job with the flag off unsubscribes it.
  {
    std::vector<SolveJob> unsubscribe(1, jobs[1]);
    unsubscribe[0].resolve_on_update = false;
    (void)engine.solve(unsubscribe);
    EXPECT_EQ(engine.subscription_count(), jobs.size() / 2 - 1);
    (void)engine.solve(std::vector<SolveJob>(1, jobs[1]));  // restore
    EXPECT_EQ(engine.subscription_count(), jobs.size() / 2);
  }

  // Throttle every link the first frame-rate solution used: its
  // bottleneck must degrade, and the re-solve must see revision 1.
  const NetworkSnapshot snap = engine.session("shared").snapshot();
  std::vector<graph::LinkUpdate> updates;
  for (graph::NodeId v = 0; v < snap->node_count(); ++v) {
    for (const graph::Edge& e : snap->out_edges(v)) {
      updates.push_back(graph::LinkUpdate{
          e.from, e.to,
          graph::LinkAttr{e.attr.bandwidth_mbps * 0.01,
                          e.attr.min_delay_s}});
    }
  }
  const std::vector<SolveResult> resolved =
      engine.apply_link_updates("shared", updates);

  ASSERT_EQ(resolved.size(), jobs.size() / 2);
  for (const SolveResult& r : resolved) {
    EXPECT_EQ(r.network_revision, 1u);
    // Match the first-pass result by job id: the unsubscribe/resubscribe
    // round above moved one subscription to the end of the table, so
    // resolved order is not a subsequence of job order.
    const auto match =
        std::find_if(first.begin(), first.end(), [&r](const SolveResult& s) {
          return s.job_id == r.job_id;
        });
    ASSERT_NE(match, first.end()) << r.job_id;
    ASSERT_TRUE(r.result.feasible);
    EXPECT_GT(r.result.seconds, match->result.seconds);
  }
  // A 100x bandwidth cut leaves the session still at one CSR build.
  EXPECT_EQ(engine.session("shared").finalize_builds(), 1u);
}

TEST(BatchEngine, SupersededRevisionFreedAfterResolve) {
  BatchEngineOptions options;
  options.incremental = true;
  BatchEngine engine(options);
  engine.register_network("shared", make_network(5, 12, 70));

  std::vector<SolveJob> jobs = shared_network_jobs();
  jobs.resize(1);
  jobs[0].objective = Objective::kMaxFrameRate;
  jobs[0].cost = default_cost(jobs[0].objective);
  jobs[0].resolve_on_update = true;
  ASSERT_TRUE(engine.solve(jobs)[0].error.empty());
  ASSERT_EQ(engine.subscription_count(), 1u);

  NetworkSession& session = engine.session("shared");
  const std::weak_ptr<const graph::Network> revision0 = session.snapshot();
  const graph::Edge edge = session.snapshot()->out_edges(0).front();
  for (int i = 1; i <= 3; ++i) {
    const std::vector<graph::LinkUpdate> updates = {graph::LinkUpdate{
        edge.from, edge.to,
        graph::LinkAttr{static_cast<double>(i), edge.attr.min_delay_s}}};
    ASSERT_EQ(engine.apply_link_updates("shared", updates).size(), 1u);
  }
  // Neither the subscription nor the session keeps a superseded
  // revision: once the re-solves returned, only the current one lives.
  EXPECT_TRUE(revision0.expired());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.subscriptions, 1u);
  EXPECT_EQ(stats.pinned_revisions, 0u);
  EXPECT_EQ(stats.pinned_bytes, 0u);
  EXPECT_EQ(stats.cached_bytes, session.snapshot()->approx_bytes());
}

/// Forwards to the engine's ELPC mapper and counts every solve.
class CountingMapper : public mapping::Mapper {
 public:
  CountingMapper(mapping::MapperPtr inner, std::atomic<int>& solves)
      : inner_(std::move(inner)), solves_(solves) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] mapping::MapResult min_delay(
      const mapping::Problem& problem) const override {
    ++solves_;
    return inner_->min_delay(problem);
  }
  [[nodiscard]] mapping::MapResult max_frame_rate(
      const mapping::Problem& problem) const override {
    ++solves_;
    return inner_->max_frame_rate(problem);
  }

 private:
  mapping::MapperPtr inner_;
  std::atomic<int>& solves_;
};

/// `jobs` as an older client sends them, carrying the former timing
/// fields at the most solves they could ask for.
std::vector<SolveJob> with_legacy_timing_fields(
    const std::vector<SolveJob>& jobs) {
  std::vector<SolveJob> parsed;
  for (const SolveJob& job : jobs) {
    util::Json doc = to_json(job);
    doc.set("repeats", 1000);
    doc.set("warmup", true);
    parsed.push_back(job_from_json(doc));
  }
  return parsed;
}

TEST(BatchEngine, JobSolvesOnceWhateverTimingFieldsItCarries) {
  std::atomic<int> solves{0};
  BatchEngineOptions options;
  options.factory = [&](const SolveJob&, const MapperContext& ctx) {
    return std::make_unique<CountingMapper>(make_engine_elpc(ctx), solves);
  };
  BatchEngine engine(options);
  engine.register_network("shared", make_network(5, 12, 70));
  std::vector<SolveJob> jobs = shared_network_jobs();
  jobs.resize(2);  // one delay job, one frame-rate job
  const std::vector<SolveResult> results =
      engine.solve(with_legacy_timing_fields(jobs));
  EXPECT_EQ(solves.load(), 2);
  for (const SolveResult& result : results) {
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_GE(result.mean_runtime_ms, 0.0);
  }
}

TEST(BatchEngine, SubscribedJobCarryingTimingFieldsKeepsItsCheckpoint) {
  BatchEngineOptions options;
  options.incremental = true;
  BatchEngine engine(options);
  engine.register_network("shared", make_network(5, 12, 70));
  SolveJob job = shared_network_jobs()[1];
  ASSERT_EQ(job.objective, Objective::kMaxFrameRate);
  job.resolve_on_update = true;
  const std::vector<SolveResult> results =
      engine.solve(with_legacy_timing_fields({job}));
  ASSERT_TRUE(results[0].error.empty()) << results[0].error;
  EXPECT_NE(engine.session("shared").checkpoint(job.id), nullptr);
}

TEST(BatchSerialize, JobRoundTripsThroughJson) {
  SolveJob job;
  job.id = "j7";
  job.network = "netA";
  job.pipeline = make_pipeline(3, 4);
  job.source = 1;
  job.destination = 5;
  job.objective = Objective::kMaxFrameRate;
  job.algorithm = "Greedy";
  job.cost = pipeline::CostOptions{.include_link_delay = true};
  job.resolve_on_update = true;

  const SolveJob back = job_from_json(to_json(job));
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.network, job.network);
  EXPECT_EQ(back.objective, job.objective);
  EXPECT_EQ(back.algorithm, job.algorithm);
  EXPECT_EQ(back.source, job.source);
  EXPECT_EQ(back.destination, job.destination);
  EXPECT_EQ(back.cost.include_link_delay, job.cost.include_link_delay);
  EXPECT_EQ(back.resolve_on_update, job.resolve_on_update);
  EXPECT_EQ(back.pipeline.module_count(), job.pipeline.module_count());
}

/// Documents from older clients may still carry the former timing
/// fields, with any value: they parse exactly like a document without
/// them, and nothing writes them back.
TEST(BatchSerialize, LegacyTimingFieldsAreIgnored) {
  SolveJob job;
  job.id = "r";
  job.network = "n";
  job.pipeline = make_pipeline(3, 3);
  job.source = 0;
  job.destination = 1;
  const std::string plain = to_json(job).dump();
  EXPECT_EQ(plain.find("repeats"), std::string::npos);
  EXPECT_EQ(plain.find("warmup"), std::string::npos);
  for (const double repeats : {1.0, 0.0, 1001.0, 1e12}) {
    for (const bool warmup : {false, true}) {
      util::Json doc = to_json(job);
      doc.set("repeats", repeats);
      doc.set("warmup", warmup);
      EXPECT_EQ(to_json(job_from_json(doc)).dump(), plain)
          << "repeats=" << repeats << " warmup=" << warmup;
    }
  }
}

/// Node ids are range-checked where they enter: -1 must not wrap into
/// a huge NodeId, and 2^53 is past the integers a JSON number names
/// exactly.  The message names the field and the value as sent.
TEST(BatchSerialize, NodeIdsOutsideTheWireRangeRejected) {
  SolveJob job;
  job.id = "n";
  job.network = "n";
  job.pipeline = make_pipeline(3, 3);
  job.source = 0;
  job.destination = 1;
  const util::Json doc = to_json(job);
  const double two_53 = 9007199254740992.0;
  for (const char* field : {"source", "destination"}) {
    util::Json edge = doc;
    edge.set(field, two_53 - 1);
    EXPECT_NO_THROW((void)job_from_json(edge)) << field;
    for (const double id : {-1.0, two_53}) {
      util::Json bad = doc;
      bad.set(field, id);
      try {
        (void)job_from_json(bad);
        ADD_FAILURE() << field << "=" << id << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  "'" + std::string(field) +
                      "' must be a node id in [0, 2^53), got " +
                      util::Json(id).dump());
      }
    }
  }

  util::Json update = to_json(graph::LinkUpdate{0, 1, {10.0, 0.0}});
  update.set("to", -1);
  EXPECT_THROW((void)link_update_from_json(update), std::invalid_argument);

  util::Json entry = util::Json::parse(
      R"({"job":"j","network":"n","revision":0,"algorithm":"ELPC",)"
      R"("objective":"delay","feasible":true,"mapping":[0,-1]})");
  EXPECT_THROW((void)result_entry_from_json(entry), std::invalid_argument);
}

TEST(BatchSerialize, ObjectiveDependentCostDefaults) {
  SolveJob job;
  job.id = "j";
  job.network = "n";
  job.pipeline = make_pipeline(3, 3);
  job.source = 0;
  job.destination = 1;

  job.objective = Objective::kMinDelay;
  util::Json delay_doc = to_json(job);
  // Drop the explicit field to exercise the default.
  util::Json stripped = util::JsonObject{};
  for (const auto& [key, value] : delay_doc.as_object()) {
    if (key != "include_link_delay") {
      stripped.set(key, value);
    }
  }
  EXPECT_TRUE(job_from_json(stripped).cost.include_link_delay);

  stripped.set("objective", "framerate");
  EXPECT_FALSE(job_from_json(stripped).cost.include_link_delay);
}

/// dump_json writes each network as text, and the bytes are the dump
/// of the job file built as one tree, with no networks too.
TEST(BatchSerialize, SpecDumpJsonMatchesTheTreeDump) {
  BatchSpec spec;
  const auto tree_of = [&spec] {
    util::JsonArray networks;
    for (const auto& [id, network] : spec.networks) {
      util::Json entry = util::JsonObject{};
      entry.set("id", id);
      entry.set("network", graph::testing::tree_to_json(network));
      networks.push_back(std::move(entry));
    }
    util::JsonArray jobs;
    for (const SolveJob& job : spec.jobs) {
      jobs.push_back(to_json(job));
    }
    util::Json doc = util::JsonObject{};
    doc.set("networks", util::Json(std::move(networks)));
    doc.set("jobs", util::Json(std::move(jobs)));
    return doc;
  };
  EXPECT_EQ(dump_json(spec, 2), tree_of().dump(2));
  spec.networks.emplace_back("netA", make_network(4, 6, 20));
  spec.networks.emplace_back("net \"B\"", make_network(5, 8, 30));
  EXPECT_EQ(dump_json(spec, 2), tree_of().dump(2));
  SolveJob job;
  job.id = "j0";
  job.network = "netA";
  job.pipeline = make_pipeline(3, 3);
  job.source = 0;
  job.destination = 5;
  job.cost = default_cost(job.objective);
  spec.jobs.push_back(job);
  for (const int indent : {0, 2}) {
    EXPECT_EQ(dump_json(spec, indent), tree_of().dump(indent));
  }
  EXPECT_EQ(to_json(spec), tree_of());
}

TEST(BatchSerialize, SpecRoundTripAndUnknownObjectiveRejected) {
  BatchSpec spec;
  spec.networks.emplace_back("netA", make_network(4, 6, 20));
  SolveJob job;
  job.id = "j0";
  job.network = "netA";
  job.pipeline = make_pipeline(3, 3);
  job.source = 0;
  job.destination = 5;
  job.cost = default_cost(job.objective);
  spec.jobs.push_back(job);

  const BatchSpec back = batch_spec_from_json(to_json(spec));
  ASSERT_EQ(back.networks.size(), 1u);
  EXPECT_EQ(back.networks[0].first, "netA");
  EXPECT_EQ(back.networks[0].second.link_count(),
            spec.networks[0].second.link_count());
  ASSERT_EQ(back.jobs.size(), 1u);
  EXPECT_EQ(back.jobs[0].id, "j0");

  EXPECT_THROW((void)objective_from_name("latency"), std::invalid_argument);
}

}  // namespace
}  // namespace elpc::service
