// Engine-side job deadlines (SolveJob::deadline_ms): an over-budget
// solve must stop with kTimedOutError, and a deadline never changes an
// on-time result.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/elpc.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "util/rng.hpp"

namespace elpc::service {
namespace {

graph::Network make_network(std::uint64_t seed, std::size_t nodes,
                            std::size_t links) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, nodes, links,
                                         graph::AttributeRanges{});
}

SolveJob make_job(const std::string& id, std::uint64_t pseed,
                  Objective objective) {
  util::Rng rng(pseed);
  SolveJob job;
  job.id = id;
  job.network = "net";
  job.pipeline = pipeline::random_pipeline(rng, 4, {});
  job.source = 0;
  job.destination = 9;
  job.objective = objective;
  job.cost = default_cost(objective);
  return job;
}

/// Factory that sleeps before handing back the stock engine mapper: the
/// job then burns its budget before the first DP column, so the
/// per-column probe fires deterministically.
BatchEngineOptions stalling_factory(std::chrono::milliseconds stall) {
  BatchEngineOptions options;
  options.factory = [stall](const SolveJob&, const MapperContext& ctx) {
    std::this_thread::sleep_for(stall);
    return make_engine_elpc(ctx);
  };
  return options;
}

TEST(BatchEngine, DeadlineExceededMidSolveReportsTimedOut) {
  BatchEngine engine(stalling_factory(std::chrono::milliseconds(100)));
  engine.register_network("net", make_network(3, 10, 50));

  std::vector<SolveJob> jobs = {
      make_job("over", 50, Objective::kMaxFrameRate)};
  jobs[0].deadline_ms = 5;
  const std::vector<SolveResult> results = engine.solve(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].error, kTimedOutError);
  EXPECT_FALSE(results[0].result.feasible);
}

TEST(BatchEngine, DeadlineJobsNeverPerturbOnTimeResults) {
  // A generous deadline (and a zero one) must leave results bit-identical
  // to a plain solve: the deadline plumbing is pure control flow.
  BatchEngine plain;
  plain.register_network("net", make_network(3, 10, 50));
  std::vector<SolveJob> jobs = {
      make_job("a", 50, Objective::kMinDelay),
      make_job("b", 51, Objective::kMaxFrameRate)};
  const std::vector<SolveResult> expected = plain.solve(jobs);

  BatchEngine engine;
  engine.register_network("net", make_network(3, 10, 50));
  jobs[0].deadline_ms = 60000;
  jobs[1].deadline_ms = 0;
  const std::vector<SolveResult> results = engine.solve(jobs);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    EXPECT_EQ(results[i].result.seconds, expected[i].result.seconds);
    EXPECT_EQ(results[i].result.mapping, expected[i].result.mapping);
  }
}

TEST(BatchEngine, TimedOutSubscriptionIsNotRetained) {
  // A job that timed out never ran to completion; retaining it as a
  // subscription would re-solve work the caller already wrote off.
  BatchEngine engine(stalling_factory(std::chrono::milliseconds(100)));
  engine.register_network("net", make_network(3, 10, 50));
  std::vector<SolveJob> jobs = {
      make_job("sub", 52, Objective::kMaxFrameRate)};
  jobs[0].resolve_on_update = true;
  jobs[0].deadline_ms = 5;
  const std::vector<SolveResult> results = engine.solve(jobs);
  ASSERT_EQ(results[0].error, kTimedOutError);
  EXPECT_EQ(engine.subscription_count(), 0u);
}

TEST(BatchSerialize, DeadlineRoundTripsAndNegativeRejected) {
  SolveJob job = make_job("d", 60, Objective::kMinDelay);
  job.deadline_ms = 1234;
  const SolveJob back = job_from_json(to_json(job));
  EXPECT_EQ(back.deadline_ms, 1234);

  // Absent on the wire (and omitted when 0): the default is "no
  // deadline", keeping old clients byte-compatible.
  job.deadline_ms = 0;
  util::Json doc = to_json(job);
  EXPECT_FALSE(doc.as_object().count("deadline_ms"));
  EXPECT_EQ(job_from_json(doc).deadline_ms, 0);

  doc.set("deadline_ms", -5);
  EXPECT_THROW((void)job_from_json(doc), std::invalid_argument);
}

}  // namespace
}  // namespace elpc::service
