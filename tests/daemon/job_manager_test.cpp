#include "daemon/job_manager.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
#include "util/rng.hpp"

namespace elpc::daemon {
namespace {

graph::Network make_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, 10, 50,
                                         graph::AttributeRanges{});
}

service::SolveJob make_job(const std::string& id, std::uint64_t pseed,
                           service::Objective objective) {
  util::Rng rng(pseed);
  service::SolveJob job;
  job.id = id;
  job.network = "net";
  job.pipeline = pipeline::random_pipeline(rng, 4, {});
  job.source = 0;
  job.destination = 9;
  job.objective = objective;
  job.cost = service::default_cost(objective);
  return job;
}

std::vector<service::SolveJob> make_jobs(std::size_t n) {
  std::vector<service::SolveJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(make_job("job" + std::to_string(i), 100 + i,
                            i % 2 == 0 ? service::Objective::kMinDelay
                                       : service::Objective::kMaxFrameRate));
  }
  return jobs;
}

TEST(JobManager, AsyncResultsBitIdenticalToDirectSolve) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  const std::vector<service::SolveJob> jobs = make_jobs(6);
  std::vector<Ticket> tickets;
  for (const service::SolveJob& job : jobs) {
    tickets.push_back(manager.submit(job));
  }

  service::BatchEngine direct;
  direct.register_network("net", make_network(3));
  const std::vector<service::SolveResult> expected = direct.solve(jobs);

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const JobStatus status = manager.wait(tickets[i]);
    EXPECT_EQ(status.state, JobState::kDone);
    EXPECT_TRUE(status.result.error.empty()) << status.result.error;
    // The manager adds scheduling, never configuration: same kernels,
    // same inputs, bit-identical outputs.
    EXPECT_EQ(status.result.result.seconds, expected[i].result.seconds)
        << jobs[i].id;
    EXPECT_EQ(status.result.result.mapping, expected[i].result.mapping)
        << jobs[i].id;
  }
}

TEST(JobManager, DispatchFollowsPriorityThenSubmissionOrder) {
  // Record the order jobs reach the mapper factory.  A one-worker engine
  // runs strictly one job at a time, so the recorded order is the
  // scheduling order; start_paused lets all submissions queue first.
  std::mutex order_mutex;
  std::vector<std::string> order;
  service::BatchEngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.factory = [&order, &order_mutex](
                               const service::SolveJob& job,
                               const service::MapperContext& ctx) {
    {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(job.id);
    }
    return service::make_engine_elpc(ctx);
  };
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));

  JobManagerOptions manager_options;
  manager_options.start_paused = true;
  JobManager manager(engine, manager_options);

  const std::vector<service::SolveJob> jobs = make_jobs(4);
  std::vector<Ticket> tickets;
  tickets.push_back(manager.submit(jobs[0], /*priority=*/0));
  tickets.push_back(manager.submit(jobs[1], /*priority=*/5));
  tickets.push_back(manager.submit(jobs[2], /*priority=*/5));
  tickets.push_back(manager.submit(jobs[3], /*priority=*/1));
  EXPECT_EQ(manager.stats().queued, 4u);

  manager.resume();
  for (const Ticket ticket : tickets) {
    (void)manager.wait(ticket);
  }
  // Highest priority first; FIFO between the two priority-5 jobs.
  const std::vector<std::string> expected = {"job1", "job2", "job3", "job0"};
  EXPECT_EQ(order, expected);
}

TEST(JobManager, LaterJobFinishesWhileAnEarlierOneIsStillRunning) {
  // No batch barrier: with two engine workers, job B (submitted after A
  // started) runs on the idle worker and completes — its wait_async
  // answer included — while A is still held inside its solve.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool a_started = false;
  bool a_released = false;
  service::BatchEngineOptions engine_options;
  engine_options.threads = 2;
  engine_options.factory = [&](const service::SolveJob& job,
                               const service::MapperContext& ctx) {
    if (job.id == "A") {
      std::unique_lock<std::mutex> lock(gate_mutex);
      a_started = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&a_released]() { return a_released; });
    }
    return service::make_engine_elpc(ctx);
  };
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  const auto release_a = [&]() {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    a_released = true;
    gate_cv.notify_all();
  };

  // Outlives the manager: a late answer (the failure mode) must still
  // land on a live promise.
  std::promise<JobState> b_answer;
  std::future<JobState> b_state = b_answer.get_future();
  JobManager manager(engine);
  const Ticket a =
      manager.submit(make_job("A", 11, service::Objective::kMaxFrameRate));
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&a_started]() { return a_started; }));
  }
  const Ticket b =
      manager.submit(make_job("B", 12, service::Objective::kMinDelay));
  manager.wait_async(b, [&b_answer](const JobStatus& status) {
    b_answer.set_value(status.state);
  });
  const bool b_answered =
      b_state.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  const JobState a_state_meanwhile = manager.poll(a).state;
  release_a();  // unblock A whatever happened, so the manager can stop

  ASSERT_TRUE(b_answered) << "job B waited behind job A";
  EXPECT_EQ(b_state.get(), JobState::kDone);
  EXPECT_EQ(a_state_meanwhile, JobState::kRunning);
  EXPECT_EQ(manager.wait(a).state, JobState::kDone);
}

TEST(JobManager, CancelQueuedRemovesJobBeforeItEverRuns) {
  std::mutex seen_mutex;
  std::vector<std::string> seen;
  service::BatchEngineOptions engine_options;
  engine_options.factory = [&seen, &seen_mutex](
                               const service::SolveJob& job,
                               const service::MapperContext& ctx) {
    {
      const std::lock_guard<std::mutex> lock(seen_mutex);
      seen.push_back(job.id);
    }
    return service::make_engine_elpc(ctx);
  };
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  JobManagerOptions manager_options;
  manager_options.start_paused = true;
  JobManager manager(engine, manager_options);

  const std::vector<service::SolveJob> jobs = make_jobs(3);
  const Ticket keep1 = manager.submit(jobs[0]);
  const Ticket victim = manager.submit(jobs[1]);
  const Ticket keep2 = manager.submit(jobs[2]);

  EXPECT_TRUE(manager.cancel(victim));
  const JobStatus cancelled = manager.poll(victim);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_EQ(cancelled.result.error, service::kCancelledError);

  manager.resume();
  EXPECT_EQ(manager.wait(keep1).state, JobState::kDone);
  EXPECT_EQ(manager.wait(keep2).state, JobState::kDone);
  EXPECT_EQ(seen.size(), 2u);  // the cancelled job never reached a mapper
  // Cancelling an already-cancelled job is a no-op.
  EXPECT_FALSE(manager.cancel(victim));
}

TEST(JobManager, CancelAfterCompletionIsNoOp) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  const Ticket ticket =
      manager.submit(make_job("j", 7, service::Objective::kMinDelay));
  const JobStatus done = manager.wait(ticket);
  ASSERT_EQ(done.state, JobState::kDone);

  EXPECT_FALSE(manager.cancel(ticket));
  // The completed result is untouched by the attempted cancellation.
  const JobStatus after = manager.poll(ticket);
  EXPECT_EQ(after.state, JobState::kDone);
  EXPECT_EQ(after.result.result.seconds, done.result.result.seconds);
}

TEST(JobManager, UnknownTicketIsAnErrorNotACrash) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);
  EXPECT_THROW((void)manager.poll(999), std::out_of_range);
  EXPECT_THROW((void)manager.cancel(999), std::out_of_range);
  EXPECT_THROW((void)manager.wait(999), std::out_of_range);
}

TEST(JobManager, BatchLevelRejectionFailsTheJobNotTheDaemon) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  service::SolveJob stray = make_job("stray", 7,
                                     service::Objective::kMinDelay);
  stray.network = "unregistered";
  const Ticket bad = manager.submit(stray);
  const JobStatus failed = manager.wait(bad);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.result.error.find("unregistered"), std::string::npos);

  // The manager keeps serving after the failure.
  const Ticket good =
      manager.submit(make_job("ok", 8, service::Objective::kMinDelay));
  EXPECT_EQ(manager.wait(good).state, JobState::kDone);
}

TEST(JobManager, RetentionCapEvictsOldestTerminalRecords) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManagerOptions manager_options;
  manager_options.max_retained_results = 3;
  JobManager manager(engine, manager_options);

  std::vector<Ticket> tickets;
  for (const service::SolveJob& job : make_jobs(6)) {
    const Ticket ticket = manager.submit(job);
    (void)manager.wait(ticket);  // serialize: completion order == ticket order
    tickets.push_back(ticket);
  }

  // Cumulative counters survive eviction; records are capped.
  EXPECT_EQ(manager.stats().done, 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_THROW((void)manager.poll(tickets[i]), std::out_of_range);
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(manager.poll(tickets[i]).state, JobState::kDone);
  }
}

TEST(JobManager, StatsTrackStates) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManagerOptions manager_options;
  manager_options.start_paused = true;
  JobManager manager(engine, manager_options);

  const std::vector<service::SolveJob> jobs = make_jobs(3);
  std::vector<Ticket> tickets;
  for (const service::SolveJob& job : jobs) {
    tickets.push_back(manager.submit(job));
  }
  EXPECT_TRUE(manager.cancel(tickets[0]));
  JobManagerStats stats = manager.stats();
  EXPECT_TRUE(stats.paused);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_EQ(stats.cancelled, 1u);

  manager.resume();
  (void)manager.wait(tickets[1]);
  (void)manager.wait(tickets[2]);
  stats = manager.stats();
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_FALSE(stats.paused);
}

}  // namespace
}  // namespace elpc::daemon
