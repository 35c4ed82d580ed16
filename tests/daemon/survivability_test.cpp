// Daemon survivability: submission-clock deadlines (queued AND running
// jobs), graceful drain, the wait-during-shutdown signal, and a stalled
// solve that times out and pins its superseded revision only until it
// returns.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/elpc.hpp"
#include "daemon/client.hpp"
#include "daemon/job_manager.hpp"
#include "daemon/socket_server.hpp"
#include "graph/generators.hpp"
#include "mapping/mapper.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

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

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "/elpc_surv_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// The hung-solve model: sleeps through its whole hang ignoring the
/// abort probe (a genuinely stuck solve — a wedged syscall, a pathological
/// input), then finally reaches a probe and aborts.  Long enough after
/// the job's deadline that the pin is observable while it is stuck.
class HungMapper final : public mapping::Mapper {
 public:
  HungMapper(core::AbortProbe abort, std::chrono::milliseconds hang)
      : abort_(std::move(abort)), hang_(hang) {}

  [[nodiscard]] std::string name() const override { return "hang"; }
  [[nodiscard]] mapping::MapResult min_delay(
      const mapping::Problem&) const override {
    return stall();
  }
  [[nodiscard]] mapping::MapResult max_frame_rate(
      const mapping::Problem&) const override {
    return stall();
  }

 private:
  mapping::MapResult stall() const {
    std::this_thread::sleep_for(hang_);
    if (abort_) {
      const core::SolveAbort reason = abort_();
      if (reason != core::SolveAbort::kNone) {
        throw core::SolveAborted(reason, "hung solve reached a probe");
      }
    }
    return mapping::MapResult::infeasible("hung mapper never solves");
  }

  core::AbortProbe abort_;
  std::chrono::milliseconds hang_;
};

/// Factory stalling before the stock mapper is even built: the job burns
/// its budget before the first DP column.
service::BatchEngineOptions slow_start_factory(
    std::chrono::milliseconds stall) {
  service::BatchEngineOptions options;
  options.factory = [stall](const service::SolveJob&,
                            const service::MapperContext& ctx) {
    std::this_thread::sleep_for(stall);
    return service::make_engine_elpc(ctx);
  };
  return options;
}

TEST(JobManager, DeadlineExpiresQueuedJobEvenWhilePaused) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManagerOptions options;
  options.start_paused = true;  // the job can never dispatch
  JobManager manager(engine, options);

  service::SolveJob job = make_job("late", 80, service::Objective::kMinDelay);
  job.deadline_ms = 30;
  const Ticket ticket = manager.submit(job);

  const JobStatus status = manager.wait(ticket);
  EXPECT_EQ(status.state, JobState::kTimedOut);
  EXPECT_EQ(status.result.error, service::kTimedOutError);
  const JobManagerStats stats = manager.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(JobManager, RunningJobStoppedByItsDeadline) {
  service::BatchEngine engine(
      slow_start_factory(std::chrono::milliseconds(100)));
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  service::SolveJob job =
      make_job("over", 81, service::Objective::kMaxFrameRate);
  job.deadline_ms = 20;
  const Ticket ticket = manager.submit(job);
  const JobStatus status = manager.wait(ticket);
  EXPECT_EQ(status.state, JobState::kTimedOut);
  EXPECT_EQ(status.result.error, service::kTimedOutError);
  EXPECT_EQ(manager.stats().timed_out, 1u);

  // A deadline-free job right after is untouched.
  const Ticket ok = manager.submit(
      make_job("ok", 82, service::Objective::kMinDelay));
  EXPECT_EQ(manager.wait(ok).state, JobState::kDone);
}

TEST(JobManager, DrainFinishesWorkAndClosesAdmission) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManagerOptions options;
  options.start_paused = true;  // everything queues until the drain
  JobManager manager(engine, options);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(manager.submit(
        make_job("j" + std::to_string(i), 90 + i,
                 service::Objective::kMinDelay)));
  }

  // Drain lifts the pause, runs the queue dry, and reports idle.
  const DrainReport report = manager.drain(/*timeout_ms=*/20000);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.timed_out, 0u);
  EXPECT_EQ(report.queued, 0u);
  EXPECT_EQ(report.running, 0u);
  for (const Ticket ticket : tickets) {
    EXPECT_EQ(manager.poll(ticket).state, JobState::kDone);
  }

  // Admission is closed for good.
  EXPECT_TRUE(manager.draining());
  EXPECT_TRUE(manager.stats().draining);
  EXPECT_THROW((void)manager.submit(make_job(
                   "rejected", 99, service::Objective::kMinDelay)),
               std::runtime_error);
  // A second drain on an idle manager reports idle again.
  EXPECT_TRUE(manager.drain(1000).drained);
}

TEST(JobManager, DrainBudgetTimesOutStragglers) {
  service::BatchEngine engine(
      slow_start_factory(std::chrono::milliseconds(300)));
  engine.register_network("net", make_network(3));
  JobManagerOptions options;
  options.start_paused = true;
  JobManager manager(engine, options);

  const Ticket slow = manager.submit(
      make_job("slow", 95, service::Objective::kMaxFrameRate));
  // The drain budget is far below the 300 ms stall: the job must be
  // forced to kTimedOut rather than holding the drain hostage.
  const DrainReport report = manager.drain(/*timeout_ms=*/50);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.timed_out, 1u);
  EXPECT_EQ(manager.poll(slow).state, JobState::kTimedOut);
}

TEST(JobManager, ConcurrentDrainsEachAnswerExactlyOnce) {
  service::BatchEngine engine(
      slow_start_factory(std::chrono::milliseconds(100)));
  engine.register_network("net", make_network(3));
  JobManagerOptions options;
  options.start_paused = true;
  JobManager manager(engine, options);
  for (int i = 0; i < 2; ++i) {
    (void)manager.submit(make_job("d" + std::to_string(i), 70 + i,
                                  service::Objective::kMinDelay));
  }

  // Two drains race in from two threads; each callback must fire once,
  // with the manager idle, and never again (not even at stop()).
  std::atomic<int> calls[2] = {0, 0};
  std::promise<DrainReport> answers[2];
  std::future<DrainReport> reports[2] = {answers[0].get_future(),
                                         answers[1].get_future()};
  std::vector<std::thread> drainers;
  for (int d = 0; d < 2; ++d) {
    drainers.emplace_back([&, d]() {
      manager.drain(/*timeout_ms=*/20000, [&, d](const DrainReport& report) {
        if (calls[d].fetch_add(1) == 0) {
          answers[d].set_value(report);
        }
      });
    });
  }
  for (std::thread& drainer : drainers) {
    drainer.join();
  }
  for (int d = 0; d < 2; ++d) {
    const DrainReport report = reports[d].get();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.queued, 0u);
    EXPECT_EQ(report.running, 0u);
  }
  manager.stop();
  EXPECT_EQ(calls[0].load(), 1);
  EXPECT_EQ(calls[1].load(), 1);
}

TEST(JobManager, WaitReportsShutdownForAJobThatWillNeverRun) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManagerOptions options;
  options.start_paused = true;
  JobManager manager(engine, options);

  const Ticket ticket = manager.submit(
      make_job("stuck", 96, service::Objective::kMinDelay));
  JobStatus released;
  std::thread waiter([&manager, ticket, &released]() {
    released = manager.wait(ticket);
  });
  // Give the waiter time to block, then stop the manager under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  manager.stop();
  waiter.join();
  EXPECT_FALSE(released.terminal());
  EXPECT_TRUE(released.shutting_down);
}

/// A server whose "hang" jobs stall for `hang` ignoring their abort
/// probe; `started` turns true once such a solve is running.
SocketServerOptions hanging_options(
    const std::shared_ptr<std::atomic<bool>>& started,
    std::chrono::milliseconds hang) {
  SocketServerOptions options;
  options.factory = [started, hang](const service::SolveJob& job,
                                    const service::MapperContext& ctx)
      -> mapping::MapperPtr {
    if (job.algorithm == "hang") {
      started->store(true);
      return std::make_unique<HungMapper>(ctx.abort, hang);
    }
    return service::make_engine_elpc(ctx);
  };
  return options;
}

/// End to end through the daemon's wire stats: a solve that stalls past
/// its deadline (1) reaches the timed_out terminal state, and (2) pins
/// the revision it holds only until the mapper returns — pinned_revisions
/// reads 1 while it is stuck and 0 afterwards.
TEST(SocketServer, StalledJobTimesOutAndReleasesItsPin) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kHang = std::chrono::milliseconds(2000);

  // Set by the factory, which the engine only reaches AFTER resolving
  // the batch's snapshots: once true, the stuck solve provably holds
  // revision 0, so superseding it below must produce a pin.
  const auto solve_started = std::make_shared<std::atomic<bool>>(false);

  SocketServer server(socket_path("stall"),
                      hanging_options(solve_started, kHang));
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  graph::Network net = make_network(3);
  const graph::Edge edge = net.out_edges(0).front();
  client.register_network("net", std::move(net));

  service::SolveJob job =
      make_job("stall", 97, service::Objective::kMaxFrameRate);
  job.algorithm = "hang";
  job.deadline_ms = 50;
  const Ticket ticket = client.submit(job);

  // Wait for the solve to be running (holding revision 0's snapshot).
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (!solve_started->load()) {
    ASSERT_LT(Clock::now(), give_up) << "job never started running";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Supersede revision 0: the stuck solve's snapshot now pins it.
  const std::vector<graph::LinkUpdate> delta = {
      graph::LinkUpdate{edge.from, edge.to, edge.attr}};
  EXPECT_TRUE(client.apply_link_updates("net", delta).empty());
  util::Json stats = client.stats();
  EXPECT_EQ(stats.at("pinned_revisions").as_int(), 1);
  EXPECT_GT(stats.at("pinned_bytes").as_int(), 0);

  // The job lands in the timed_out terminal state.
  const util::Json waited = client.wait(ticket);
  EXPECT_EQ(waited.at("state").as_string(), "timed_out");
  EXPECT_EQ(client.stats().at("timed_out").as_int(), 1);

  // Once the mapper returns, nothing holds revision 0 any more.
  for (;;) {
    stats = client.stats();
    if (stats.at("pinned_revisions").as_int() == 0) {
      break;
    }
    ASSERT_LT(Clock::now(), give_up) << "the pin outlived the solve";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(stats.at("pinned_bytes").as_int(), 0);

  client.shutdown_server();
  serve_thread.join();
}

/// Submits one "hang" job and returns once its solve is running.
Ticket submit_hung_job(DaemonClient& client, const std::atomic<bool>& started) {
  client.register_network("net", make_network(3));
  service::SolveJob job =
      make_job("hung", 97, service::Objective::kMaxFrameRate);
  job.algorithm = "hang";
  const Ticket ticket = client.submit(job);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!started.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(started.load()) << "job never started running";
  return ticket;
}

/// Sends one request line and parses the next line answered.
util::Json ask(util::StreamSocket& raw, const std::string& request) {
  raw.send_line(request);
  const std::optional<std::string> line = raw.recv_line();
  EXPECT_TRUE(line.has_value()) << "connection closed answering " << request;
  return util::Json::parse(line.value_or("{}"));
}

/// A solve that ignores its abort probe past the drain budget plus the
/// 2 s grace: the drain answers once, at budget + grace, reporting the
/// straggler, and the connection's later requests get their own answers.
TEST(SocketServer, DrainVerbAnswersOnceAtTheGraceWhenASolveHangs) {
  using Clock = std::chrono::steady_clock;
  constexpr std::int64_t kBudgetMs = 50;
  constexpr auto kGrace = std::chrono::seconds(2);
  const auto started = std::make_shared<std::atomic<bool>>(false);
  SocketServer server(
      socket_path("drainhang"),
      hanging_options(started, kGrace + std::chrono::milliseconds(800)));
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());
  const Ticket ticket = submit_hung_job(client, *started);

  util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());
  const Clock::time_point sent = Clock::now();
  const util::Json report = ask(
      raw, R"({"verb": "drain", "timeout_ms": )" + std::to_string(kBudgetMs) +
               "}");
  EXPECT_GE(Clock::now() - sent,
            std::chrono::milliseconds(kBudgetMs) + kGrace);
  EXPECT_TRUE(report.at("ok").as_bool());
  EXPECT_FALSE(report.at("drained").as_bool());
  EXPECT_EQ(report.at("running").as_int(), 1);
  EXPECT_EQ(report.at("queued").as_int(), 0);

  // The next requests on that connection get their own answers: the
  // drain is not answered a second time when the straggler finishes.
  const util::Json stats = ask(raw, R"({"verb": "stats"})");
  EXPECT_TRUE(stats.at("draining").as_bool());
  const util::Json waited = ask(
      raw, R"({"verb": "wait", "ticket": )" + std::to_string(ticket) + "}");
  EXPECT_EQ(waited.at("state").as_string(), "timed_out");
  EXPECT_EQ(ask(raw, R"({"verb": "stats"})").at("running").as_int(), 0);

  client.shutdown_server();
  serve_thread.join();
}

/// A drain still waiting when the daemon shuts down is answered (the
/// straggler still running), not dropped with the connection.
TEST(SocketServer, DrainPendingAtShutdownIsAnswered) {
  const auto started = std::make_shared<std::atomic<bool>>(false);
  SocketServer server(
      socket_path("drainstop"),
      hanging_options(started, std::chrono::milliseconds(1000)));
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());
  (void)submit_hung_job(client, *started);

  // Unbounded: no budget, so only idleness or shutdown can answer it.
  util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());
  raw.send_line(R"({"verb": "drain", "timeout_ms": 0})");
  for (int i = 0; i < 1000 && !client.stats().at("draining").as_bool(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  client.shutdown_server();
  const std::optional<std::string> line = raw.recv_line();
  ASSERT_TRUE(line.has_value()) << "the pending drain was dropped";
  const util::Json report = util::Json::parse(*line);
  EXPECT_TRUE(report.at("ok").as_bool());
  EXPECT_FALSE(report.at("drained").as_bool());
  EXPECT_EQ(report.at("running").as_int(), 1);
  serve_thread.join();
}

TEST(SocketServer, DrainVerbStopsAdmissionAndReportsCacheState) {
  SocketServer server(socket_path("drain"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  client.register_network("net", make_network(3));
  const Ticket ticket = client.submit(
      make_job("before", 98, service::Objective::kMinDelay));
  (void)client.wait(ticket);

  const util::Json report = client.drain(/*timeout_ms=*/10000);
  EXPECT_TRUE(report.at("drained").as_bool());
  EXPECT_EQ(report.at("queued").as_int(), 0);
  EXPECT_EQ(report.at("running").as_int(), 0);
  EXPECT_EQ(report.at("timed_out").as_int(), 0);
  // The drain answer carries the cache's end state so an operator can
  // confirm nothing is left pinned before killing the process.
  EXPECT_EQ(report.at("pinned_revisions").as_int(), 0);
  EXPECT_EQ(report.at("pinned_bytes").as_int(), 0);

  // Admission is closed: a submit after drain answers an error frame.
  EXPECT_THROW((void)client.submit(make_job(
                   "after", 99, service::Objective::kMinDelay)),
               DaemonError);
  EXPECT_TRUE(client.stats().at("draining").as_bool());
  // Read verbs keep answering while drained.
  EXPECT_EQ(client.poll(ticket).at("state").as_string(), "done");

  client.shutdown_server();
  serve_thread.join();
}

}  // namespace
}  // namespace elpc::daemon
