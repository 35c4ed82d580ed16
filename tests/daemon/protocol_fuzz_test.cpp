// Hostile-client fuzzing of the wire front end: truncated JSON, wrong
// field types, negative tickets, oversized unterminated frames, and
// mid-frame disconnects.  The invariant under every input: the daemon
// answers (or closes just that connection) and keeps serving real work
// afterwards — plus the DaemonClient retry policy that papers over
// transient connection loss.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/socket_server.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "pipeline/generator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

#include "../graph/tree_json_oracle.hpp"

namespace elpc::daemon {
namespace {

graph::Network make_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, 10, 50,
                                         graph::AttributeRanges{});
}

service::SolveJob make_job(const std::string& id, std::uint64_t pseed) {
  util::Rng rng(pseed);
  service::SolveJob job;
  job.id = id;
  job.network = "net";
  job.pipeline = pipeline::random_pipeline(rng, 4, {});
  job.source = 0;
  job.destination = 9;
  job.objective = service::Objective::kMinDelay;
  job.cost = service::default_cost(job.objective);
  return job;
}

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "/elpc_fuzz_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Connects raw (no framing helper) so the test can write partial
/// frames and slam the connection shut mid-byte.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(SocketServer, SurvivesMalformedAndHostileFrames) {
  SocketServer server(socket_path("hostile"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  // Every frame that parses — however wrong its shape — answers
  // ok=false on the same connection.
  const std::vector<std::string> bad_frames = {
      R"({"verb": "sub)",                        // truncated JSON
      R"("just a string")",                      // not an object
      R"({"verb": 42})",                         // wrong-typed verb
      R"({"verb": "poll"})",                     // missing ticket
      R"({"verb": "poll", "ticket": "abc"})",    // wrong-typed ticket
      R"({"verb": "poll", "ticket": -3})",       // negative ticket
      R"({"verb": "submit", "job": 17})",        // wrong-typed job
      R"({"verb": "submit", "job": {}})",        // empty job
      R"({"verb": "drain", "timeout_ms": []})",  // wrong-typed timeout
      R"({"verb": "apply_link_updates", "network": "nope", "updates": 3})",
      "",                                        // empty line
  };
  {
    util::StreamSocket hostile =
        util::StreamSocket::connect(server.socket_path());
    for (const std::string& frame : bad_frames) {
      hostile.send_line(frame);
      const std::optional<std::string> answer = hostile.recv_line();
      ASSERT_TRUE(answer.has_value()) << frame;
      EXPECT_FALSE(util::Json::parse(*answer).at("ok").as_bool()) << frame;
    }
  }

  // Seeded mutations of a register_network frame, most of them inside
  // its network: cut short, one byte changed, one value swapped for
  // another kind.  The daemon reads that member straight from the
  // frame; each answer must be the one the frame parsed whole and its
  // network walked as a tree gets.
  {
    std::string network;
    graph::append_json(network, make_network(4));
    const std::string base = R"({"id":"fuzz","network":)" + network +
                             R"(,"verb":"register_network"})";
    const std::string_view bytes = "{}[]\",:. -+0123456789eEtfnul\\x";
    const std::vector<std::string_view> values = {
        "0", "-1", "1.5", "\"s\"", "null", "true", "[]", "{}", R"({"a":1})"};
    util::Rng rng(77);
    util::StreamSocket hostile =
        util::StreamSocket::connect(server.socket_path());
    std::size_t checked = 0;
    for (int round = 0; round < 400; ++round) {
      std::string frame = base;
      switch (rng.index(3)) {
        case 0:
          frame.resize(1 + rng.index(frame.size() - 1));
          break;
        case 1:
          frame[rng.index(frame.size())] = bytes[rng.index(bytes.size())];
          break;
        default: {
          const std::size_t colon =
              frame.find(':', rng.index(frame.size() / 2));
          const std::size_t end = frame.find_first_of(",}", colon);
          frame.replace(colon + 1, end - colon - 1,
                        values[rng.index(values.size())]);
          break;
        }
      }
      std::string expected;  // the error the answer must carry, if known
      util::Json request;
      try {
        request = util::Json::parse(frame);
      } catch (const util::JsonError& e) {
        expected = std::string("malformed request: ") + e.what();
      }
      const util::Json* verb = request.find("verb");
      if (verb != nullptr && verb->is_string() &&
          verb->as_string() == "register_network" &&
          request.contains("network")) {
        try {
          (void)graph::testing::tree_network_from_json(request.at("network"));
        } catch (const std::exception& e) {
          expected = e.what();
        }
      }
      hostile.send_line(frame);
      const std::optional<std::string> answer = hostile.recv_line();
      ASSERT_TRUE(answer.has_value()) << frame;
      const util::Json reply = util::Json::parse(*answer);
      if (!expected.empty()) {
        ++checked;
        EXPECT_EQ(reply.at("error").as_string(), expected) << frame;
      }
    }
    EXPECT_GT(checked, 200u);
  }

  // Mid-frame disconnects: a partial frame with no terminator, then an
  // abrupt close.  Repeat a few times — each costs the daemon one
  // handler thread that must wind down cleanly.
  for (int i = 0; i < 5; ++i) {
    const int fd = raw_connect(server.socket_path());
    ASSERT_GE(fd, 0);
    const char partial[] = "{\"verb\": \"submit\", \"job";
    (void)::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL);
    ::close(fd);
  }

  // An oversized unterminated frame trips the recv byte cap: the server
  // answers one protocol-error frame (when the torn stream still lets
  // it) and closes that connection — it must never buffer unboundedly.
  {
    const int fd = raw_connect(server.socket_path());
    ASSERT_GE(fd, 0);
    const std::string chunk(1 << 20, 'x');  // 1 MiB, no newline
    for (int i = 0; i < 17; ++i) {          // past the 16 MiB default cap
      if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) < 0) {
        break;  // server already gave up on us — the desired outcome
      }
    }
    ::close(fd);
  }

  // After all of the above the daemon still serves real work.
  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));
  const Ticket ticket = client.submit(make_job("alive", 120));
  EXPECT_EQ(client.wait(ticket).at("state").as_string(), "done");

  client.shutdown_server();
  serve_thread.join();
}

TEST(DaemonClient, RetriesReconnectAfterTransientConnectionLoss) {
  const auto listener = util::Listener::unix_at(socket_path("retry"));
  std::thread flaky_server([&listener]() {
    // First connection: accepted, then dropped without an answer — the
    // "daemon restarted under the client" shape.
    {
      std::optional<util::StreamSocket> first = listener->accept();
      ASSERT_TRUE(first.has_value());
    }  // closed on scope exit
    // Second connection (the retry): answer one request properly.
    std::optional<util::StreamSocket> second = listener->accept();
    ASSERT_TRUE(second.has_value());
    const std::optional<std::string> line = second->recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(util::Json::parse(*line).at("verb").as_string(), "noop");
    second->send_line(R"({"ok": true, "echo": 1})");
  });

  DaemonClientOptions options;
  options.max_retries = 3;
  options.backoff_ms = 1;  // keep the test fast; jitter still applies
  // The hand-rolled flaky server above speaks no `hello`; pin v1 so the
  // constructor does not block negotiating against it (this test is
  // about the retry policy, not the protocol version).
  options.protocol = ProtocolPreference::kV1;
  DaemonClient client(listener->path(), options);
  util::Json frame = util::JsonObject{};
  frame.set("verb", "noop");
  const util::Json response = client.request(frame);
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("echo").as_int(), 1);
  flaky_server.join();
}

TEST(DaemonClient, ZeroRetriesSurfacesTheFirstFailure) {
  const auto listener = util::Listener::unix_at(socket_path("noretry"));
  std::thread closing_server([&listener]() {
    // Drop every connection unanswered until the listener closes.
    while (std::optional<util::StreamSocket> peer = listener->accept()) {
    }
  });

  DaemonClientOptions options;
  options.max_retries = 0;
  options.protocol = ProtocolPreference::kV1;  // fake server, no hello
  DaemonClient client(listener->path(), options);
  util::Json frame = util::JsonObject{};
  frame.set("verb", "noop");
  EXPECT_THROW((void)client.request(frame), util::SocketError);

  listener->close();
  closing_server.join();
}

/// submit_all never resends: the first connection takes the frames and
/// drops without answering, and the client (max_retries 3) must surface
/// the SocketError instead of reconnecting and submitting again.  Any
/// later connection would have its submits answered, so a resend would
/// show as a returned ticket list.
TEST(DaemonClient, SubmitAllNeverResendsAfterAFrameLeft) {
  const auto listener = util::Listener::unix_at(socket_path("noresend"));
  int connections = 0;
  std::thread dropping_server([&listener, &connections]() {
    while (std::optional<util::StreamSocket> peer = listener->accept()) {
      if (++connections == 1) {
        (void)peer->recv_line();  // a submit arrived; hang up unanswered
        continue;
      }
      while (peer->recv_line().has_value()) {
        peer->send_line(R"({"ok": true, "ticket": 1})");
      }
    }
  });

  DaemonClientOptions options;
  options.max_retries = 3;
  options.backoff_ms = 1;
  options.protocol = ProtocolPreference::kV1;  // fake server, no hello
  {
    DaemonClient client(listener->path(), options);
    const std::vector<service::SolveJob> jobs = {make_job("a", 1),
                                                 make_job("b", 2)};
    EXPECT_THROW((void)client.submit_all(jobs), util::SocketError);
  }
  listener->close();
  dropping_server.join();
  EXPECT_EQ(connections, 1);
}

/// wait_all correlates out-of-band answers by ticket and, after a
/// dropped connection, re-issues only the waits still unanswered: the
/// first connection answers tickets 9 and 7 (out of order) and drops;
/// the second must be asked for ticket 8 alone.
TEST(DaemonClient, WaitAllReissuesOnlyUnansweredWaitsAfterReconnect) {
  const auto listener = util::Listener::unix_at(socket_path("rewait"));
  const auto status_line = [](Ticket ticket) {
    return R"({"ok": true, "priority": 0, "state": "done", "ticket": )" +
           std::to_string(ticket) + "}";
  };
  const auto waited_ticket = [](const std::string& line) {
    const util::Json frame = util::Json::parse(line);
    EXPECT_EQ(frame.at("verb").as_string(), "wait");
    return static_cast<Ticket>(frame.at("ticket").as_int());
  };
  std::thread flaky_server([&]() {
    {
      std::optional<util::StreamSocket> first = listener->accept();
      ASSERT_TRUE(first.has_value());
      std::vector<Ticket> asked;
      for (int i = 0; i < 3; ++i) {
        const std::optional<std::string> line = first->recv_line();
        ASSERT_TRUE(line.has_value());
        asked.push_back(waited_ticket(*line));
      }
      EXPECT_EQ(asked, (std::vector<Ticket>{7, 8, 9}));
      first->send_line(status_line(9));
      first->send_line(status_line(7));
    }  // dropped with ticket 8 unanswered
    std::optional<util::StreamSocket> second = listener->accept();
    ASSERT_TRUE(second.has_value());
    const std::optional<std::string> line = second->recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(waited_ticket(*line), 8u);
    second->send_line(status_line(8));
    // Nothing else may arrive before the client hangs up.
    EXPECT_FALSE(second->recv_line().has_value());
  });

  DaemonClientOptions options;
  options.max_retries = 3;
  options.backoff_ms = 1;
  options.protocol = ProtocolPreference::kV1;
  {
    DaemonClient client(listener->path(), options);
    const std::vector<Ticket> tickets = {7, 8, 9};
    const std::vector<JobStatusView> statuses = client.wait_all(tickets);
    ASSERT_EQ(statuses.size(), 3u);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_EQ(statuses[i].ticket, tickets[i]);
      EXPECT_EQ(statuses[i].state, "done");
    }
  }
  flaky_server.join();
}

}  // namespace
}  // namespace elpc::daemon
