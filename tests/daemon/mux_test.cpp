// Edge cases of the epoll connection multiplexer front end: torn and
// pipelined frames (and the scan cursor that frames them in one pass),
// read-buffer release after a large frame, write-queue backpressure,
// auth gating, per-client quotas, waits outliving their submitter's
// connection, TCP transport byte-identity, exact per-transport
// connection accounting, and the fixed-pool thread invariant idle
// connections must not break.  The happy-path protocol flow lives in
// socket_server_test.cpp; hostile-input robustness in
// protocol_fuzz_test.cpp.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/connection_mux.hpp"
#include "daemon/socket_server.hpp"
#include "daemon/wire_format.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "pipeline/generator.hpp"
#include "service/serialize.hpp"
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
  return ::testing::TempDir() + "/elpc_mux_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

util::Json verb_frame(const std::string& verb) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", verb);
  return frame;
}

/// Writes exactly `text` to the raw fd (blocking socket), bypassing the
/// line framing — the tool for torn and pipelined frame tests.
void send_raw(util::StreamSocket& socket, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(socket.fd(), text.data() + sent,
                             text.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// A frame arriving in byte dribbles across many socket wakeups must be
/// reassembled and answered exactly as if it arrived whole — and a
/// burst of frames in ONE write must produce one response per frame, in
/// order (the fairness path re-queues the connection between quanta).
TEST(ConnectionMux, TornAndPipelinedFramesReassemble) {
  SocketServer server(socket_path("torn"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());
  const std::string request = verb_frame("stats").dump() + "\n";
  // Dribble: one byte per send, with pauses long enough that each lands
  // in its own epoll wakeup at least some of the time.
  for (const char byte : request) {
    send_raw(raw, std::string(1, byte));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::optional<std::string> torn_response = raw.recv_line();
  ASSERT_TRUE(torn_response.has_value());
  EXPECT_TRUE(util::Json::parse(*torn_response).at("ok").as_bool());

  // Pipelined burst: 40 frames in one write exceeds the per-wake frame
  // quantum, so the tail is served via the ready-ring fairness pass.
  std::string burst;
  for (int i = 0; i < 40; ++i) {
    util::Json frame = verb_frame("stats");
    frame.set("trace_id", "burst-" + std::to_string(i));
    burst += frame.dump() + "\n";
  }
  send_raw(raw, burst);
  for (int i = 0; i < 40; ++i) {
    const std::optional<std::string> line = raw.recv_line();
    ASSERT_TRUE(line.has_value()) << "response " << i;
    const util::Json response = util::Json::parse(*line);
    EXPECT_TRUE(response.at("ok").as_bool());
    // In-order responses: the echoed trace id pins the pairing.
    EXPECT_EQ(response.at("trace_id").as_string(),
              "burst-" + std::to_string(i));
  }
  raw.close();

  DaemonClient client(server.socket_path());
  client.shutdown_server();
  serve_thread.join();
}

/// A client that sends requests but never reads responses must be
/// disconnected once its pending-response queue passes the cap — with
/// the disconnect visible in elpc_disconnects_total{reason=
/// "backpressure"} — instead of growing daemon memory without bound.
TEST(ConnectionMux, BackpressureDisconnectsSlowConsumer) {
  SocketServerOptions options;
  // Big enough that one response fits with room to spare (a well-behaved
  // client is never tripped), small enough that a non-reading client
  // trips it long before the 8MiB default would.
  options.max_write_queue_bytes = 64u << 10;
  SocketServer server(socket_path("bp"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  util::StreamSocket slow = util::StreamSocket::connect(server.socket_path());
  // Each metrics exposition is kilobytes; never reading lets responses
  // pile up first in the kernel socket buffer, then in the daemon's
  // write queue until it passes the cap.
  const std::string request = verb_frame("metrics").dump() + "\n";
  bool disconnected = false;
  for (int i = 0; i < 2000 && !disconnected; ++i) {
    const ssize_t n =
        ::send(slow.fd(), request.data(), request.size(), MSG_NOSIGNAL);
    if (n < 0) {
      disconnected = true;  // EPIPE/ECONNRESET: the daemon hung up
    }
  }
  if (!disconnected) {
    // Sends kept landing (request frames are tiny); the disconnect then
    // surfaces on the read side as EOF/reset after the queued tail.
    for (int i = 0; i < 5000; ++i) {
      try {
        if (!slow.recv_line().has_value()) {
          disconnected = true;
          break;
        }
      } catch (const util::SocketError&) {
        disconnected = true;
        break;
      }
    }
  }
  EXPECT_TRUE(disconnected);
  slow.close();

  // The daemon survived, still answers, and recorded why it hung up.
  DaemonClient client(server.socket_path());
  const std::string text = client.metrics();
  EXPECT_NE(text.find("elpc_disconnects_total{reason=\"backpressure\"}"),
            std::string::npos);

  client.shutdown_server();
  serve_thread.join();
}

/// With --auth-token set: `stats` serves unauthenticated (liveness
/// probes), every other verb answers code "unauthenticated", a wrong
/// token answers code "auth_failed" (and bumps the counter), and the
/// right token unlocks the connection — per connection, not per client.
TEST(ConnectionMux, AuthGatesVerbsPerConnection) {
  SocketServerOptions options;
  options.auth_token = "s3cret";
  SocketServer server(socket_path("auth"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());
  // stats: exempt, so unauthenticated monitoring keeps working.
  raw.send_line(verb_frame("stats").dump());
  ASSERT_TRUE(raw.recv_line().has_value());

  // Anything else: refused with the stable machine-readable code.
  util::Json poll = verb_frame("poll");
  poll.set("ticket", 1);
  raw.send_line(poll.dump());
  std::optional<std::string> line = raw.recv_line();
  ASSERT_TRUE(line.has_value());
  util::Json refused = util::Json::parse(*line);
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(refused.at("code").as_string(), "unauthenticated");

  // Wrong token: refused, connection stays open (no oracle drip).
  util::Json bad = verb_frame("auth");
  bad.set("token", "guess");
  raw.send_line(bad.dump());
  line = raw.recv_line();
  ASSERT_TRUE(line.has_value());
  refused = util::Json::parse(*line);
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(refused.at("code").as_string(), "auth_failed");

  // Right token on the same connection: unlocked.
  util::Json good = verb_frame("auth");
  good.set("token", "s3cret");
  raw.send_line(good.dump());
  line = raw.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(util::Json::parse(*line).at("ok").as_bool());
  raw.send_line(poll.dump());
  line = raw.recv_line();
  ASSERT_TRUE(line.has_value());
  const util::Json after = util::Json::parse(*line);
  EXPECT_FALSE(after.at("ok").as_bool());  // unknown ticket...
  EXPECT_FALSE(after.contains("code"));    // ...but past the auth gate
  raw.close();

  // The typed client authenticates transparently (and re-auths after
  // reconnects); the failed attempt above is on the books.
  DaemonClientOptions client_options;
  client_options.auth_token = "s3cret";
  DaemonClient client(DaemonEndpoint::unix_path_at(server.socket_path()),
                      client_options);
  const util::Json stats = client.stats();
  EXPECT_TRUE(stats.at("auth_required").as_bool());
  EXPECT_EQ(stats.at("auth_failures").as_int(), 1);

  client.shutdown_server();
  serve_thread.join();
}

/// A single line of 100 000 `[` bytes, sent before `auth` over TCP, used
/// to overflow the parser's stack and kill the daemon.  Nesting is capped
/// now: the frame answers one ok=false line, and the daemon — and that
/// very connection — keep serving.
TEST(ConnectionMux, DeeplyNestedPreAuthFrameAnswersErrorAndDaemonLives) {
  SocketServerOptions options;
  options.tcp = true;
  options.tcp_port = 0;
  options.auth_token = "s3cret";
  SocketServer server(socket_path("deep"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  ASSERT_GT(server.tcp_port(), 0);

  util::StreamSocket raw =
      util::StreamSocket::connect_tcp("127.0.0.1", server.tcp_port());
  raw.send_line(std::string(100000, '['));
  std::optional<std::string> line = raw.recv_line();
  ASSERT_TRUE(line.has_value());
  const util::Json refused = util::Json::parse(*line);
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_NE(refused.at("error").as_string().find("nesting"),
            std::string::npos);

  raw.send_line(verb_frame("stats").dump());
  line = raw.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(util::Json::parse(*line).at("ok").as_bool());
  raw.close();

  DaemonClientOptions client_options;
  client_options.auth_token = "s3cret";
  DaemonClient client(DaemonEndpoint::unix_path_at(server.socket_path()),
                      client_options);
  EXPECT_TRUE(client.stats().at("ok").as_bool());
  client.shutdown_server();
  serve_thread.join();
}

/// Per-connection quotas answer stable codes and release as jobs turn
/// terminal: max_inflight_jobs rejects the N+1th in-flight submit with
/// "quota_jobs", and a fresh submit is admitted again after the backlog
/// completes.
TEST(ConnectionMux, InflightJobQuotaRejectsAndReleases) {
  SocketServerOptions options;
  options.start_paused = true;  // keep submissions in flight
  options.max_inflight_jobs = 2;
  SocketServer server(socket_path("quota"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));
  const Ticket t0 =
      client.submit(make_job("q0", 80, service::Objective::kMinDelay));
  const Ticket t1 =
      client.submit(make_job("q1", 81, service::Objective::kMinDelay));

  util::Json over = verb_frame("submit");
  over.set("job",
           service::to_json(make_job("q2", 82, service::Objective::kMinDelay)));
  const util::Json rejected = client.request(over);
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_EQ(rejected.at("code").as_string(), "quota_jobs");

  client.resume();
  EXPECT_EQ(client.wait(t0).at("state").as_string(), "done");
  EXPECT_EQ(client.wait(t1).at("state").as_string(), "done");
  // Terminal jobs released their quota slots; the same frame passes.
  EXPECT_TRUE(client.request(over).at("ok").as_bool());
  EXPECT_EQ(client.stats().at("quota_rejections").as_int(), 1);

  client.shutdown_server();
  serve_thread.join();
}

/// The byte quota guards daemon memory against one client submitting
/// huge jobs: a submit whose in-flight request bytes would pass the cap
/// answers "quota_bytes".
TEST(ConnectionMux, InflightByteQuotaRejects) {
  SocketServerOptions options;
  options.start_paused = true;
  options.max_inflight_bytes = 64;  // smaller than any submit frame
  SocketServer server(socket_path("quotab"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));
  util::Json frame = verb_frame("submit");
  frame.set("job",
            service::to_json(make_job("b0", 83, service::Objective::kMinDelay)));
  const util::Json rejected = client.request(frame);
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_EQ(rejected.at("code").as_string(), "quota_bytes");

  client.shutdown_server();
  serve_thread.join();
}

/// A completion-driven wait belongs to the waiter's connection, not the
/// submitter's: the submitter hanging up while its job is still queued
/// must not disturb another client's pending wait on that ticket.
TEST(ConnectionMux, WaitAnsweredAfterSubmitterDisconnects) {
  SocketServerOptions options;
  options.start_paused = true;
  SocketServer server(socket_path("orphan"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  Ticket ticket = 0;
  {
    DaemonClient submitter(server.socket_path());
    submitter.register_network("net", make_network(3));
    ticket = submitter.submit(
        make_job("orphaned", 84, service::Objective::kMinDelay));
  }  // submitter's connection closes with the job still queued

  util::Json waited;
  std::thread waiter([&server, ticket, &waited]() {
    DaemonClient blocked(server.socket_path());
    waited = blocked.wait(ticket);
  });
  // Give the wait a moment to register before dispatch opens.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  DaemonClient control(server.socket_path());
  control.resume();
  waiter.join();
  EXPECT_EQ(waited.at("state").as_string(), "done");

  control.shutdown_server();
  serve_thread.join();
}

/// The TCP listener speaks the identical protocol: the same job solved
/// over the Unix socket and over TCP answers byte-identical canonical
/// result JSON.
TEST(ConnectionMux, TcpTransportIsByteIdenticalToUnix) {
  SocketServerOptions options;
  options.tcp = true;
  options.tcp_host = "127.0.0.1";
  options.tcp_port = 0;  // ephemeral; resolved below
  SocketServer server(socket_path("tcp"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  ASSERT_GT(server.tcp_port(), 0);

  DaemonClient unix_client(server.socket_path());
  unix_client.register_network("net", make_network(3));
  const Ticket unix_ticket = unix_client.submit(
      make_job("xport", 85, service::Objective::kMaxFrameRate));
  const util::Json unix_done = unix_client.wait(unix_ticket);
  ASSERT_EQ(unix_done.at("state").as_string(), "done");

  DaemonClient tcp_client(
      DaemonEndpoint::tcp_at("127.0.0.1", server.tcp_port()));
  const Ticket tcp_ticket = tcp_client.submit(
      make_job("xport", 85, service::Objective::kMaxFrameRate));
  const util::Json tcp_done = tcp_client.wait(tcp_ticket);
  ASSERT_EQ(tcp_done.at("state").as_string(), "done");

  EXPECT_EQ(unix_done.at("result").dump(), tcp_done.at("result").dump());
  EXPECT_GE(tcp_client.stats().at("connections_tcp").as_int(), 1);

  tcp_client.shutdown_server();
  serve_thread.join();
}

/// The value of one sample line of a metrics exposition ("" when the
/// series is absent).
std::string sample_of(const std::string& exposition,
                      const std::string& series) {
  const std::size_t at = exposition.find("\n" + series + " ");
  if (at == std::string::npos) {
    return "";
  }
  const std::size_t begin = at + series.size() + 2;
  return exposition.substr(begin, exposition.find('\n', begin) - begin);
}

/// Connections are counted per transport exactly: two Unix clients and
/// one TCP client beside the observing Unix client show in every stats
/// key and metric series that splits by transport, and once they close
/// the live counts fall back while the accepted totals keep them.
TEST(ConnectionMux, PerTransportAccountingIsExact) {
  SocketServerOptions options;
  options.tcp = true;
  options.tcp_host = "127.0.0.1";
  options.tcp_port = 0;
  SocketServer server(socket_path("acct"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  ASSERT_GT(server.tcp_port(), 0);

  DaemonClient observer(server.socket_path());
  // Polls stats until `connections` reads `live` (accepts and closes
  // are asynchronous), then returns that stats frame.
  const auto stats_at = [&observer](std::int64_t live) {
    util::Json stats = observer.stats();
    for (int i = 0; i < 500 && stats.at("connections").as_int() != live;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      stats = observer.stats();
    }
    return stats;
  };
  const util::Json before = stats_at(1);
  EXPECT_EQ(before.at("connections_unix").as_int(), 1);
  EXPECT_EQ(before.at("connections_tcp").as_int(), 0);
  EXPECT_EQ(before.at("connections_accepted").as_int(), 1);

  std::vector<util::StreamSocket> clients;
  clients.push_back(util::StreamSocket::connect(server.socket_path()));
  clients.push_back(util::StreamSocket::connect(server.socket_path()));
  clients.push_back(
      util::StreamSocket::connect_tcp("127.0.0.1", server.tcp_port()));
  const util::Json open = stats_at(4);
  EXPECT_EQ(open.at("connections").as_int(), 4);
  EXPECT_EQ(open.at("connections_unix").as_int(), 3);
  EXPECT_EQ(open.at("connections_tcp").as_int(), 1);
  EXPECT_EQ(open.at("connections_accepted").as_int(), 4);
  std::string text = observer.metrics();
  EXPECT_EQ(sample_of(text, "elpc_connections{transport=\"unix\"}"), "3");
  EXPECT_EQ(sample_of(text, "elpc_connections{transport=\"tcp\"}"), "1");
  EXPECT_EQ(
      sample_of(text, "elpc_connections_accepted_total{transport=\"unix\"}"),
      "3");
  EXPECT_EQ(
      sample_of(text, "elpc_connections_accepted_total{transport=\"tcp\"}"),
      "1");

  clients.clear();
  const util::Json closed = stats_at(1);
  EXPECT_EQ(closed.at("connections").as_int(), 1);
  EXPECT_EQ(closed.at("connections_unix").as_int(), 1);
  EXPECT_EQ(closed.at("connections_tcp").as_int(), 0);
  EXPECT_EQ(closed.at("connections_accepted").as_int(), 4);
  text = observer.metrics();
  EXPECT_EQ(sample_of(text, "elpc_connections{transport=\"unix\"}"), "1");
  EXPECT_EQ(sample_of(text, "elpc_connections{transport=\"tcp\"}"), "0");
  EXPECT_EQ(
      sample_of(text, "elpc_connections_accepted_total{transport=\"unix\"}"),
      "3");
  EXPECT_EQ(
      sample_of(text, "elpc_connections_accepted_total{transport=\"tcp\"}"),
      "1");
  EXPECT_EQ(sample_of(text, "elpc_disconnects_total{reason=\"eof\"}"), "3");

  observer.shutdown_server();
  serve_thread.join();
}

/// The reason the multiplexer exists: connections must cost buffers,
/// not threads.  Holding N idle connections leaves the process thread
/// count exactly where it was, while the stats gauge reports them.
TEST(ConnectionMux, IdleConnectionsCostNoThreads) {
  SocketServer server(socket_path("idle"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  const std::int64_t threads_before =
      client.stats().at("threads_os").as_int();

  std::vector<util::StreamSocket> fleet;
  fleet.reserve(50);
  for (int i = 0; i < 50; ++i) {
    fleet.push_back(util::StreamSocket::connect(server.socket_path()));
  }
  // Accepts are asynchronous; poll the gauge until the fleet is seen.
  std::int64_t live = 0;
  for (int i = 0; i < 100; ++i) {
    live = client.stats().at("connections").as_int();
    if (live >= 51) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(live, 51) << "gauge lost idle connections";
  EXPECT_EQ(client.stats().at("threads_os").as_int(), threads_before);
  fleet.clear();

  client.shutdown_server();
  serve_thread.join();
}

/// Reads one v2 response: the JSON control line plus, when it carries a
/// "payload" marker, the adjacent binary frame (header + payload).
struct FramedResponse {
  util::Json control;
  std::string frame;  // raw header+payload bytes, "" when none
};

FramedResponse recv_framed(util::StreamSocket& socket) {
  const std::optional<std::string> line = socket.recv_line();
  EXPECT_TRUE(line.has_value());
  FramedResponse response{util::Json::parse(line.value()), ""};
  const util::Json* marker = response.control.find("payload");
  if (marker != nullptr && marker->is_string()) {
    const std::string header = socket.recv_bytes(wire::kHeaderBytes);
    const std::optional<wire::FrameHeader> parsed = wire::parse_header(header);
    EXPECT_TRUE(parsed.has_value());
    response.frame = header + socket.recv_bytes(parsed->length);
  }
  return response;
}

/// A binary link-update frame arriving in byte dribbles must reassemble
/// into exactly the answer a whole-frame send gets — and two frames
/// pipelined in ONE write must answer twice, in order, each with its
/// own result-table frame.
TEST(ConnectionMux, BinaryFramesReassembleTornAndPipelined) {
  SocketServer server(socket_path("binary"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());
  util::Json hello = verb_frame("hello");
  hello.set("min_version", 1);
  hello.set("max_version", 2);
  raw.send_line(hello.dump());
  EXPECT_EQ(util::Json::parse(raw.recv_line().value()).at("version").as_int(),
            2);
  util::Json reg = verb_frame("register_network");
  reg.set("id", "net");
  reg.set("network", graph::to_json(make_network(3)));
  raw.send_line(reg.dump());
  ASSERT_TRUE(util::Json::parse(raw.recv_line().value()).at("ok").as_bool());

  const std::string table = wire::encode_link_update_table("net", {});
  const std::string frame =
      wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                          static_cast<std::uint32_t>(table.size())) +
      table;

  // Torn: a few bytes per send, each likely its own epoll wakeup.
  for (std::size_t i = 0; i < frame.size(); i += 3) {
    send_raw(raw, frame.substr(i, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const FramedResponse torn = recv_framed(raw);
  EXPECT_TRUE(torn.control.at("ok").as_bool());
  EXPECT_EQ(torn.control.at("payload").as_string(), "results");
  ASSERT_FALSE(torn.frame.empty());

  // Pipelined: two frames in one write answer twice, byte-identically.
  send_raw(raw, frame + frame);
  const FramedResponse first = recv_framed(raw);
  const FramedResponse second = recv_framed(raw);
  EXPECT_EQ(first.control.dump(), torn.control.dump());
  EXPECT_EQ(second.control.dump(), torn.control.dump());
  EXPECT_EQ(first.frame, torn.frame);
  EXPECT_EQ(second.frame, torn.frame);
  raw.close();

  DaemonClient client(server.socket_path());
  client.shutdown_server();
  serve_thread.join();
}

/// Framing violations that cannot re-sync — a bad second magic byte, a
/// declared payload length beyond the line cap — answer one
/// code="protocol" error frame and close that connection; the daemon
/// keeps serving everyone else.
TEST(ConnectionMux, MalformedBinaryFramesAnswerProtocolErrorAndClose) {
  SocketServer server(socket_path("badframe"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  const std::string bad_frames[] = {
      std::string("\xE1\x00\x01\x00\x00\x00\x00\x00", 8),  // wrong magic1
      std::string("\xE1\x5C\x02\x00\xFF\xFF\xFF\xFF", 8),  // 4GiB declared
  };
  for (const std::string& bytes : bad_frames) {
    util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());
    send_raw(raw, bytes);
    const std::optional<std::string> line = raw.recv_line();
    ASSERT_TRUE(line.has_value());
    const util::Json error = util::Json::parse(*line);
    EXPECT_FALSE(error.at("ok").as_bool());
    EXPECT_EQ(error.at("code").as_string(), "protocol");
    // Then EOF: the violating connection is closed, not re-synced.
    EXPECT_FALSE(raw.recv_line().has_value());
  }

  // A well-formed binary frame on a connection that never negotiated v2
  // answers code "protocol" but stays OPEN — the stream is still in
  // sync, only the request was out of order.
  util::StreamSocket early = util::StreamSocket::connect(server.socket_path());
  const std::string table = wire::encode_link_update_table("net", {});
  send_raw(early,
           wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                               static_cast<std::uint32_t>(table.size())) +
               table);
  const std::optional<std::string> refused = early.recv_line();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(util::Json::parse(*refused).at("code").as_string(), "protocol");
  early.send_line(verb_frame("stats").dump());
  EXPECT_TRUE(util::Json::parse(early.recv_line().value()).at("ok").as_bool());
  early.close();

  DaemonClient client(server.socket_path());
  client.shutdown_server();
  serve_thread.join();
}

/// "<bytes>:<hash>" — enough to tell an intact frame from a torn,
/// doubled or shifted one without echoing megabytes back.
std::string describe(std::string_view bytes) {
  return std::to_string(bytes.size()) + ":" +
         std::to_string(std::hash<std::string_view>{}(bytes));
}

/// A bare mux on one IO worker whose handlers answer each text frame
/// with describe(line) and the read buffer's capacity at that moment,
/// and each binary frame with "bin " + describe(payload): what the
/// scan-cursor and buffer tests observe, with no verb layer in between.
class EchoMux {
 public:
  explicit EchoMux(const std::string& tag)
      : listener_(util::Listener::unix_at(socket_path(tag))) {
    MuxOptions options;
    options.io_workers = 1;
    MuxCallbacks callbacks;
    callbacks.on_frame = [](const std::shared_ptr<MuxConnection>& conn,
                            std::string_view line) {
      conn->send_line(describe(line) + " " +
                      std::to_string(conn->read_capacity()));
    };
    callbacks.on_binary_frame = [](const std::shared_ptr<MuxConnection>& conn,
                                   const wire::FrameHeader&,
                                   std::string_view payload) {
      conn->send_line("bin " + describe(payload));
    };
    mux_ = std::make_unique<ConnectionMux>(options, std::move(callbacks));
    mux_->add_listener(listener_.get());
    mux_->start();
  }

  [[nodiscard]] util::StreamSocket connect() {
    util::StreamSocket socket =
        util::StreamSocket::connect(listener_->path());
    socket.set_recv_timeout(10000);
    return socket;
  }

 private:
  std::unique_ptr<util::Listener> listener_;
  std::unique_ptr<ConnectionMux> mux_;  // stops before the listener dies
};

/// The answer's describe() part and its capacity figure.
std::pair<std::string, std::size_t> echo_of(util::StreamSocket& socket) {
  const std::string line = socket.recv_line().value();
  const std::size_t space = line.rfind(' ');
  return {line.substr(0, space), std::stoull(line.substr(space + 1))};
}

/// A line written in many small pieces, its '\n' in the last one, is
/// handled exactly once and intact, however many wakes it spans.
TEST(ConnectionMux, LineInManySmallWritesIsHandledOnceAndIntact) {
  EchoMux mux("cursor_dribble");
  util::StreamSocket raw = mux.connect();
  std::string line(300u << 10, 'x');
  for (std::size_t i = 0; i < line.size(); ++i) {
    line[i] = static_cast<char>('a' + i % 26);
  }
  const std::size_t piece = 4u << 10;
  for (std::size_t at = 0; at < line.size(); at += piece) {
    send_raw(raw, line.substr(at, piece));
    if (at % (8 * piece) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  send_raw(raw, "\n");
  EXPECT_EQ(echo_of(raw).first, describe(line));
  // Nothing else was handled: the next answer is the next line's.
  send_raw(raw, "ping\n");
  EXPECT_EQ(echo_of(raw).first, describe("ping"));
}

/// A second line pipelined behind a torn first one (the first's end and
/// all of the second in one write) is handled, in order.
TEST(ConnectionMux, LinePipelinedBehindATornLineIsHandled) {
  EchoMux mux("cursor_pipelined");
  util::StreamSocket raw = mux.connect();
  const std::string head(40u << 10, 'h');
  send_raw(raw, head);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  send_raw(raw, "tail\nsecond\n");
  EXPECT_EQ(echo_of(raw).first, describe(head + "tail"));
  EXPECT_EQ(echo_of(raw).first, describe("second"));
}

/// A text line and a binary frame in the same buffer are both handled:
/// the line's scan stops at its '\n', and the frame after it is framed
/// by its header, whether the line arrived whole or torn.
TEST(ConnectionMux, TextLineThenBinaryFrameInOneBuffer) {
  EchoMux mux("cursor_binary");
  util::StreamSocket raw = mux.connect();
  const std::string payload = "binary\npayload";
  const std::string frame =
      wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                          static_cast<std::uint32_t>(payload.size())) +
      payload;
  send_raw(raw, "line\n" + frame);
  EXPECT_EQ(echo_of(raw).first, describe("line"));
  EXPECT_EQ(raw.recv_line().value(), "bin " + describe(payload));

  send_raw(raw, "torn ");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  send_raw(raw, "line\n" + frame + "after\n");
  EXPECT_EQ(echo_of(raw).first, describe("torn line"));
  EXPECT_EQ(raw.recv_line().value(), "bin " + describe(payload));
  EXPECT_EQ(echo_of(raw).first, describe("after"));
}

/// Past a large frame the read buffer is cut back: the connection's
/// next frame sees a capacity under kReadBufferKeepBytes, not the large
/// frame's peak.
TEST(ConnectionMux, ReadBufferIsCutBackAfterALargeFrame) {
  EchoMux mux("cursor_release");
  util::StreamSocket raw = mux.connect();
  const std::string large(4u << 20, 'L');
  send_raw(raw, large + "\n");
  const auto [large_echo, large_capacity] = echo_of(raw);
  EXPECT_EQ(large_echo, describe(large));
  EXPECT_GT(large_capacity, kReadBufferKeepBytes);

  send_raw(raw, "small\n");
  const auto [small_echo, small_capacity] = echo_of(raw);
  EXPECT_EQ(small_echo, describe("small"));
  EXPECT_LE(small_capacity, kReadBufferKeepBytes);
}

/// An unterminated line past the cap is still refused with
/// code "protocol" when its scan cursor has already moved through the
/// first part of it on earlier wakes.
TEST(ConnectionMux, OverCapLineIsRefusedAfterTheCursorMoved) {
  SocketServer server(socket_path("cursor_cap"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());
  raw.set_recv_timeout(10000);
  const std::size_t cap = util::StreamSocket::kDefaultMaxLineBytes;
  send_raw(raw, std::string(1u << 20, 'x'));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  send_raw(raw, std::string(cap - (1u << 20) + 1, 'x'));
  const std::optional<std::string> line = raw.recv_line();
  ASSERT_TRUE(line.has_value());
  const util::Json error = util::Json::parse(*line);
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("code").as_string(), "protocol");
  EXPECT_FALSE(raw.recv_line().has_value());
  raw.close();

  DaemonClient client(server.socket_path());
  client.shutdown_server();
  serve_thread.join();
}

}  // namespace
}  // namespace elpc::daemon
