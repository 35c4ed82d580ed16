#include "daemon/socket_server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/client.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "pipeline/generator.hpp"
#include "service/serialize.hpp"
#include "util/metrics.hpp"
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

/// First out-edge of node 0 in the deterministic test network `seed` —
/// for building link deltas without re-deriving the topology.
graph::Edge first_edge(std::uint64_t seed) {
  graph::Network net = make_network(seed);
  return net.out_edges(0).front();
}

/// A unique socket path per test (paths must fit sun_path and not
/// collide across parallel test shards).
std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "/elpc_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// The acceptance-criteria flow, end to end over a real socket:
/// register → submit with mixed priorities → poll/wait to completion →
/// cancel a queued job → apply_link_updates re-solving a subscription →
/// stats → shutdown; results bit-identical to direct BatchEngine::solve.
TEST(SocketServer, EndToEndFlowMatchesDirectEngine) {
  SocketServerOptions options;
  options.threads = 1;          // one engine worker: strict priority order
  options.start_paused = true;  // queue everything before dispatching
  SocketServer server(socket_path("e2e"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));

  std::vector<service::SolveJob> jobs;
  jobs.push_back(make_job("delay0", 50, service::Objective::kMinDelay));
  jobs.push_back(make_job("fps0", 51, service::Objective::kMaxFrameRate));
  jobs.push_back(make_job("delay1", 52, service::Objective::kMinDelay));
  jobs[1].resolve_on_update = true;  // the subscription

  const Ticket t0 = client.submit(jobs[0], /*priority=*/1);
  const Ticket t1 = client.submit(jobs[1], /*priority=*/3);
  const Ticket t2 = client.submit(jobs[2], /*priority=*/2);
  // A fourth job is cancelled while still queued: it must never run.
  const Ticket doomed = client.submit(
      make_job("doomed", 53, service::Objective::kMinDelay), /*priority=*/0);
  EXPECT_TRUE(client.cancel(doomed));
  EXPECT_EQ(client.poll(doomed).at("state").as_string(), "cancelled");

  // Everything still queued; poll reports that before dispatch opens.
  EXPECT_EQ(client.poll(t0).at("state").as_string(), "queued");
  client.resume();

  const util::Json done0 = client.wait(t0);
  const util::Json done1 = client.wait(t1);
  const util::Json done2 = client.wait(t2);
  EXPECT_EQ(done0.at("state").as_string(), "done");
  EXPECT_EQ(done1.at("state").as_string(), "done");
  EXPECT_EQ(done2.at("state").as_string(), "done");

  // Reference: the same jobs through a direct, in-process engine.
  service::BatchEngine direct;
  direct.register_network("net", make_network(3));
  const std::vector<service::SolveResult> expected = direct.solve(jobs);
  const std::vector<const util::Json*> answers = {&done0, &done1, &done2};
  for (std::size_t i = 0; i < answers.size(); ++i) {
    // Canonical entry JSON is the bit-identity pin: same seconds, same
    // mapping, same revision, byte-for-byte.
    EXPECT_EQ(answers[i]->at("result").dump(),
              service::result_entry_to_json(expected[i]).dump())
        << jobs[i].id;
  }

  // Deltas re-solve the subscription ("fps0") against revision 1, both
  // via the daemon and directly; answers must again match bitwise.
  std::vector<graph::LinkUpdate> updates;
  {
    const service::NetworkSnapshot snap = direct.session("net").snapshot();
    for (graph::NodeId v = 0; v < snap->node_count(); ++v) {
      for (const graph::Edge& e : snap->out_edges(v)) {
        updates.push_back(graph::LinkUpdate{
            e.from, e.to,
            graph::LinkAttr{e.attr.bandwidth_mbps * 0.5,
                            e.attr.min_delay_s}});
      }
    }
  }
  const std::vector<util::Json> resolved =
      client.apply_link_updates("net", updates);
  const std::vector<service::SolveResult> resolved_direct =
      direct.apply_link_updates("net", updates);
  ASSERT_EQ(resolved.size(), 1u);
  ASSERT_EQ(resolved_direct.size(), 1u);
  EXPECT_EQ(resolved[0].at("job").as_string(), "fps0");
  EXPECT_EQ(resolved[0].at("revision").as_int(), 1);
  EXPECT_EQ(resolved[0].dump(),
            service::result_entry_to_json(resolved_direct[0]).dump());

  const util::Json stats = client.stats();
  EXPECT_EQ(stats.at("done").as_int(), 3);
  EXPECT_EQ(stats.at("cancelled").as_int(), 1);
  EXPECT_EQ(stats.at("queued").as_int(), 0);
  EXPECT_EQ(stats.at("sessions").as_int(), 1);
  EXPECT_EQ(stats.at("subscriptions").as_int(), 1);

  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, BadRequestsAnswerErrorsWithoutKillingTheDaemon) {
  SocketServer server(socket_path("err"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  // Unknown ticket: an error response, not a crash.
  util::Json poll_unknown = util::JsonObject{};
  poll_unknown.set("verb", "poll");
  poll_unknown.set("ticket", 12345);
  const util::Json response = client.request(poll_unknown);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("ticket"),
            std::string::npos);

  // A ticket past int64's range answers an error instead of reaching
  // an undefined double-to-int cast (before auth is even relevant).
  util::Json poll_huge = util::JsonObject{};
  poll_huge.set("verb", "poll");
  poll_huge.set("ticket", 1e300);
  EXPECT_FALSE(client.request(poll_huge).at("ok").as_bool());

  // Unknown verb and missing fields answer errors too.
  util::Json bad_verb = util::JsonObject{};
  bad_verb.set("verb", "frobnicate");
  EXPECT_FALSE(client.request(bad_verb).at("ok").as_bool());
  util::Json no_verb = util::JsonObject{};
  EXPECT_FALSE(client.request(no_verb).at("ok").as_bool());

  // Unknown session for updates: error, daemon lives.
  util::Json bad_update = util::JsonObject{};
  bad_update.set("verb", "apply_link_updates");
  bad_update.set("network", "nope");
  bad_update.set("updates", util::Json(util::JsonArray{}));
  EXPECT_FALSE(client.request(bad_update).at("ok").as_bool());

  // A priority outside int answers an error instead of wrapping
  // (2^32 + 1 would otherwise narrow to priority 1).
  client.register_network("net", make_network(3));
  util::Json wide_priority = util::JsonObject{};
  wide_priority.set("verb", "submit");
  wide_priority.set("job", service::to_json(make_job(
                               "wide", 59, service::Objective::kMinDelay)));
  wide_priority.set("priority", std::int64_t{4294967297});
  const util::Json narrowed = client.request(wide_priority);
  EXPECT_FALSE(narrowed.at("ok").as_bool());
  EXPECT_NE(narrowed.at("error").as_string().find("priority"),
            std::string::npos);

  // The daemon still answers real work after all of the above.
  const Ticket ticket =
      client.submit(make_job("ok", 60, service::Objective::kMinDelay));
  EXPECT_EQ(client.wait(ticket).at("state").as_string(), "done");

  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, BlockedWaitDoesNotStallOtherClients) {
  SocketServerOptions options;
  options.start_paused = true;  // the waited-on job cannot finish yet
  SocketServer server(socket_path("wait"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient submitter(server.socket_path());
  submitter.register_network("net", make_network(3));
  const Ticket ticket = submitter.submit(
      make_job("slow", 70, service::Objective::kMinDelay));

  // Client A blocks in the wait verb on its own connection...
  util::Json waited;
  std::thread waiter([&server, ticket, &waited]() {
    DaemonClient blocked(server.socket_path());
    waited = blocked.wait(ticket);
  });
  // ...while client B's resume must still get through — with a serial
  // front end this would deadlock the daemon permanently.
  DaemonClient other(server.socket_path());
  other.resume();
  waiter.join();
  EXPECT_EQ(waited.at("state").as_string(), "done");

  other.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, RefusesSocketPathOfALiveDaemon) {
  const std::string path = socket_path("dup");
  SocketServer first(path, SocketServerOptions{});
  // A second daemon on the same path must fail loudly, not silently
  // unlink the live endpoint.
  EXPECT_THROW(SocketServer second(path, SocketServerOptions{}),
               util::SocketError);
  // The first daemon's endpoint survived the attempt.
  std::thread serve_thread([&first]() { first.serve(); });
  DaemonClient client(path);
  EXPECT_TRUE(client.stats().at("ok").as_bool());
  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, DeltaStreamKeepsCachedBytesBounded) {
  SocketServer server(socket_path("evict"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  client.register_network("net", make_network(3));
  service::SolveJob sub = make_job("sub", 61,
                                   service::Objective::kMaxFrameRate);
  sub.resolve_on_update = true;
  (void)client.wait(client.submit(sub));

  const graph::Edge e = first_edge(3);
  std::vector<graph::LinkUpdate> delta = {
      graph::LinkUpdate{e.from, e.to, e.attr}};
  for (int i = 1; i <= 50; ++i) {
    delta[0].attr.bandwidth_mbps = static_cast<double>(i);
    const std::vector<util::Json> resolved =
        client.apply_link_updates("net", delta);
    ASSERT_EQ(resolved.size(), 1u);  // the subscription re-solved each time
  }

  const util::Json stats = client.stats();
  // Bounded: 50 deltas published 50 revisions, and once the re-solves
  // returned the session holds the current one only — none pinned, and
  // no more network bytes than one 10-node revision.
  EXPECT_EQ(stats.at("pinned_revisions").as_int(), 0);
  EXPECT_GT(stats.at("cached_bytes").as_int(), 0);
  graph::Network one_revision = make_network(3);
  one_revision.finalize();
  EXPECT_LE(stats.at("cached_bytes").as_int(),
            static_cast<std::int64_t>(one_revision.approx_bytes()));
  EXPECT_EQ(stats.at("subscriptions").as_int(), 1);
  // Non-incremental daemon: the counters exist and stay zero.
  EXPECT_EQ(stats.at("incremental_hits").as_int(), 0);
  EXPECT_EQ(stats.at("checkpoints").as_int(), 0);

  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, IncrementalDaemonReportsReuseAndPinDiagnostics) {
  SocketServerOptions options;
  options.incremental = true;
  SocketServer server(socket_path("incremental"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  client.register_network("net", make_network(5));
  service::SolveJob sub =
      make_job("sub", 71, service::Objective::kMaxFrameRate);
  sub.resolve_on_update = true;
  (void)client.wait(client.submit(sub));

  const graph::Edge e = first_edge(5);
  std::vector<graph::LinkUpdate> delta = {
      graph::LinkUpdate{e.from, e.to, e.attr}};
  for (int i = 1; i <= 3; ++i) {
    delta[0].attr.bandwidth_mbps = 100.0 + i;
    ASSERT_EQ(client.apply_link_updates("net", delta).size(), 1u);
  }

  const util::Json stats = client.stats();
  // Capture on the first solve (one miss), column reuse on every delta.
  EXPECT_EQ(stats.at("incremental_misses").as_int(), 1);
  EXPECT_EQ(stats.at("incremental_hits").as_int(), 3);
  EXPECT_GT(stats.at("incremental_columns_reused").as_int(), 0);
  EXPECT_EQ(stats.at("checkpoints").as_int(), 1);
  EXPECT_GT(stats.at("checkpoint_bytes").as_int(), 0);
  // Steady state: the only pin is the subscription's CURRENT revision,
  // which is not superseded — so no pinned superseded revisions.
  EXPECT_EQ(stats.at("pinned_revisions").as_int(), 0);
  EXPECT_EQ(stats.at("pinned_bytes").as_int(), 0);

  client.shutdown_server();
  serve_thread.join();
}

/// Version negotiation end to end: kAuto negotiates the server's best
/// (v2), kV1 never sends hello, and a v1-pinned and a v2 client — live
/// CONCURRENTLY — observe byte-identical results for the same job while
/// the per-version stats gauges count one connection each.
TEST(SocketServer, HelloNegotiatesAndMixedVersionsAnswerIdentically) {
  SocketServer server(socket_path("hello"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClientOptions v1_options;
  v1_options.protocol = ProtocolPreference::kV1;
  DaemonClient v1_client(server.socket_path(), v1_options);
  DaemonClientOptions v2_options;
  v2_options.protocol = ProtocolPreference::kV2;
  DaemonClient v2_client(server.socket_path(), v2_options);
  DaemonClient auto_client(server.socket_path());  // kAuto default

  EXPECT_EQ(v1_client.protocol_version(), 1);
  EXPECT_EQ(v2_client.protocol_version(), 2);
  EXPECT_EQ(auto_client.protocol_version(), 2);
  EXPECT_EQ(v2_client.hello_info().server_min, wire::kProtocolVersionMin);
  EXPECT_EQ(v2_client.hello_info().server_max, wire::kProtocolVersionMax);

  const StatsView live = v1_client.stats_view();
  EXPECT_GE(live.connections_v1, 1);
  EXPECT_GE(live.connections_v2, 2);
  EXPECT_EQ(live.connections_v1 + live.connections_v2, live.connections);

  // Same job through both protocols: the v2 result crosses as a binary
  // table and must reinflate to the exact v1 bytes.
  v1_client.register_network("net", make_network(3));
  const Ticket v1_ticket = v1_client.submit(
      make_job("mixed", 85, service::Objective::kMaxFrameRate));
  const Ticket v2_ticket = v2_client.submit(
      make_job("mixed", 85, service::Objective::kMaxFrameRate));
  const util::Json v1_done = v1_client.wait(v1_ticket);
  const util::Json v2_done = v2_client.wait(v2_ticket);
  ASSERT_EQ(v1_done.at("state").as_string(), "done");
  ASSERT_EQ(v2_done.at("state").as_string(), "done");
  EXPECT_EQ(v1_done.at("result").dump(), v2_done.at("result").dump());

  // Typed status views decode the same bytes on either protocol.
  const JobStatusView v1_view = v1_client.poll_status(v1_ticket);
  const JobStatusView v2_view = v2_client.poll_status(v2_ticket);
  ASSERT_TRUE(v1_view.terminal());
  ASSERT_TRUE(v2_view.terminal());
  EXPECT_EQ(service::result_entry_to_json(*v1_view.result).dump(),
            service::result_entry_to_json(*v2_view.result).dump());

  // The typed bulk path answers the same entries as the raw JSON verb.
  const graph::Edge edge = first_edge(3);
  std::vector<graph::LinkUpdate> updates = {{edge.from, edge.to, edge.attr}};
  const std::vector<util::Json> raw_entries =
      v1_client.apply_link_updates("net", updates);
  const std::vector<service::SolveResult> typed_entries =
      v2_client.resolve_link_updates("net", updates);
  ASSERT_EQ(raw_entries.size(), typed_entries.size());
  for (std::size_t i = 0; i < raw_entries.size(); ++i) {
    EXPECT_EQ(raw_entries[i].dump(),
              service::result_entry_to_json(typed_entries[i]).dump());
  }

  v1_client.shutdown_server();
  serve_thread.join();
}

/// Hello edge cases through the direct handle() path: defaults (1..1),
/// a disjoint range (code version_mismatch), and min > max (code
/// protocol) — plus the stats frame advertising the server's range.
TEST(SocketServer, HelloEdgeCasesAnswerStableCodes) {
  SocketServer server(socket_path("helloedge"), SocketServerOptions{});

  util::Json plain = util::JsonObject{};
  plain.set("verb", "hello");
  const util::Json defaulted = server.handle(plain);
  EXPECT_TRUE(defaulted.at("ok").as_bool());
  EXPECT_EQ(defaulted.at("version").as_int(), 1);

  util::Json disjoint = util::JsonObject{};
  disjoint.set("verb", "hello");
  disjoint.set("min_version", 3);
  disjoint.set("max_version", 9);
  const util::Json mismatch = server.handle(disjoint);
  EXPECT_FALSE(mismatch.at("ok").as_bool());
  EXPECT_EQ(mismatch.at("code").as_string(), "version_mismatch");
  EXPECT_EQ(mismatch.at("min_version").as_int(), wire::kProtocolVersionMin);
  EXPECT_EQ(mismatch.at("max_version").as_int(), wire::kProtocolVersionMax);

  util::Json inverted = util::JsonObject{};
  inverted.set("verb", "hello");
  inverted.set("min_version", 2);
  inverted.set("max_version", 1);
  const util::Json malformed = server.handle(inverted);
  EXPECT_FALSE(malformed.at("ok").as_bool());
  EXPECT_EQ(malformed.at("code").as_string(), "protocol");

  util::Json stats_frame = util::JsonObject{};
  stats_frame.set("verb", "stats");
  const util::Json stats = server.handle(stats_frame);
  EXPECT_EQ(stats.at("protocol_min").as_int(), wire::kProtocolVersionMin);
  EXPECT_EQ(stats.at("protocol_max").as_int(), wire::kProtocolVersionMax);
}

/// Re-registering an id with the same network answers ok and changes
/// nothing; a different network under that id answers code "conflict"
/// and the first registration stays in force.
TEST(SocketServer, ReRegistrationIsANoOpAndDifferentContentConflicts) {
  SocketServer server(socket_path("rereg"), SocketServerOptions{});
  const auto registration = [](std::uint64_t seed) {
    util::Json frame = util::JsonObject{};
    frame.set("verb", "register_network");
    frame.set("id", "net");
    frame.set("network", graph::to_json(make_network(seed)));
    return frame;
  };
  EXPECT_TRUE(server.handle(registration(3)).at("ok").as_bool());
  EXPECT_TRUE(server.handle(registration(3)).at("ok").as_bool());
  const util::Json conflict = server.handle(registration(5));
  EXPECT_FALSE(conflict.at("ok").as_bool());
  EXPECT_EQ(conflict.at("code").as_string(), "conflict");
  EXPECT_NE(conflict.at("error").as_string().find("different content"),
            std::string::npos);
  EXPECT_TRUE(server.handle(registration(3)).at("ok").as_bool());
}

/// Sends `request` on a raw v1 connection and returns the one line it
/// answers.
std::string framed_line(util::StreamSocket& raw, const util::Json& request) {
  raw.send_line(request.dump());
  const std::optional<std::string> line = raw.recv_line();
  EXPECT_TRUE(line.has_value()) << request.dump();
  return line.value_or("");
}

util::Json frame_of(const std::string& verb,
                    std::initializer_list<std::pair<std::string, util::Json>>
                        fields = {}) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", verb);
  for (const auto& [key, value] : fields) {
    frame.set(key, value);
  }
  return frame;
}

/// `json` with the top-level `keys` removed (fields that legitimately
/// differ between two runs of one request: tickets, clocks).
util::Json without(const util::Json& json, std::vector<std::string> keys) {
  util::JsonObject object = json.as_object();
  for (const std::string& key : keys) {
    object.erase(key);
  }
  return util::Json(std::move(object));
}

/// The direct handle() path is an adapter over the socket path's verb
/// table: for every synchronous verb, the frame handle() returns is the
/// line a v1 connection receives for the same request — answers, errors
/// and trace-id echoes alike.
TEST(SocketServer, DirectHandleMatchesTheFramedV1Line) {
  SocketServerOptions options;
  options.auth_token = "tok";
  options.start_paused = true;
  SocketServer server(socket_path("parity"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  util::StreamSocket raw = util::StreamSocket::connect(server.socket_path());

  const auto same = [&](const util::Json& request) {
    const std::string framed = framed_line(raw, request);
    EXPECT_EQ(server.handle(request).dump(), framed) << request.dump();
  };
  same(frame_of("auth", {{"token", "tok"}}));  // unlocks the raw connection
  same(frame_of("auth", {{"token", "bad"}, {"trace_id", "t-auth"}}));
  same(frame_of("hello"));
  same(frame_of("hello", {{"min_version", 3}, {"max_version", 9}}));
  same(frame_of("hello", {{"min_version", 2}, {"max_version", 1}}));
  same(frame_of("frobnicate", {{"trace_id", "t-unknown"}}));
  same(util::Json(util::JsonObject{}));  // no verb at all

  // register_network is stateful: each path registers its own id, then
  // both answer the same re-registration (a no-op) and the same
  // conflicting one.
  const auto registration = [](const std::string& id, std::uint64_t seed) {
    return frame_of("register_network",
                    {{"id", id},
                     {"network", graph::to_json(make_network(seed))}});
  };
  EXPECT_EQ(server.handle(registration("direct", 3)).dump(),
            framed_line(raw, registration("net", 3)));
  same(registration("net", 3));
  same(registration("net", 5));
  same(frame_of("register_network", {{"id", "broken"}}));
  const util::Json job =
      service::to_json(make_job("parity", 90, service::Objective::kMinDelay));
  // Tickets differ between the two submits; everything else matches.
  const util::Json submit =
      frame_of("submit", {{"job", job}, {"trace_id", "t-s"}});
  const util::Json framed_submit = util::Json::parse(framed_line(raw, submit));
  const util::Json direct_submit = server.handle(submit);
  EXPECT_EQ(without(direct_submit, {"ticket"}).dump(),
            without(framed_submit, {"ticket"}).dump());
  const std::int64_t ticket = framed_submit.at("ticket").as_int();
  same(frame_of("submit", {{"job", job}, {"priority", 1e12}}));
  same(frame_of("poll", {{"ticket", ticket}}));  // queued: no result yet
  same(frame_of("resume"));
  // Both jobs terminal before any counter-bearing frame is compared.
  (void)server.manager().wait(static_cast<Ticket>(ticket));
  (void)server.manager().wait(
      static_cast<Ticket>(direct_submit.at("ticket").as_int()));
  same(frame_of("poll", {{"ticket", ticket}, {"trace_id", "t-poll"}}));
  same(frame_of("poll", {{"ticket", 999}}));
  same(frame_of("cancel", {{"ticket", ticket}}));
  const util::Json no_updates = util::Json(util::JsonArray{});
  same(frame_of("apply_link_updates",
                {{"network", "net"}, {"updates", no_updates}}));
  same(frame_of("apply_link_updates",
                {{"network", "nope"}, {"updates", no_updates}}));
  same(frame_of("pause"));
  same(frame_of("resume"));
  same(frame_of("slowlog", {{"state", "done"}}));
  // Clock-, thread- and ring-dependent payloads: the same key sets.
  for (const char* verb : {"stats", "metrics", "trace"}) {
    const util::Json framed =
        util::Json::parse(framed_line(raw, frame_of(verb)));
    const util::Json direct = server.handle(frame_of(verb));
    EXPECT_TRUE(framed.at("ok").as_bool()) << verb;
    EXPECT_EQ(without(direct, {"uptime_ms", "metrics", "text", "trace"}).dump(),
              without(framed, {"uptime_ms", "metrics", "text", "trace"}).dump())
        << verb;
  }

  // shutdown last: the framed one stops serving, the direct one answers
  // the same frame on the stopped server.
  const std::string framed_shutdown = framed_line(raw, frame_of("shutdown"));
  serve_thread.join();
  EXPECT_EQ(server.handle(frame_of("shutdown")).dump(), framed_shutdown);
}

/// `wait` and `drain` are completion-driven: without a connection to
/// answer on, handle() refuses them at once instead of blocking — and a
/// refused drain does not close admission.
TEST(SocketServer, DirectHandleRefusesWaitAndDrainWithoutBlocking) {
  SocketServerOptions options;
  options.start_paused = true;  // the job below cannot finish
  SocketServer server(socket_path("direct_wait"), options);
  server.engine().register_network("net", make_network(3));
  const Ticket ticket = server.manager().submit(
      make_job("parked", 91, service::Objective::kMinDelay));

  const util::Json waited =
      server.handle(frame_of("wait", {{"ticket", ticket}}));
  EXPECT_FALSE(waited.at("ok").as_bool());
  const util::Json drained = server.handle(
      frame_of("drain", {{"timeout_ms", 10}, {"trace_id", "t-d"}}));
  EXPECT_FALSE(drained.at("ok").as_bool());
  EXPECT_EQ(drained.at("trace_id").as_string(), "t-d");
  EXPECT_FALSE(server.manager().stats().draining);
  const util::Json job =
      service::to_json(make_job("after", 92, service::Objective::kMinDelay));
  EXPECT_TRUE(
      server.handle(frame_of("submit", {{"job", job}})).at("ok").as_bool());
}

/// Every stats-table row renders both ways: its key in the `stats` frame,
/// its family (with its labels, HELP text and exposed type) in the
/// Prometheus exposition.
TEST(SocketServer, EveryStatsFieldRendersToStatsAndMetrics) {
  SocketServer server(socket_path("statsrows"), SocketServerOptions{});
  const util::Json stats = server.handle(frame_of("stats"));
  const std::string text =
      server.handle(frame_of("metrics")).at("text").as_string();
  std::size_t keyed = 0;
  std::size_t exported = 0;
  for (const SocketServer::StatsField& field : SocketServer::stats_fields()) {
    ASSERT_TRUE(field.key != nullptr || field.family != nullptr);
    if (field.key != nullptr) {
      ++keyed;
      EXPECT_TRUE(stats.contains(field.key)) << field.key;
    }
    if (field.family != nullptr) {
      ++exported;
      const std::string family = field.family;
      EXPECT_NE(text.find("# HELP " + family + " " + field.help + "\n"),
                std::string::npos)
          << family;
      EXPECT_NE(text.find("# TYPE " + family + " " +
                          (field.counter ? "counter" : "gauge") + "\n"),
                std::string::npos)
          << family;
      const std::string child =
          field.labels.empty()
              ? family + " "
              : family + "{" + util::format_labels(field.labels) + "} ";
      EXPECT_NE(text.find("\n" + child), std::string::npos) << child;
    }
  }
  EXPECT_GT(keyed, 0u);
  EXPECT_GT(exported, 0u);
}

/// `count` small jobs with distinct ids and pipelines — more than one
/// pipelined window's worth when count > kPipelineWindow.
std::vector<service::SolveJob> many_jobs(const std::string& prefix,
                                         std::size_t count) {
  std::vector<service::SolveJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(make_job(prefix + std::to_string(i), 300 + i,
                            i % 2 == 0 ? service::Objective::kMinDelay
                                       : service::Objective::kMaxFrameRate));
  }
  return jobs;
}

/// submit_all + wait_all across several windows: tickets come back one
/// per job in job order, statuses in ticket order, and every result is
/// byte-identical to the direct engine's — over Unix with v1 and over
/// TCP with v2 (where each result crosses as a binary table).
TEST(SocketServer, PipelinedHelpersWrapTheWindowOnBothTransports) {
  SocketServerOptions options;
  options.threads = 2;
  options.tcp = true;
  options.tcp_host = "127.0.0.1";
  options.tcp_port = 0;
  SocketServer server(socket_path("pipe"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  ASSERT_GT(server.tcp_port(), 0);

  const std::vector<service::SolveJob> jobs =
      many_jobs("pipe", 2 * kPipelineWindow + 22);
  service::BatchEngine direct;
  direct.register_network("net", make_network(3));
  const std::vector<service::SolveResult> expected = direct.solve(jobs);

  DaemonClientOptions v1_options;
  v1_options.protocol = ProtocolPreference::kV1;
  DaemonClient unix_v1(server.socket_path(), v1_options);
  unix_v1.register_network("net", make_network(3));
  DaemonClientOptions v2_options;
  v2_options.protocol = ProtocolPreference::kV2;
  DaemonClient tcp_v2(DaemonEndpoint::tcp_at("127.0.0.1", server.tcp_port()),
                      v2_options);
  ASSERT_EQ(tcp_v2.protocol_version(), 2);

  for (DaemonClient* client : {&unix_v1, &tcp_v2}) {
    const std::vector<Ticket> tickets = client->submit_all(jobs);
    ASSERT_EQ(tickets.size(), jobs.size());
    const std::vector<JobStatusView> statuses = client->wait_all(tickets);
    ASSERT_EQ(statuses.size(), tickets.size());
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_EQ(statuses[i].ticket, tickets[i]);
      ASSERT_TRUE(statuses[i].terminal()) << jobs[i].id;
      EXPECT_EQ(service::result_entry_to_json(*statuses[i].result).dump(),
                service::result_entry_to_json(expected[i]).dump())
          << jobs[i].id << " over v" << client->protocol_version();
    }
  }

  unix_v1.shutdown_server();
  serve_thread.join();
}

/// With dispatch paused and one engine worker, the later-submitted,
/// higher-priority jobs finish first, so the out-of-band wait answers
/// arrive out of ticket order; wait_all still returns ticket order.
TEST(SocketServer, WaitAllReturnsTicketOrderWhateverTheCompletionOrder) {
  SocketServerOptions options;
  options.threads = 1;
  options.start_paused = true;
  SocketServer server(socket_path("order"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));
  const std::vector<service::SolveJob> jobs = many_jobs("order", 6);
  const std::span<const service::SolveJob> all(jobs);
  std::vector<Ticket> tickets = client.submit_all(all.first(3), 0);
  for (const Ticket t : client.submit_all(all.last(3), 5)) {
    tickets.push_back(t);
  }

  std::vector<JobStatusView> statuses;
  std::thread waiter([&client, &tickets, &statuses]() {
    statuses = client.wait_all(tickets);
  });
  // Give the waits time to park before dispatch opens; were they late,
  // they would answer in request order and the test would merely pass.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  DaemonClient other(server.socket_path());
  other.resume();
  waiter.join();

  ASSERT_EQ(statuses.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(statuses[i].ticket, tickets[i]);
    ASSERT_TRUE(statuses[i].terminal());
    EXPECT_EQ(statuses[i].result->job_id, jobs[i].id);
    EXPECT_EQ(statuses[i].priority, i < 3 ? 0 : 5);
  }

  other.shutdown_server();
  serve_thread.join();
}

/// A job the daemon rejects mid-window (source 2^53) throws DaemonError
/// after the rest of the window is read: the same client's next request
/// gets its own answer, and no frame left after the rejection was seen.
TEST(SocketServer, SubmitAllRejectionMidWindowLeavesTheConnectionInSync) {
  SocketServerOptions options;
  options.start_paused = true;  // nothing finishes; counts stay exact
  SocketServer server(socket_path("reject"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));
  std::vector<service::SolveJob> jobs = many_jobs("rej", 3 * kPipelineWindow);
  const std::size_t bad = kPipelineWindow + 5;
  // A negative node id is refused at the wire, not wrapped into a
  // huge NodeId (the typed job cannot even hold -1; a raw frame can).
  util::Json raw = util::JsonObject{};
  raw.set("verb", "submit");
  util::Json job_json = service::to_json(jobs[bad]);
  job_json.set("source", -1);
  raw.set("job", job_json);
  const util::Json refused = client.request(raw);
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(refused.at("error").as_string(),
            "'source' must be a node id in [0, 2^53), got -1");

  jobs[bad].source =  // 2^53: refused too
      static_cast<graph::NodeId>(graph::kMaxWireNodeId) + 1;
  const std::int64_t accepted =
      client.stats().at("connections_accepted").as_int();
  try {
    (void)client.submit_all(jobs);
    ADD_FAILURE() << "a rejected job did not throw";
  } catch (const DaemonError& e) {
    EXPECT_EQ(std::string(e.what()),
              "'source' must be a node id in [0, 2^53), got "
              "9007199254740992");
  }
  // Same connection: the window was drained, not abandoned.
  const StatsView stats = client.stats_view();
  EXPECT_EQ(stats.raw.at("connections_accepted").as_int(), accepted);
  EXPECT_GE(stats.submitted, static_cast<std::int64_t>(bad));
  EXPECT_LE(stats.submitted,
            static_cast<std::int64_t>(bad + kPipelineWindow - 1));
  EXPECT_EQ(stats.queued, stats.submitted);

  client.shutdown_server();
  serve_thread.join();
}

/// A client demanding v2 from a server that cannot speak it must fail
/// the connect loudly (DaemonError) instead of silently downgrading —
/// simulated with a hand-rolled listener answering hello like a v1-only
/// build would (unknown verb).
TEST(SocketServer, DemandingV2FromAV1OnlyServerFailsLoudly) {
  const std::string path = socket_path("v1only");
  const auto listener = util::Listener::unix_at(path);
  std::thread old_server([&listener]() {
    std::optional<util::StreamSocket> peer = listener->accept();
    ASSERT_TRUE(peer.has_value());
    const std::optional<std::string> line = peer->recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(util::Json::parse(*line).at("verb").as_string(), "hello");
    peer->send_line(R"({"ok": false, "error": "unknown verb 'hello'"})");
    // Hold the connection until the client gives up.
    (void)peer->recv_line();
  });

  DaemonClientOptions options;
  options.protocol = ProtocolPreference::kV2;
  options.max_retries = 0;
  EXPECT_THROW(DaemonClient(path, options), DaemonError);

  listener->close();
  old_server.join();
}

/// register_network writes its frame as text around graph::append_json.
/// The line a listener receives must equal the dump() of the frame built
/// as a Json tree, with and without the auto trace id.
TEST(SocketServer, RegisterNetworkFrameMatchesTheTreeFrame) {
  const graph::Network network = make_network(5);
  const std::string id = "net \"1\"\\";
  for (const bool auto_trace : {true, false}) {
    const std::string path = socket_path(auto_trace ? "regtrace" : "reg");
    const auto listener = util::Listener::unix_at(path);
    std::string captured;
    std::thread peer_thread([&listener, &captured]() {
      std::optional<util::StreamSocket> peer = listener->accept();
      ASSERT_TRUE(peer.has_value());
      captured = peer->recv_line().value_or("");
      peer->send_line(R"({"ok":true})");
      (void)peer->recv_line();  // until the client hangs up
    });
    {
      DaemonClientOptions options;
      options.protocol = ProtocolPreference::kV1;
      options.auto_trace = auto_trace;
      DaemonClient client(path, options);
      client.register_network(id, network);
    }
    peer_thread.join();

    util::Json frame = util::JsonObject{};
    frame.set("verb", "register_network");
    frame.set("id", id);
    frame.set("network", graph::testing::tree_to_json(network));
    if (auto_trace) {
      frame.set("trace_id", "c" + std::to_string(::getpid()) + "-1");
    }
    EXPECT_EQ(captured, frame.dump()) << "auto_trace " << auto_trace;
  }
}

/// The daemon reads a register_network frame's network in the same pass
/// as the frame, with no tree for it.  Its answers are the ones a frame
/// parsed whole and then walked gets: a syntax error anywhere names its
/// offset in the frame, the network's refusal comes before the id's,
/// a repeated member's last value counts, and any other verb still sees
/// the member as a tree.
TEST(SocketServer, RegisterNetworkFrameErrorsAnswerAsTheParsedFrame) {
  SocketServer server(socket_path("regerr"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });
  std::string network;
  graph::append_json(network, make_network(3));
  const auto frame = [](const std::string& members) {
    return "{" + members + R"(,"verb":"register_network"})";
  };
  // The ':' after the first "power" made ';', and the links array cut
  // inside its first link, so the frame ends inside the network.
  std::string broken = frame(R"("id":"n","network":)" + network);
  const std::size_t power = broken.find(R"("power":)");
  broken[power + 7] = ';';
  const std::string cut =
      frame(R"("id":"n","network":)" + network.substr(0, 40));
  const std::vector<std::pair<std::string, std::string>> cases = {
      {broken, "malformed request: JSON parse error at offset " +
                   std::to_string(power + 7) + ": expected ':'"},
      {cut, "malformed request: JSON parse error at offset " +
                std::to_string(cut.size()) + ": unexpected end of input"},
      {frame(R"("id":5,"network":{"links":[]})"),
       "Json: missing key 'nodes'"},
      {frame(R"("network":{"nodes":[],"links":[{"from":0}]})"),
       "Json: missing key 'bandwidth_mbps'"},
      {frame(R"("network":)" + network), "Json: missing key 'id'"},
      {frame(R"("id":"n","network":[1])"), "Json: not an object"},
      {frame(R"("id":"n","network":)" + network + R"(,"network":"s")"),
       "Json: not an object"},
      {frame(R"("id":"n","network":{"nodes":{}},"network":{"links":[7]})"),
       "Json: missing key 'nodes'"},
      {frame(R"("id":"n","network":{"x":)" + std::string(70, '[') +
             std::string(70, ']') + "}"),
       "malformed request: JSON parse error at offset 87: nesting deeper "
       "than 64"},
      {R"({"verb":"apply_link_updates","network":)" + network +
           R"(,"updates":[]})",
       "Json: not a string"},
  };
  util::StreamSocket client = util::StreamSocket::connect(server.socket_path());
  for (const auto& [request, error] : cases) {
    client.send_line(request);
    util::Json expected = util::JsonObject{};
    expected.set("ok", false);
    expected.set("error", error);
    EXPECT_EQ(client.recv_line().value_or(""), expected.dump()) << request;
  }
  // The last occurrence registers, and the network it names is the one
  // kept: registering it again is a no-op, the first one conflicts.
  client.send_line(frame(R"("id":"dup","network":{"nodes":[]},"network":)" +
                         network));
  EXPECT_EQ(client.recv_line().value_or(""), R"({"ok":true})");
  client.send_line(frame(R"("id":"dup","network":)" + network));
  EXPECT_EQ(client.recv_line().value_or(""), R"({"ok":true})");
  client.send_line(frame(R"("id":"dup","network":{"nodes":[],"links":[]})"));
  EXPECT_EQ(util::Json::parse(client.recv_line().value_or("{}"))
                .at("code")
                .as_string(),
            "conflict");
  client.close();
  server.stop();
  serve_thread.join();
}

}  // namespace
}  // namespace elpc::daemon
