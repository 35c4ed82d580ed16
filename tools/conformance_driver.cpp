// Protocol conformance driver — the CI gate for the daemon's wire
// contract (docs/protocol.md is the normative reference; this binary is
// the executable check that the implementation still honours it).
//
// Modes (--mode, default "all" = replay + fuzz + interop):
//
//   record   Regenerate the session corpus: run the built-in session
//            scripts against a fresh in-process daemon and write each
//            exchange — request lines/frames and the daemon's exact
//            response bytes — to tests/conformance/sessions/*.json.
//            Run via tools/record_conformance_corpus.sh after an
//            INTENTIONAL protocol change; the diff is the review
//            artifact.
//
//   replay   Byte-for-byte corpus replay: every recorded session is
//            replayed against a fresh daemon over BOTH transports
//            (Unix socket and TCP) and every response — JSON control
//            lines and binary frames alike — must match the recording
//            exactly.  Any drift in field order, float formatting,
//            error wording, or frame layout fails the gate.
//
//   fuzz     Hostile binary framing: bad magic, reserved flags,
//            oversized declared lengths, truncated headers/payloads,
//            torn and pipelined frames, binary-before-hello, unknown
//            frame types, and seeded random garbage.  The invariant:
//            the daemon answers (or closes just that connection) per
//            the documented rules and keeps serving real work after.
//
//   interop  Cross-version checks: a v1-pinned and a v2-negotiated
//            client must observe byte-identical results for the same
//            job (over both transports, including mixed concurrent
//            connections); hello edge cases (no overlap, min > max,
//            renegotiation); and a large (>= 1 MiB on v1) link-update
//            payload is pushed through both protocols with the wire
//            bytes counted — the summary line reports the v2 savings
//            and fails unless v2 is measurably smaller.
//
// Prints one greppable line — "CONFORMANCE SUMMARY ok=<0|1> ..." — and
// exits nonzero on any violation.
//
//   conformance_driver --mode all --corpus tests/conformance/sessions

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/error_codes.hpp"
#include "daemon/socket_server.hpp"
#include "daemon/wire_format.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "util/cli.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace {

using namespace elpc;
namespace wire = daemon::wire;

constexpr std::uint64_t kNetSeed = 3;
/// Token of the auth-enforcing test daemon (fuzz_auth).
constexpr const char* kAuthToken = "conformance-secret";

// ---------------------------------------------------------------------------
// Failure ledger: every check funnels through here so the summary line
// and the exit status cannot disagree.

struct Ledger {
  std::uint64_t checks = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      std::fprintf(stderr, "conformance violation: %s\n", what.c_str());
      failures.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Fixtures — deterministic network/job builders (same shapes the chaos
// driver storms with, so the corpus exercises realistic payloads).

graph::Network make_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, 10, 50,
                                         graph::AttributeRanges{});
}

service::SolveJob make_job(const std::string& id, std::uint64_t pseed,
                           service::Objective objective,
                           bool subscribe = false) {
  util::Rng rng(pseed);
  service::SolveJob job;
  job.id = id;
  job.network = "net";
  job.pipeline = pipeline::random_pipeline(rng, 4, {});
  job.source = 0;
  job.destination = 9;
  job.objective = objective;
  job.cost = service::default_cost(objective);
  job.resolve_on_update = subscribe;
  return job;
}

graph::LinkUpdate make_update(const graph::Edge& edge, double bandwidth) {
  graph::LinkUpdate update{edge.from, edge.to, edge.attr};
  update.attr.bandwidth_mbps = bandwidth;
  return update;
}

std::string socket_path(const std::string& tag) {
  static int counter = 0;
  return "/tmp/elpc_conformance_" + tag + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++) + ".sock";
}

/// A fresh in-process daemon (tickets start at 1, revisions at their
/// seed state — what makes recorded sessions replayable).
struct TestDaemon {
  std::unique_ptr<daemon::SocketServer> server;
  std::thread thread;

  explicit TestDaemon(const std::string& tag, bool tcp, bool auth = false) {
    daemon::SocketServerOptions options;
    options.threads = 1;  // deterministic solve order
    options.tcp = tcp;
    options.tcp_port = 0;
    if (auth) {
      options.auth_token = kAuthToken;
    }
    server = std::make_unique<daemon::SocketServer>(socket_path(tag), options);
    thread = std::thread([this]() { server->serve(); });
  }
  ~TestDaemon() {
    server->stop();
    thread.join();
  }
  [[nodiscard]] util::StreamSocket connect(bool tcp) const {
    return tcp ? util::StreamSocket::connect_tcp("127.0.0.1",
                                                 server->tcp_port())
               : util::StreamSocket::connect(server->socket_path());
  }
  [[nodiscard]] daemon::DaemonEndpoint endpoint(bool tcp) const {
    return tcp ? daemon::DaemonEndpoint::tcp_at("127.0.0.1",
                                                server->tcp_port())
               : daemon::DaemonEndpoint::unix_path_at(server->socket_path());
  }
};

// ---------------------------------------------------------------------------
// Hex codec for binary frames in the session JSON.

std::string hex_encode(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const unsigned char b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::string hex_decode(const std::string& hex) {
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::runtime_error("bad hex digit in session file");
  };
  if (hex.size() % 2 != 0) {
    throw std::runtime_error("odd-length hex in session file");
  }
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Session model: a scripted client side.  `send` is a JSON text line
// unless `binary` (then it is raw frame bytes).  The expectation is the
// response control line plus, when the line carries a v2 "payload"
// marker, the adjacent binary frame (header + payload) in hex.

struct Step {
  bool binary = false;
  std::string send;  // text line, or raw bytes when binary
  std::string expect_line;
  std::string expect_frame_hex;
};

struct Session {
  std::string name;
  std::vector<Step> steps;
};

/// One response as the daemon framed it: the control line and, when the
/// line announces a payload, the raw adjacent binary frame.
struct Response {
  std::string line;
  std::string frame;  // header+payload bytes, "" when none
};

Response read_response(util::StreamSocket& socket) {
  const std::optional<std::string> line = socket.recv_line();
  if (!line.has_value()) {
    throw std::runtime_error("daemon closed the connection mid-session");
  }
  Response response{*line, ""};
  const util::Json doc = util::Json::parse(*line);
  const util::Json* marker = doc.find("payload");
  if (marker != nullptr && marker->is_string()) {
    const std::string header = socket.recv_bytes(wire::kHeaderBytes);
    const std::optional<wire::FrameHeader> parsed = wire::parse_header(header);
    if (!parsed.has_value()) {
      throw std::runtime_error("short binary frame header after control line");
    }
    response.frame = header + socket.recv_bytes(parsed->length);
  }
  return response;
}

std::string verb_line(const std::string& verb) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", verb);
  return frame.dump();
}

std::string hello_line(std::optional<int> min_version,
                       std::optional<int> max_version) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", "hello");
  if (min_version.has_value()) {
    frame.set("min_version", static_cast<std::int64_t>(*min_version));
  }
  if (max_version.has_value()) {
    frame.set("max_version", static_cast<std::int64_t>(*max_version));
  }
  return frame.dump();
}

std::string register_line(const graph::Network& network) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", "register_network");
  frame.set("id", "net");
  frame.set("network", graph::to_json(network));
  return frame.dump();
}

std::string submit_line(const service::SolveJob& job) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", "submit");
  frame.set("job", service::to_json(job));
  return frame.dump();
}

std::string ticket_line(const std::string& verb, std::int64_t ticket) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", verb);
  frame.set("ticket", ticket);
  return frame.dump();
}

std::string updates_line(std::span<const graph::LinkUpdate> updates) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", "apply_link_updates");
  frame.set("network", "net");
  frame.set("updates", service::link_updates_to_json(updates));
  return frame.dump();
}

/// The built-in session scripts — the SENDS only; record mode fills the
/// expectations by running them, replay mode reads them back from disk.
std::vector<Session> build_sessions() {
  const graph::Network network = make_network(kNetSeed);
  const graph::Edge edge = network.out_edges(0).front();
  std::vector<Session> sessions;

  // Plain v1: the pre-negotiation protocol must stay byte-for-byte.
  {
    Session s;
    s.name = "v1_smoke";
    s.steps.push_back({false, register_line(network), "", ""});
    s.steps.push_back(
        {false,
         submit_line(make_job("j1", 120, service::Objective::kMinDelay)), "",
         ""});
    s.steps.push_back({false, ticket_line("wait", 1), "", ""});
    s.steps.push_back({false, ticket_line("poll", 1), "", ""});
    s.steps.push_back({false, ticket_line("cancel", 1), "", ""});
    s.steps.push_back({false, ticket_line("poll", 999), "", ""});
    s.steps.push_back({false, verb_line("no_such_verb"), "", ""});
    s.steps.push_back({false, R"({"verb": "poll"})", "", ""});
    sessions.push_back(std::move(s));
  }

  // v1 without hello keeps JSON results even for the bulk verbs.
  {
    Session s;
    s.name = "v1_link_updates";
    s.steps.push_back({false, register_line(network), "", ""});
    s.steps.push_back(
        {false,
         submit_line(make_job("sub1", 121, service::Objective::kMaxFrameRate,
                              /*subscribe=*/true)),
         "", ""});
    s.steps.push_back({false, ticket_line("wait", 1), "", ""});
    const graph::LinkUpdate update = make_update(edge, 250.0);
    s.steps.push_back({false, updates_line({&update, 1}), "", ""});
    sessions.push_back(std::move(s));
  }

  // Negotiated v2: terminal wait/poll answer a control line plus a
  // binary result-table frame.
  {
    Session s;
    s.name = "v2_solve";
    s.steps.push_back({false, hello_line(1, 2), "", ""});
    s.steps.push_back({false, register_line(network), "", ""});
    s.steps.push_back(
        {false,
         submit_line(make_job("j1", 120, service::Objective::kMinDelay)), "",
         ""});
    s.steps.push_back({false, ticket_line("wait", 1), "", ""});
    s.steps.push_back({false, ticket_line("poll", 1), "", ""});
    s.steps.push_back({false, ticket_line("poll", 999), "", ""});
    sessions.push_back(std::move(s));
  }

  // v2 bulk data plane: apply_link_updates as JSON and as a binary
  // link-update table; both answer control + result-table frame.
  {
    Session s;
    s.name = "v2_link_updates";
    s.steps.push_back({false, hello_line(1, 2), "", ""});
    s.steps.push_back({false, register_line(network), "", ""});
    s.steps.push_back(
        {false,
         submit_line(make_job("sub1", 121, service::Objective::kMaxFrameRate,
                              /*subscribe=*/true)),
         "", ""});
    s.steps.push_back({false, ticket_line("wait", 1), "", ""});
    const graph::LinkUpdate json_update = make_update(edge, 250.0);
    s.steps.push_back({false, updates_line({&json_update, 1}), "", ""});
    const std::vector<graph::LinkUpdate> binary_updates = {
        make_update(edge, 125.0), make_update(edge, 500.0)};
    const std::string table =
        wire::encode_link_update_table("net", binary_updates);
    s.steps.push_back(
        {true,
         wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                             static_cast<std::uint32_t>(table.size())) +
             table,
         "", ""});
    sessions.push_back(std::move(s));
  }

  // hello edge cases: defaults, no overlap, min > max, renegotiation.
  {
    Session s;
    s.name = "hello_edges";
    s.steps.push_back({false, hello_line(std::nullopt, std::nullopt), "", ""});
    s.steps.push_back({false, hello_line(3, 9), "", ""});
    s.steps.push_back({false, hello_line(2, 1), "", ""});
    s.steps.push_back({false, hello_line(1, 2), "", ""});
    s.steps.push_back({false, hello_line(1, 1), "", ""});
    s.steps.push_back({false, hello_line(2, 2), "", ""});
    sessions.push_back(std::move(s));
  }

  return sessions;
}

// ---------------------------------------------------------------------------
// Session (de)serialization — tests/conformance/sessions/<name>.json.

util::Json session_to_json(const Session& session) {
  util::JsonArray steps;
  for (const Step& step : session.steps) {
    util::Json doc = util::JsonObject{};
    if (step.binary) {
      doc.set("send_hex", hex_encode(step.send));
    } else {
      doc.set("send", step.send);
    }
    doc.set("expect", step.expect_line);
    if (!step.expect_frame_hex.empty()) {
      doc.set("expect_frame_hex", step.expect_frame_hex);
    }
    steps.push_back(std::move(doc));
  }
  util::Json doc = util::JsonObject{};
  doc.set("name", session.name);
  doc.set("steps", util::Json(std::move(steps)));
  return doc;
}

Session session_from_json(const util::Json& doc) {
  Session session;
  session.name = doc.at("name").as_string();
  for (const util::Json& entry : doc.at("steps").as_array()) {
    Step step;
    if (const util::Json* hex = entry.find("send_hex")) {
      step.binary = true;
      step.send = hex_decode(hex->as_string());
    } else {
      step.send = entry.at("send").as_string();
    }
    step.expect_line = entry.at("expect").as_string();
    if (const util::Json* frame = entry.find("expect_frame_hex")) {
      step.expect_frame_hex = frame->as_string();
    }
    session.steps.push_back(std::move(step));
  }
  return session;
}

/// Runs one session against a fresh daemon.  In record mode the
/// observed responses are written into the steps; in replay mode they
/// are compared byte-for-byte against the stored expectations.
void run_session(Session& session, bool tcp, bool record, Ledger& ledger) {
  TestDaemon daemon(session.name, tcp);
  util::StreamSocket socket = daemon.connect(tcp);
  socket.set_recv_timeout(30000);
  const char* transport = tcp ? "tcp" : "unix";
  for (std::size_t i = 0; i < session.steps.size(); ++i) {
    Step& step = session.steps[i];
    if (step.binary) {
      socket.send_bytes(step.send);
    } else {
      socket.send_line(step.send);
    }
    const Response response = read_response(socket);
    if (record) {
      step.expect_line = response.line;
      step.expect_frame_hex =
          response.frame.empty() ? "" : hex_encode(response.frame);
      continue;
    }
    const std::string where = session.name + "[" + std::to_string(i) + "] (" +
                              transport + ")";
    ledger.check(response.line == step.expect_line,
                 where + ": control line drifted\n  expected: " +
                     step.expect_line + "\n  actual:   " + response.line);
    ledger.check(hex_encode(response.frame) == step.expect_frame_hex,
                 where + ": binary frame drifted (expected " +
                     std::to_string(step.expect_frame_hex.size() / 2) +
                     " bytes, got " + std::to_string(response.frame.size()) +
                     ")");
  }
}

int run_record(const std::string& corpus_dir, Ledger& ledger) {
  std::filesystem::create_directories(corpus_dir);
  std::vector<Session> sessions = build_sessions();
  for (Session& session : sessions) {
    run_session(session, /*tcp=*/false, /*record=*/true, ledger);
    const std::string path = corpus_dir + "/" + session.name + ".json";
    util::write_text_file(path, session_to_json(session).dump(2) + "\n");
    std::fprintf(stderr, "recorded %s (%zu steps)\n", path.c_str(),
                 session.steps.size());
  }
  return 0;
}

void run_replay(const std::string& corpus_dir, Ledger& ledger) {
  std::vector<std::filesystem::path> files;
  if (std::filesystem::is_directory(corpus_dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
      if (entry.path().extension() == ".json") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  ledger.check(!files.empty(),
               "no session corpus at " + corpus_dir +
                   " (run record mode / tools/record_conformance_corpus.sh)");
  for (const std::filesystem::path& file : files) {
    Session session =
        session_from_json(util::Json::parse(util::read_text_file(file)));
    for (const bool tcp : {false, true}) {
      run_session(session, tcp, /*record=*/false, ledger);
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzz mode.

/// Sends raw bytes on a fresh connection and classifies the daemon's
/// reaction: an error line, a close, or silence (timeout).
enum class Reaction { kErrorLine, kClosed, kSilent };

Reaction poke(const TestDaemon& daemon, bool tcp, const std::string& bytes,
              std::string* answer = nullptr) {
  util::StreamSocket socket = daemon.connect(tcp);
  socket.set_recv_timeout(500);
  socket.send_bytes(bytes);
  try {
    const std::optional<std::string> line = socket.recv_line();
    if (!line.has_value()) {
      return Reaction::kClosed;
    }
    if (answer != nullptr) {
      *answer = *line;
    }
    return Reaction::kErrorLine;
  } catch (const util::SocketTimeout&) {
    return Reaction::kSilent;
  } catch (const util::SocketError&) {
    return Reaction::kClosed;
  }
}

bool is_protocol_error(const std::string& line) {
  try {
    const util::Json doc = util::Json::parse(line);
    return !doc.at("ok").as_bool() && doc.contains("code") &&
           doc.at("code").as_string() == daemon::codes::kProtocol;
  } catch (const std::exception&) {
    return false;
  }
}

/// The daemon still does real work: a fresh client solves one job.
void check_alive(const TestDaemon& daemon, bool tcp,
                 const daemon::DaemonClientOptions& options,
                 const std::string& label, Ledger& ledger) {
  daemon::DaemonClient client(daemon.endpoint(tcp), options);
  try {
    client.register_network("net", make_network(kNetSeed));
  } catch (const daemon::DaemonError&) {
    // Already registered by an earlier leg.
  }
  const daemon::Ticket ticket = client.submit(
      make_job("alive", 120, service::Objective::kMinDelay));
  const daemon::JobStatusView status = client.wait_status(ticket);
  ledger.check(status.state == "done", "daemon unhealthy after " + label +
                                           ": final solve state " +
                                           status.state);
}

void run_fuzz(std::uint64_t seed, std::int64_t iterations, Ledger& ledger) {
  for (const bool tcp : {false, true}) {
    const char* transport = tcp ? "tcp" : "unix";
    TestDaemon daemon(std::string("fuzz_") + transport, tcp);

    // Malformed framing that can never re-sync must answer one protocol
    // error and close that connection.
    const std::string bad_magic1 = std::string("\xE1\x00", 2) +
                                   std::string(6, '\0');
    const std::string bad_flags =
        wire::encode_header(wire::FrameType::kLinkUpdateTable, 0, 0);
    std::string bad_flags_mut = bad_flags;
    bad_flags_mut[3] = '\x7F';
    std::string oversized =
        wire::encode_header(wire::FrameType::kLinkUpdateTable, 0, 0xFFFFFFFFu);
    for (const auto& [label, bytes] :
         {std::pair<const char*, std::string>{"bad magic1", bad_magic1},
          {"reserved flags", bad_flags_mut},
          {"oversized length", oversized}}) {
      std::string answer;
      const Reaction reaction = poke(daemon, tcp, bytes, &answer);
      ledger.check(reaction != Reaction::kSilent,
                   std::string(label) + " (" + transport +
                       "): daemon neither answered nor closed");
      if (reaction == Reaction::kErrorLine) {
        ledger.check(is_protocol_error(answer),
                     std::string(label) + " (" + transport +
                         "): answer is not a code=protocol error: " + answer);
      }
    }

    // Truncated header / payload then a hard close: the daemon must
    // simply reap the connection.
    {
      util::StreamSocket socket = daemon.connect(tcp);
      socket.send_bytes(std::string("\xE1\x5C\x02", 3));
      socket.close();
    }
    {
      util::StreamSocket socket = daemon.connect(tcp);
      socket.send_bytes(
          wire::encode_header(wire::FrameType::kLinkUpdateTable, 0, 4096));
      socket.send_bytes(std::string(100, 'q'));
      socket.close();
    }

    // A well-formed binary frame BEFORE any v2 hello answers code
    // "protocol" but keeps the (still in-sync) connection open.
    {
      util::StreamSocket socket = daemon.connect(tcp);
      socket.set_recv_timeout(5000);
      const std::string table = wire::encode_link_update_table("net", {});
      socket.send_bytes(
          wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                              static_cast<std::uint32_t>(table.size())) +
          table);
      const std::optional<std::string> line = socket.recv_line();
      ledger.check(line.has_value() && is_protocol_error(*line),
                   std::string("binary-before-hello (") + transport +
                       "): expected a code=protocol error line");
      // Same connection still serves text verbs.
      socket.send_line(verb_line("stats"));
      const std::optional<std::string> stats = socket.recv_line();
      ledger.check(stats.has_value() &&
                       util::Json::parse(*stats).at("ok").as_bool(),
                   std::string("binary-before-hello (") + transport +
                       "): connection did not survive the error");
    }

    // Unknown frame type after a successful hello: error, stay open.
    {
      util::StreamSocket socket = daemon.connect(tcp);
      socket.set_recv_timeout(5000);
      socket.send_line(hello_line(1, 2));
      (void)socket.recv_line();
      std::string header = wire::encode_header(
          wire::FrameType::kLinkUpdateTable, 0, 0);
      header[2] = '\x63';  // type 99: reserved
      socket.send_bytes(header);
      const std::optional<std::string> line = socket.recv_line();
      ledger.check(line.has_value() && is_protocol_error(*line),
                   std::string("unknown frame type (") + transport +
                       "): expected a code=protocol error line");
      socket.send_line(verb_line("stats"));
      const std::optional<std::string> stats = socket.recv_line();
      ledger.check(stats.has_value() &&
                       util::Json::parse(*stats).at("ok").as_bool(),
                   std::string("unknown frame type (") + transport +
                       "): connection did not survive the error");
    }

    // Torn + pipelined well-formed frames must still work end-to-end:
    // a valid v2 exchange with the binary request split into dribbles,
    // then two requests pipelined into one send.
    {
      util::StreamSocket socket = daemon.connect(tcp);
      socket.set_recv_timeout(30000);
      socket.send_line(hello_line(1, 2));
      (void)socket.recv_line();
      socket.send_line(register_line(make_network(kNetSeed)));
      (void)socket.recv_line();
      const std::string table = wire::encode_link_update_table("net", {});
      const std::string frame =
          wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                              static_cast<std::uint32_t>(table.size())) +
          table;
      for (std::size_t i = 0; i < frame.size(); i += 3) {
        socket.send_bytes(frame.substr(i, 3));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const Response torn = read_response(socket);
      ledger.check(util::Json::parse(torn.line).at("ok").as_bool() &&
                       !torn.frame.empty(),
                   std::string("torn binary frame (") + transport +
                       "): did not decode to a framed answer");
      socket.send_bytes(frame + frame);  // pipelined
      const Response first = read_response(socket);
      const Response second = read_response(socket);
      ledger.check(first.line == torn.line && second.line == torn.line &&
                       first.frame == torn.frame && second.frame == torn.frame,
                   std::string("pipelined binary frames (") + transport +
                       "): answers diverged from the single-frame exchange");
    }

    // Seeded random garbage: every poke must answer, close, or at worst
    // stay silent without wedging the daemon.
    util::Rng rng(seed + (tcp ? 1 : 0));
    for (std::int64_t i = 0; i < iterations; ++i) {
      std::string junk;
      const std::size_t len = 1 + rng.index(64);
      junk.reserve(len + 1);
      if (rng.bernoulli(0.5)) {
        junk.push_back(static_cast<char>(wire::kMagic0));  // frame-ish
      }
      for (std::size_t b = 0; b < len; ++b) {
        junk.push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
      if (rng.bernoulli(0.5)) {
        junk.push_back('\n');
      }
      (void)poke(daemon, tcp, junk);
    }

    // After everything above the daemon still does real work.
    check_alive(daemon, tcp, {}, std::string("fuzz (") + transport + ")",
                ledger);
  }

  // Pre-auth binary frames on an auth-enforcing daemon answer code
  // "unauthenticated" (not "protocol"): framing is fine, the gate is.
  {
    TestDaemon daemon("fuzz_auth", /*tcp=*/false, /*auth=*/true);
    util::StreamSocket socket = daemon.connect(false);
    socket.set_recv_timeout(5000);
    socket.send_line(hello_line(1, 2));
    (void)socket.recv_line();
    const std::string table = wire::encode_link_update_table("net", {});
    socket.send_bytes(
        wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                            static_cast<std::uint32_t>(table.size())) +
        table);
    const std::optional<std::string> line = socket.recv_line();
    bool unauthenticated = false;
    if (line.has_value()) {
      const util::Json doc = util::Json::parse(*line);
      unauthenticated = !doc.at("ok").as_bool() && doc.contains("code") &&
                        doc.at("code").as_string() ==
                            daemon::codes::kUnauthenticated;
    }
    ledger.check(unauthenticated,
                 "pre-auth binary frame: expected code=unauthenticated");

    // A line of 100 000 '[' before auth once overflowed the parser's
    // stack.  It must answer the ordinary malformed-request line, and
    // the daemon must keep serving.
    socket.send_line(std::string(100000, '['));
    const std::optional<std::string> deep = socket.recv_line();
    bool refused = false;
    try {
      const util::Json doc = util::Json::parse(deep.value());
      const std::string& error = doc.at("error").as_string();
      refused = !doc.at("ok").as_bool() &&
                error.rfind("malformed request: ", 0) == 0 &&
                error.find("nesting deeper than " +
                           std::to_string(util::kMaxJsonDepth)) !=
                    std::string::npos;
    } catch (const std::exception&) {
      // No line, or not the expected shape: refused stays false.
    }
    ledger.check(refused,
                 "pre-auth 100000-deep frame: expected a malformed-request "
                 "nesting error");
    daemon::DaemonClientOptions options;
    options.auth_token = kAuthToken;
    check_alive(daemon, false, options, "pre-auth deep frame", ledger);
  }
}

// ---------------------------------------------------------------------------
// Interop mode.

std::string solve_result_bytes(daemon::DaemonClient& client,
                               const std::string& job_id) {
  const daemon::Ticket ticket = client.submit(
      make_job(job_id, 120, service::Objective::kMinDelay));
  const daemon::JobStatusView status = client.wait_status(ticket);
  if (!status.result.has_value()) {
    throw std::runtime_error("job did not reach a terminal result");
  }
  return service::result_entry_to_json(*status.result).dump();
}

struct WireBytes {
  std::size_t sent = 0;
  std::size_t received = 0;
  [[nodiscard]] std::size_t total() const { return sent + received; }
};

/// Pushes `updates` through apply_link_updates counting exact wire
/// bytes; v2 sends the binary link-update table, v1 the JSON array.
WireBytes measured_update_exchange(const TestDaemon& daemon, bool tcp, int version,
                                   std::span<const graph::LinkUpdate> updates) {
  util::StreamSocket socket = daemon.connect(tcp);
  socket.set_recv_timeout(60000);
  WireBytes bytes;
  if (version >= 2) {
    const std::string hello = hello_line(1, 2);
    socket.send_line(hello);
    bytes.sent += hello.size() + 1;
    const Response answer = read_response(socket);
    bytes.received += answer.line.size() + 1;
  }
  const std::string reg = register_line(make_network(kNetSeed));
  socket.send_line(reg);
  bytes.sent += reg.size() + 1;
  bytes.received += read_response(socket).line.size() + 1;
  if (version >= 2) {
    const std::string table = wire::encode_link_update_table("net", updates);
    const std::string frame =
        wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                            static_cast<std::uint32_t>(table.size())) +
        table;
    socket.send_bytes(frame);
    bytes.sent += frame.size();
  } else {
    const std::string line = updates_line(updates);
    socket.send_line(line);
    bytes.sent += line.size() + 1;
  }
  const Response answer = read_response(socket);
  bytes.received += answer.line.size() + 1 + answer.frame.size();
  return bytes;
}

struct InteropStats {
  std::size_t v1_bytes = 0;
  std::size_t v2_bytes = 0;
};

InteropStats run_interop(Ledger& ledger) {
  InteropStats stats;
  for (const bool tcp : {false, true}) {
    const char* transport = tcp ? "tcp" : "unix";
    TestDaemon daemon(std::string("interop_") + transport, tcp);

    // The same job must answer byte-identical canonical results on a
    // v1-pinned and a v2-negotiated connection — concurrently, so the
    // daemon is provably serving mixed protocol versions at once.
    daemon::DaemonClientOptions v1_options;
    v1_options.protocol = daemon::ProtocolPreference::kV1;
    daemon::DaemonClientOptions v2_options;
    v2_options.protocol = daemon::ProtocolPreference::kV2;
    daemon::DaemonClient v1_client(daemon.endpoint(tcp), v1_options);
    daemon::DaemonClient v2_client(daemon.endpoint(tcp), v2_options);
    ledger.check(v1_client.protocol_version() == 1,
                 std::string("v1-pinned client negotiated ") +
                     std::to_string(v1_client.protocol_version()));
    ledger.check(v2_client.protocol_version() == 2,
                 std::string("v2 client negotiated ") +
                     std::to_string(v2_client.protocol_version()));
    v1_client.register_network("net", make_network(kNetSeed));
    const std::string via_v1 = solve_result_bytes(v1_client, "interop");
    const std::string via_v2 = solve_result_bytes(v2_client, "interop");
    ledger.check(via_v1 == via_v2,
                 std::string("v1/v2 result bytes diverged (") + transport +
                     ")\n  v1: " + via_v1 + "\n  v2: " + via_v2);

    // Both connections are live — the per-version gauges must see one
    // of each.
    const daemon::StatsView live = v1_client.stats_view();
    ledger.check(live.connections_v1 >= 1 && live.connections_v2 >= 1,
                 std::string("per-version connection counts wrong (") +
                     transport + "): v1=" +
                     std::to_string(live.connections_v1) + " v2=" +
                     std::to_string(live.connections_v2));

    // hello edge cases through the raw socket: no overlap keeps the
    // connection serving at v1.
    {
      util::StreamSocket socket = daemon.connect(tcp);
      socket.set_recv_timeout(5000);
      socket.send_line(hello_line(3, 9));
      const std::optional<std::string> answer = socket.recv_line();
      bool mismatch = false;
      if (answer.has_value()) {
        const util::Json doc = util::Json::parse(*answer);
        mismatch = !doc.at("ok").as_bool() &&
                   doc.at("code").as_string() ==
                       daemon::codes::kVersionMismatch;
      }
      ledger.check(mismatch, std::string("no-overlap hello (") + transport +
                                 "): expected code=version_mismatch");
      // Still a serving v1 connection.
      socket.send_line(verb_line("stats"));
      const std::optional<std::string> still = socket.recv_line();
      ledger.check(still.has_value() &&
                       util::Json::parse(*still).at("ok").as_bool(),
                   std::string("no-overlap hello (") + transport +
                       "): connection stopped serving");
    }

    // A kV2-demanding client against this server succeeds; the
    // downgrade-refusal path is covered by client unit tests.  Here:
    // renegotiation back to v1 flips the gauges.
    {
      util::StreamSocket socket = daemon.connect(tcp);
      socket.set_recv_timeout(5000);
      socket.send_line(hello_line(1, 2));
      const util::Json up = util::Json::parse(socket.recv_line().value());
      socket.send_line(hello_line(1, 1));
      const util::Json down = util::Json::parse(socket.recv_line().value());
      ledger.check(up.at("version").as_int() == 2 &&
                       down.at("version").as_int() == 1,
                   std::string("renegotiation (") + transport +
                       "): expected 2 then 1");
    }
  }

  // Large-payload data plane: the SAME >= 1 MiB (on v1) update batch
  // through both protocols, wire bytes counted exactly.
  {
    TestDaemon daemon("interop_bulk", /*tcp=*/false);
    const graph::Network network = make_network(kNetSeed);
    const graph::Edge edge = network.out_edges(0).front();
    std::vector<graph::LinkUpdate> updates;
    updates.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      updates.push_back(make_update(edge, 10.0 + 0.001 * i));
    }
    const WireBytes v1 =
        measured_update_exchange(daemon, false, 1, updates);
    const WireBytes v2 =
        measured_update_exchange(daemon, false, 2, updates);
    stats.v1_bytes = v1.total();
    stats.v2_bytes = v2.total();
    ledger.check(v1.total() >= (1u << 20),
                 "large-payload leg is not large: v1 moved only " +
                     std::to_string(v1.total()) + " bytes");
    ledger.check(v2.total() * 10 <= v1.total() * 9,
                 "v2 data plane is not measurably smaller: v1=" +
                     std::to_string(v1.total()) + " v2=" +
                     std::to_string(v2.total()));
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("conformance_driver");
  parser.add_string("mode", "all",
                    "record | replay | fuzz | interop | all (replay + fuzz "
                    "+ interop)");
  parser.add_string("corpus", "tests/conformance/sessions",
                    "session corpus directory (record writes it, replay "
                    "reads it)");
  parser.add_int("seed", 7, "seed for the fuzz byte streams");
  parser.add_int("fuzz-iters", 200,
                 "random-garbage connections per transport in fuzz mode");

  try {
    parser.parse(argc, argv);
    const std::string mode = parser.get_string("mode");
    Ledger ledger;
    InteropStats interop;
    if (mode == "record") {
      run_record(parser.get_string("corpus"), ledger);
    } else if (mode == "replay") {
      run_replay(parser.get_string("corpus"), ledger);
    } else if (mode == "fuzz") {
      run_fuzz(static_cast<std::uint64_t>(parser.get_int("seed")),
               parser.get_int("fuzz-iters"), ledger);
    } else if (mode == "interop") {
      interop = run_interop(ledger);
    } else if (mode == "all") {
      run_replay(parser.get_string("corpus"), ledger);
      run_fuzz(static_cast<std::uint64_t>(parser.get_int("seed")),
               parser.get_int("fuzz-iters"), ledger);
      interop = run_interop(ledger);
    } else {
      std::fprintf(stderr, "conformance_driver: unknown --mode '%s'\n%s",
                   mode.c_str(), parser.usage().c_str());
      return 2;
    }
    const bool ok = ledger.failures.empty();
    std::printf(
        "CONFORMANCE SUMMARY ok=%d mode=%s checks=%llu failures=%zu "
        "bulk_v1_bytes=%zu bulk_v2_bytes=%zu\n",
        ok ? 1 : 0, mode.c_str(),
        static_cast<unsigned long long>(ledger.checks),
        ledger.failures.size(), interop.v1_bytes, interop.v2_bytes);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "conformance_driver: %s\n%s", e.what(),
                 parser.usage().c_str());
    return 2;
  }
}
