#pragma once
// DaemonClient — the in-repo client of the mapping daemon's socket
// protocol, used by `elpc client` and the end-to-end tests.  One client
// holds one connection.  The single-request helpers are request→
// response; the pipelined helpers (submit_all, wait_all) keep up to
// kPipelineWindow requests in flight on the same connection, which is
// what lets `elpc client load` submit and await thousands of jobs
// without paying one round trip each.
//
// Typed helpers cover every verb.  They throw DaemonError when the
// server answers ok=false (carrying the server's diagnostic) and
// util::SocketError on transport failures; request() is the raw escape
// hatch returning the response frame verbatim.
//
// Transient-failure policy: a transport failure (util::SocketError —
// dropped connection, injected EPIPE, torn frame) is retried up to
// max_retries times with exponential backoff + jitter, reconnecting
// each time.  util::SocketTimeout is NOT retried (the connection is
// healthy; the caller chose the bound) and DaemonError is NOT retried
// (the server answered — retrying re-runs a request that already
// executed).  Retrying a `submit` whose response was lost CAN
// double-submit; callers needing exactly-once should reconcile via
// `stats`/`poll`, which is what the chaos driver's invariants do.
// submit_all never retries once a frame has left (see its comment).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "daemon/job_manager.hpp"
#include "daemon/wire_format.hpp"
#include "graph/network.hpp"
#include "service/batch_engine.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace elpc::daemon {

/// Requests the pipelined helpers (submit_all, wait_all) keep in flight
/// on one connection.  Bounds the answers the daemon queues for a
/// client that is still writing; windows of 16 and 512 load a 2000-job
/// file no faster than 64.
inline constexpr std::size_t kPipelineWindow = 64;

/// The server answered ok=false; what() is the server's error text.
class DaemonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which wire protocol this client speaks (DaemonClientOptions::
/// protocol).
enum class ProtocolPreference {
  /// Negotiate via `hello`: the highest version both sides speak, v1
  /// when the server predates negotiation (answers unknown-verb).
  kAuto,
  /// Never send `hello` — the connection is byte-identical to a
  /// pre-negotiation client.
  kV1,
  /// Demand v2: a server that cannot speak it fails the connect with
  /// DaemonError instead of silently downgrading.
  kV2,
};

struct DaemonClientOptions {
  /// Reconnect-and-resend attempts after a transport failure (0 = fail
  /// on the first SocketError, the pre-retry behaviour for tests that
  /// assert on transport faults directly).
  std::size_t max_retries = 3;
  /// First backoff; doubles per attempt, each scaled by a uniform
  /// ±50% jitter so a fleet of retrying clients does not stampede.
  std::int64_t backoff_ms = 25;
  /// Stamp every typed-helper request with a generated trace id
  /// ("c<pid>-<seq>") unless the frame already carries one.  The daemon
  /// threads the id through its logs, the job's span, and the profiler
  /// timeline, and echoes it on the response.  Off = wire frames
  /// byte-identical to pre-trace clients.
  bool auto_trace = true;
  /// Shared auth token (daemon `serve --auth-token`): when non-empty,
  /// an `auth` frame is exchanged first thing after EVERY (re)connect —
  /// auth is connection state server-side, so a transparent retry
  /// reconnect must re-present the token or every retried request would
  /// bounce with code "unauthenticated".
  std::string auth_token;
  /// Wire protocol selection; negotiation (when not kV1) runs first
  /// thing after every (re)connect, before even auth — version is
  /// per-connection server state, exactly like the auth flag.
  ProtocolPreference protocol = ProtocolPreference::kAuto;
};

/// What `hello` negotiated for this connection.
struct HelloInfo {
  /// The version both ends speak (1 when negotiation was skipped or the
  /// server predates it).
  int version = 1;
  /// The server's advertised range (both 1 for a pre-hello server).
  int server_min = 1;
  int server_max = 1;
};

/// Typed poll/wait answer — the decoded status frame.  `result` is set
/// exactly when the job is terminal; to_json() reproduces the v1 wire
/// frame byte-for-byte (sorted keys, %.17g doubles), which is what lets
/// typed callers print output byte-identical to raw-frame callers.
struct JobStatusView {
  Ticket ticket = 0;
  std::string state;
  int priority = 0;
  /// The correlation id echoed on the frame ("" when none).
  std::string trace_id;
  /// The daemon released a wait without a terminal state because it is
  /// shutting down; the state will never advance.
  bool shutting_down = false;
  std::optional<service::SolveResult> result;

  [[nodiscard]] bool terminal() const { return result.has_value(); }
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static JobStatusView from_json(const util::Json& frame);
};

/// Typed drain report (the `drain` verb's answer).
struct DrainOutcome {
  bool drained = false;
  /// Jobs that turned terminal while draining / jobs the drain budget
  /// expired (mirrors JobManager::DrainReport).
  std::int64_t completed = 0;
  std::int64_t timed_out = 0;
  std::int64_t queued = 0;
  std::int64_t running = 0;
  std::int64_t pinned_revisions = 0;
  std::int64_t pinned_bytes = 0;
};

/// Typed view of the `stats` frame: the counters in-repo consumers
/// (chaos driver, CLI) actually branch on, plus the full frame in `raw`
/// for everything else (the stats payload grows too often to mirror
/// field-for-field).
struct StatsView {
  std::int64_t queued = 0;
  std::int64_t running = 0;
  std::int64_t submitted = 0;
  std::int64_t done = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t timed_out = 0;
  std::int64_t subscriptions = 0;
  std::int64_t checkpoints = 0;
  std::int64_t pinned_revisions = 0;
  std::int64_t pinned_bytes = 0;
  std::int64_t connections = 0;
  std::int64_t connections_v1 = 0;
  std::int64_t connections_v2 = 0;
  std::int64_t threads_os = 0;
  double uptime_ms = 0.0;
  util::Json raw;

  [[nodiscard]] static StatsView from_json(util::Json frame);
};

/// Where the daemon listens: a Unix-domain path (default, and what the
/// tests use) or a TCP host:port — the protocol is identical over both.
struct DaemonEndpoint {
  std::string unix_path;
  std::string tcp_host;
  int tcp_port = 0;

  [[nodiscard]] bool is_tcp() const { return unix_path.empty(); }
  [[nodiscard]] static DaemonEndpoint unix_path_at(std::string path) {
    DaemonEndpoint e;
    e.unix_path = std::move(path);
    return e;
  }
  [[nodiscard]] static DaemonEndpoint tcp_at(std::string host, int port) {
    DaemonEndpoint e;
    e.tcp_host = std::move(host);
    e.tcp_port = port;
    return e;
  }
};

class DaemonClient {
 public:
  /// Connects immediately; throws util::SocketError when no daemon
  /// listens at `socket_path`.
  explicit DaemonClient(const std::string& socket_path,
                        DaemonClientOptions options = {});
  /// Connects to a Unix-domain or TCP endpoint (with TCP_NODELAY);
  /// throws util::SocketError when nothing listens there.  DaemonError
  /// when auth_token is set and rejected — that is not retried.
  explicit DaemonClient(const DaemonEndpoint& endpoint,
                        DaemonClientOptions options = {});

  /// Sends one frame and returns the response frame as-is (ok=false is
  /// NOT raised here — callers inspecting raw responses want the error
  /// payload, not an exception).  Transport failures reconnect + retry
  /// per DaemonClientOptions (see the header comment for what is and
  /// is not retried).
  [[nodiscard]] util::Json request(const util::Json& frame);

  /// What the current connection negotiated (1 before any hello, after
  /// a fallback, or under ProtocolPreference::kV1).
  [[nodiscard]] int protocol_version() const { return hello_.version; }
  [[nodiscard]] const HelloInfo& hello_info() const { return hello_; }

  /// Writes the frame straight to text (graph::append_json, no Json
  /// tree); its bytes equal the dump() of the frame built as a tree.
  void register_network(const std::string& id, const graph::Network& network);
  [[nodiscard]] Ticket submit(const service::SolveJob& job, int priority = 0);
  /// Non-blocking status; "result" present once terminal.
  [[nodiscard]] util::Json poll(Ticket ticket);
  /// Blocks server-side until the job is terminal.
  [[nodiscard]] util::Json wait(Ticket ticket);
  /// Typed poll/wait: the decoded status frame (result set once
  /// terminal); to_json() round-trips to the raw frame byte-for-byte.
  [[nodiscard]] JobStatusView poll_status(Ticket ticket);
  /// wait_all({ticket}).front().
  [[nodiscard]] JobStatusView wait_status(Ticket ticket);
  /// Pipelined submit: the i-th ticket belongs to jobs[i] (synchronous
  /// answers arrive in request order).  At most kPipelineWindow submits
  /// are in flight at once.
  ///
  /// Never resends a frame: a resend could double-submit (exactly-once
  /// needs the idempotency key the protocol does not have yet).  Only
  /// the connect before the first frame is retried; any later
  /// SocketError closes the connection and is rethrown, and the jobs
  /// already sent may or may not be queued.
  ///
  /// An ok=false answer (e.g. a malformed or rejected job) throws
  /// DaemonError with the server's text after the rest of the window's
  /// answers are read, so the connection stays in sync and usable.  No
  /// frame is sent after the rejection is seen, but up to
  /// kPipelineWindow - 1 jobs behind the rejected one may already be
  /// queued; their tickets are not returned.
  [[nodiscard]] std::vector<Ticket> submit_all(
      std::span<const service::SolveJob> jobs, int priority = 0);
  /// Pipelined wait: blocks until every ticket is answered and returns
  /// the statuses in ticket order.  At most kPipelineWindow waits are in
  /// flight at once; their out-of-band answers are correlated by the
  /// `ticket` field.  A wait is idempotent, so a SocketError reconnects
  /// (max_retries, backoff) and re-issues only the waits not yet
  /// answered.  An ok=false answer (e.g. an unknown ticket) throws
  /// DaemonError and closes the connection, because answers to the
  /// other waits in flight would still arrive on it.
  [[nodiscard]] std::vector<JobStatusView> wait_all(
      std::span<const Ticket> tickets);
  [[nodiscard]] bool cancel(Ticket ticket);
  /// Returns the re-solved subscription result entries as raw JSON (the
  /// wire shape — what byte-compat comparisons diff).
  [[nodiscard]] std::vector<util::Json> apply_link_updates(
      const std::string& network, std::span<const graph::LinkUpdate> updates);
  /// Typed apply_link_updates.  On a v2 connection the request itself
  /// leaves as one binary link-update table frame (the bulk data plane)
  /// instead of a JSON array.
  [[nodiscard]] std::vector<service::SolveResult> resolve_link_updates(
      const std::string& network, std::span<const graph::LinkUpdate> updates);
  void pause();
  void resume();
  [[nodiscard]] util::Json stats();
  /// Typed stats: the counters consumers branch on, full frame in .raw.
  [[nodiscard]] StatsView stats_view() {
    return StatsView::from_json(stats());
  }
  /// Prometheus text exposition from the daemon's metrics registry.
  [[nodiscard]] std::string metrics();
  /// Server-side slowlog narrowing: empty/zero fields mean "no filter".
  struct SlowlogFilter {
    std::string state;   // terminal state name, e.g. "timed_out"
    std::string kernel;  // resolved kernel name, e.g. "avx2"
    double min_ms = 0.0; // keep spans with e2e_ms >= this
  };
  /// Slow-solve ring dump: {"slow_ms", "total", "entries": [spans]}.
  /// `total` is the unfiltered cumulative count either way.
  [[nodiscard]] util::Json slowlog() { return slowlog(SlowlogFilter{}); }
  [[nodiscard]] util::Json slowlog(const SlowlogFilter& filter);
  /// Chrome-trace export: drains the daemon's profiler rings (each
  /// event is returned exactly once across trace() calls) and attaches
  /// the retained terminal spans.  The "trace" field is the document to
  /// write to disk; the siblings carry ring accounting.
  [[nodiscard]] util::Json trace();
  /// Graceful drain (see JobManager::drain); returns the report frame
  /// ("drained", "completed", "timed_out", pin counters).
  [[nodiscard]] util::Json drain(std::int64_t timeout_ms);
  /// Typed drain report.
  [[nodiscard]] DrainOutcome drain_report(std::int64_t timeout_ms);
  /// Asks the daemon to shut down.  An answer lost with the connection
  /// counts as done when the daemon then refuses connections.
  void shutdown_server();

 private:
  /// request() + raise DaemonError on ok=false.  Stamps the auto trace
  /// id first (see DaemonClientOptions::auto_trace).
  util::Json checked(util::Json frame);
  /// checked() of a frame already dumped (and stamped) to `payload`.
  util::Json checked_line(const std::string& payload);
  /// request() of a frame already dumped to `payload`.
  util::Json request_line(const std::string& payload);
  /// Stamps the auto trace id on `frame` unless it already carries one
  /// or auto_trace is off.
  void stamp_trace(util::Json& frame);
  /// Next generated id: "c<pid>-<seq>".
  [[nodiscard]] std::string next_trace_id();
  /// (Re)connects socket_ to endpoint_, negotiates the protocol (unless
  /// pinned to v1), and runs the auth handshake when a token is
  /// configured.
  void connect_socket();
  /// One answer as received: the control frame and, when a v2 control
  /// line announced a binary result table, the table decoded.  The
  /// "payload" marker is then removed from `frame` and `payload_field`
  /// names the member the results stand for ("result" holds exactly
  /// one entry, "results" any number); otherwise `payload_field` is
  /// empty.
  struct Received {
    util::Json frame;
    std::string payload_field;
    std::vector<service::SolveResult> results;
  };
  /// Receives one response line and, when it carries a v2 "payload"
  /// marker, the adjacent binary frame, decoded once.
  [[nodiscard]] Received recv_frame();
  /// recv_frame() reinflated into the v1 JSON shape, so raw callers
  /// never see a difference between protocols.
  [[nodiscard]] util::Json recv_response();
  /// Runs `exchange` on a connected socket, connecting first when it is
  /// closed.  A transport failure (util::SocketError) closes the socket
  /// and reruns the whole step, up to options_.max_retries times, after
  /// an exponential backoff with ±50% jitter.  A util::SocketTimeout is
  /// never retried: the connection is healthy and the request may still
  /// be executing server-side, so a rerun could double-run it.
  void with_retries(const std::function<void()>& exchange);

  const DaemonClientOptions options_;
  const DaemonEndpoint endpoint_;  // retries reconnect here
  util::StreamSocket socket_;
  HelloInfo hello_;  // what the CURRENT connection negotiated
  std::mt19937 rng_;  // backoff jitter only — never affects results
  std::uint64_t trace_seq_ = 0;
};

}  // namespace elpc::daemon
