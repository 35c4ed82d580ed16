#pragma once
// SocketServer — the mapping daemon's wire front end: line-delimited
// JSON request/response frames, one verb per line, dispatched onto a
// JobManager + BatchEngine pair the server owns.  Connections arrive
// over a Unix-domain socket (always) and, when enabled, a TCP listener
// speaking the identical protocol.
//
// Request:  {"verb": "...", ...verb fields}
// Response: {"ok": true, ...payload} | {"ok": false, "error": "..."}
//           (new error classes — auth, quotas, protocol — also carry a
//           stable "code" field; see docs/protocol.md, the normative
//           wire reference)
//
// Verbs: auth, hello (protocol negotiation), register_network, submit,
// poll, wait, cancel, apply_link_updates, pause, resume, stats, metrics,
// slowlog, trace, drain, shutdown — one row each in the verb table
// (find_verb in socket_server.cpp); docs/protocol.md §3 is the normative
// field reference.
//
// One request path.  Every verb is one row of a table — {name,
// auth_exempt, handler} — and every request, whether it arrived as a
// JSON line, as a v2 binary kLinkUpdateTable frame (decoded into the
// apply_link_updates handler), or through the direct handle() call, runs
// through one wrapper: the request's trace_id becomes the thread's
// util::trace_context and is echoed on the response, the auth gate
// consults the row, and an exception becomes an ok=false frame.  A
// handler returns a Reply — control JSON plus the SolveResults it
// carries — and one renderer sends it in the connection's negotiated
// version: v1 inlines the results as `result`/`results`, v2 marks the
// control line with "payload" and ships them as one kResultTable frame.
// `wait` and `drain` answer later through a completion sink that captured
// the connection's version when the request arrived.
//
// A malformed or failing request answers ok=false on that frame; the
// connection (and the daemon) stays up — clients must never be able to
// crash the server with bad input.  An overlong unterminated frame
// (the 16MiB byte cap) answers one error frame and closes that
// connection: the stream cannot re-sync.
//
// Concurrency model: a fixed pool of epoll IO workers (ConnectionMux)
// multiplexes every connection, so the daemon's thread count is constant
// in the number of clients.  `wait` and `drain` each register one
// JobManager callback (the manager answers a drain from its expiry
// thread) — a pending request costs a closure, not a thread, and never
// stalls other clients.
// Request handling itself is thread-safe (JobManager and BatchEngine
// carry their own locks).
//
// Optional shared-token auth (auth_token option / serve --auth-token):
// until a connection presents the token via the `auth` verb
// (constant-time compare), every verb whose row is not auth-exempt
// (`auth`, `hello`, `stats` are) answers {"ok": false, "code":
// "unauthenticated"}.  Per-connection quotas (max_inflight_jobs /
// max_inflight_bytes) bound what one client may keep in flight;
// rejections carry code "quota_jobs" / "quota_bytes" and bump
// elpc_quota_rejections_total.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "daemon/connection_mux.hpp"
#include "daemon/job_manager.hpp"
#include "daemon/trace.hpp"
#include "graph/network.hpp"
#include "service/batch_engine.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"

namespace elpc::daemon {

struct SocketServerOptions {
  /// Forwarded to the owned BatchEngine.
  std::size_t threads = 0;
  std::size_t checkpoint_budget_bytes = 0;
  /// Incremental delta-driven re-solves for subscribed frame-rate jobs
  /// (service::BatchEngineOptions::incremental); `stats` reports
  /// hits/misses and columns reused.
  bool incremental = false;
  /// Frame-rate kernel for every ELPC solve (resolved at engine
  /// construction; `stats` reports the result and per-kernel job counts).
  core::kernels::Kind kernel = core::kernels::Kind::kAuto;
  /// Forwarded to the owned JobManager.
  bool start_paused = false;
  /// Mapper resolution for the engine (empty = built-in "ELPC" only;
  /// the CLI installs the full registry).
  service::MapperFactory factory;
  /// Slow-solve threshold (`serve --slow-ms`): a terminal job whose
  /// end-to-end time reaches this many milliseconds is retained in the
  /// slowlog ring, dumpable via the `slowlog` verb.  0 = off.
  std::int64_t slow_ms = 0;
  /// Enable the phase profiler at construction (`serve --profile`):
  /// solves record begin/end events into the per-thread rings that the
  /// `trace` verb drains.  Off, the instrumentation costs one relaxed
  /// atomic load per scope; the `trace` verb still answers (spans only).
  bool profile = false;

  // ---- front-end (multiplexer / TCP / auth / quota) options ----
  /// Serve the same protocol over TCP as well (`serve --tcp host:port`).
  /// Port 0 binds an ephemeral port; tcp_port() reports the result.
  bool tcp = false;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = 0;
  /// Shared-token auth (empty = off).  Compared constant-time; failed
  /// attempts bump elpc_auth_failures_total.
  std::string auth_token;
  /// Epoll IO worker threads (ConnectionMux; the daemon's steady-state
  /// thread cost for any number of connections).
  std::size_t io_workers = 2;
  /// Per-connection pending-response cap before a slow consumer is
  /// disconnected (reason "backpressure").
  std::size_t max_write_queue_bytes = 8ull << 20;
  /// Per-connection quota on jobs submitted and not yet terminal
  /// (0 = unlimited); exceeded submits answer code "quota_jobs".
  std::size_t max_inflight_jobs = 0;
  /// Per-connection quota on the summed request bytes of in-flight
  /// jobs (0 = unlimited); exceeded submits answer code "quota_bytes".
  std::size_t max_inflight_bytes = 0;
};

class SocketServer {
 public:
  /// Binds `socket_path` (and the TCP endpoint when enabled)
  /// immediately — throws util::SocketError when either is unusable;
  /// serving starts with serve().
  SocketServer(std::string socket_path, SocketServerOptions options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Starts the IO workers and blocks until a `shutdown` verb or
  /// stop(); tears the multiplexer down before returning.
  void serve();

  /// Unblocks serve() from another thread (idempotent).
  void stop();

  [[nodiscard]] const std::string& socket_path() const {
    return listeners_[kUnixListener]->path();
  }
  /// The bound TCP port (resolves a port-0 request), or -1 with TCP off.
  [[nodiscard]] int tcp_port() const {
    return listeners_.size() > kTcpListener ? listeners_[kTcpListener]->port()
                                            : -1;
  }

  /// The owned engine/manager, exposed for in-process tests that compare
  /// daemon answers against direct calls.
  [[nodiscard]] service::BatchEngine& engine() { return *engine_; }
  [[nodiscard]] JobManager& manager() { return *manager_; }

  /// The daemon's one metrics source of truth: the engine's and
  /// manager's counters/histograms land here, and a collect callback
  /// refreshes the stats-table gauges from live stats at every
  /// exposition (`metrics` verb, the snapshot embedded in `stats`).
  [[nodiscard]] util::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] SlowLog& slowlog() { return slowlog_; }
  /// Every terminal span (the `trace` verb's parent slices), not just
  /// the slow ones.
  [[nodiscard]] SlowLog& tracelog() { return tracelog_; }

  /// Positions in the listener list: the Unix socket always, then TCP
  /// when enabled.
  enum ListenerSlot : std::size_t {
    kUnixListener,
    kTcpListener,
    kListenerSlots
  };

  /// Runs one already-parsed request through the verb table and returns
  /// the response frame — exactly the JSON line a v1 connection receives
  /// for the same request.  A thin adapter over the socket path: the
  /// request runs on an in-process, authenticated, v1 connection context
  /// with no quota history (thread-safe; never throws; failures become
  /// {"ok": false, "error": ...}).  `wait` and `drain` answer an error
  /// here instead of blocking: their replies are completion-driven and
  /// need a connection to arrive on.
  [[nodiscard]] util::Json handle(const util::Json& request);

  /// One counter sample the stats-field getters read from.
  struct StatsSample {
    const SocketServer& server;
    JobManagerStats jobs;
    service::EngineStats engine;
    /// Per listener slot: connections open now, and ever accepted.
    std::size_t live_on[kListenerSlots] = {};
    std::uint64_t accepted_on[kListenerSlots] = {};
    std::size_t live = 0;
    std::size_t live_v2 = 0;  // ...of which negotiated v2
    double uptime_ms = 0.0;
  };
  /// One stats field, declared once: rendered into the `stats` verb's
  /// JSON under `key` and, when `family` is set, refreshed as a gauge of
  /// that family at every metrics exposition.
  struct StatsField {
    const char* key;     // nullptr = metrics only
    const char* family;  // nullptr = `stats` JSON only
    util::Json (*get)(const StatsSample& sample);
    const char* help = nullptr;
    util::MetricLabels labels = {};
    /// Cumulative at source: the gauge is exposed with counter type.
    bool counter = false;
  };
  /// The stats-field table (`stats` JSON and Prometheus gauges both
  /// render from it).
  [[nodiscard]] static const std::vector<StatsField>& stats_fields();

 private:
  /// Per-connection protocol state, attached to MuxConnection::
  /// user_state.  The flags are worker-only; the quota counters are
  /// atomics because completion callbacks decrement them from
  /// engine worker threads.
  struct ConnState {
    bool authenticated = false;
    /// Negotiated wire protocol version (1 until a successful `hello`).
    int version = 1;
    std::atomic<std::size_t> inflight_jobs{0};
    std::atomic<std::size_t> inflight_bytes{0};
  };

  /// A verb's answer: the control JSON plus the results it carries
  /// (`payload` names them: "result" for one job status, "results" for
  /// a list, nullptr for none).  send() renders it per protocol version.
  struct Reply {
    Reply(util::Json control_json = {})  // NOLINT(google-explicit-constructor)
        : control(std::move(control_json)) {}
    Reply(util::Json control_json, std::vector<service::SolveResult> carried,
          const char* marker)
        : control(std::move(control_json)),
          results(std::move(carried)),
          payload(marker) {}
    util::Json control;
    std::vector<service::SolveResult> results;
    const char* payload = nullptr;
  };
  /// nullopt = the handler deferred its answer to completion_sink(),
  /// which throws without a connection: the direct path always answers.
  using Answer = std::optional<Reply>;
  /// A line request's top-level `network` object, read straight from the
  /// frame's text in the pass that parses the frame
  /// (graph::read_network_json): the network, or the schema refusal the
  /// read deferred until register_network takes it.
  struct FrameNetwork {
    bool read = false;
    /// Where the value sits in the frame.
    std::size_t begin = 0;
    std::size_t end = 0;
    graph::Network network;
    std::exception_ptr error;

    /// The network, or its deferred refusal thrown.
    graph::Network take();
  };
  /// The connection a request arrived on, as the handlers see it.
  struct ConnCtx {
    /// Null on the direct handle() path (no connection to renegotiate or
    /// to answer a deferred reply on).
    std::shared_ptr<MuxConnection> conn;
    std::shared_ptr<ConnState> state;
    std::size_t frame_bytes = 0;
    /// Negotiated version when the request arrived: a deferred reply
    /// speaks it even if the connection renegotiates meanwhile.
    int version = 1;
    std::string trace_id;
    /// A v2 binary request's frame (header + payload); null for a line.
    const wire::FrameHeader* frame = nullptr;
    std::string_view frame_payload = {};
    /// A register_network line's network, read with its frame; null when
    /// the request holds it as a tree (the direct handle() path).
    FrameNetwork* network = nullptr;
  };
  using Handler = Answer (SocketServer::*)(const util::Json& request,
                                           ConnCtx& ctx);
  struct Verb {
    std::string_view name;
    /// Served before `auth` on an auth-token daemon.
    bool auth_exempt;
    Handler handler;
  };
  /// The verb table row named by the request's "verb", or nullptr.
  [[nodiscard]] static const Verb* find_verb(std::string_view name);

  /// The mux callbacks: one JSON-line request, one v2 binary request
  /// (decoded by the apply_link_updates handler).
  void on_frame(const std::shared_ptr<MuxConnection>& conn,
                std::string_view line);
  void on_binary_frame(const std::shared_ptr<MuxConnection>& conn,
                       const wire::FrameHeader& header,
                       std::string_view payload);
  [[nodiscard]] ConnCtx context(const std::shared_ptr<MuxConnection>& conn,
                                std::size_t frame_bytes);
  /// The one request path: trace context + echo, auth gate, the verb's
  /// handler, exception → error frame.
  [[nodiscard]] Answer dispatch(const util::Json& request, ConnCtx& ctx);
  /// The auth gate: auth off, an authenticated connection, or an
  /// auth-exempt verb (nullptr = unknown verb, never exempt).
  [[nodiscard]] bool admitted(const ConnCtx& ctx, const Verb* verb) const;
  [[nodiscard]] static util::Json unauthenticated_response();
  /// Where a deferred reply (`wait`, `drain`) goes once it is ready: the
  /// connection, if still open, in the version the request arrived on,
  /// with the request's trace id echoed.
  struct Sink {
    std::weak_ptr<MuxConnection> conn;
    int version;
    std::string trace_id;
    void operator()(Reply reply) const;
  };
  /// The request's sink; throws on the direct path (no connection).
  [[nodiscard]] static Sink completion_sink(const ConnCtx& ctx);
  /// Renders `reply` in protocol `version` onto `conn`.
  static void send(MuxConnection& conn, Reply reply, int version);
  /// The v1 rendering: results inlined into the control JSON.
  [[nodiscard]] static util::Json inline_results(Reply reply);
  [[nodiscard]] static Reply status_reply(JobStatus status);
  [[nodiscard]] StatsSample sample_stats() const;
  /// The `stats` verb's frame: every keyed stats field, then kernel_jobs,
  /// build info and the compact metrics snapshot.
  [[nodiscard]] util::Json stats_json();
  /// Resolves a gauge per stats-field family and registers the collect
  /// callback that refreshes them from live stats.
  void register_collectors();

  // The verb handlers (one per table row).
  Answer verb_auth(const util::Json& request, ConnCtx& ctx);
  Answer verb_hello(const util::Json& request, ConnCtx& ctx);
  Answer verb_register_network(const util::Json& request, ConnCtx& ctx);
  Answer verb_submit(const util::Json& request, ConnCtx& ctx);
  Answer verb_poll(const util::Json& request, ConnCtx& ctx);
  Answer verb_wait(const util::Json& request, ConnCtx& ctx);
  Answer verb_cancel(const util::Json& request, ConnCtx& ctx);
  Answer verb_apply_link_updates(const util::Json& request, ConnCtx& ctx);
  Answer verb_pause(const util::Json& request, ConnCtx& ctx);
  Answer verb_resume(const util::Json& request, ConnCtx& ctx);
  Answer verb_stats(const util::Json& request, ConnCtx& ctx);
  Answer verb_metrics(const util::Json& request, ConnCtx& ctx);
  Answer verb_slowlog(const util::Json& request, ConnCtx& ctx);
  Answer verb_trace(const util::Json& request, ConnCtx& ctx);
  Answer verb_drain(const util::Json& request, ConnCtx& ctx);
  Answer verb_shutdown(const util::Json& request, ConnCtx& ctx);

  /// Indexed by ListenerSlot.
  std::vector<std::unique_ptr<util::Listener>> listeners_;
  /// Declared before the engine/manager so the metric references they
  /// resolve at construction outlive them on teardown.
  util::MetricsRegistry metrics_;
  SlowLog slowlog_;
  SlowLog tracelog_;
  SocketServerOptions options_;
  std::chrono::steady_clock::time_point started_;
  std::int64_t started_unix_ms_ = 0;
  std::unique_ptr<service::BatchEngine> engine_;
  std::unique_ptr<JobManager> manager_;
  util::Counter* auth_failures_c_ = nullptr;
  util::Counter* quota_rejections_c_ = nullptr;
  /// Live connections that negotiated protocol v2 (incremented on a
  /// successful hello, decremented on that connection's disconnect);
  /// live v1 = mux connection count minus this.
  std::atomic<std::size_t> live_v2_{0};
  /// Set by the shutdown verb (any IO worker); wakes serve().
  std::atomic<bool> shutdown_requested_{false};
  std::mutex serve_mutex_;
  std::condition_variable serve_cv_;
  /// Last member: its workers call back into everything above, so it
  /// must die (stop) first.
  std::unique_ptr<ConnectionMux> mux_;
};

}  // namespace elpc::daemon
