#include "daemon/socket_server.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "daemon/error_codes.hpp"
#include "daemon/trace_export.hpp"
#include "graph/serialize.hpp"
#include "service/serialize.hpp"
#include "util/profiler.hpp"
#include "util/strings.hpp"
#include "util/trace_context.hpp"

namespace elpc::daemon {

namespace {

util::Json ok_response() {
  util::Json response = util::JsonObject{};
  response.set("ok", true);
  return response;
}

util::Json error_response(const std::string& message) {
  util::Json response = util::JsonObject{};
  response.set("ok", false);
  response.set("error", message);
  return response;
}

/// Error frame with a stable machine-readable code — used only by the
/// error classes introduced with the multiplexed front end (auth,
/// quotas, protocol framing), so pre-existing error texts stay
/// byte-identical for clients that match on them.
util::Json error_response(const std::string& message,
                          const std::string& code) {
  util::Json response = error_response(message);
  response.set("code", code);
  return response;
}

Ticket ticket_field(const util::Json& request) {
  const std::int64_t raw = request.at("ticket").as_int();
  if (raw < 0) {
    throw std::invalid_argument("ticket must be >= 0");
  }
  return static_cast<Ticket>(raw);
}

/// The request's trace id ("" when absent/not a string).
std::string trace_field(const util::Json& request) {
  if (const util::Json* trace = request.find("trace_id")) {
    if (trace->is_string()) {
      return trace->as_string();
    }
  }
  return "";
}

/// Echo the request's trace id onto its response, unless the response
/// already names one (a terminal status echoes the job's own id).
void echo_trace(const std::string& trace_id, util::Json& response) {
  if (!trace_id.empty() && !response.contains("trace_id")) {
    response.set("trace_id", trace_id);
  }
}

}  // namespace

const SocketServer::Verb* SocketServer::find_verb(std::string_view name) {
  static constexpr Verb kVerbs[] = {
      // name, auth_exempt, handler
      {"auth", true, &SocketServer::verb_auth},
      // Like `stats`, negotiation is served unauthenticated: a client
      // must learn what the endpoint speaks before deciding how to auth.
      {"hello", true, &SocketServer::verb_hello},
      {"register_network", false, &SocketServer::verb_register_network},
      {"submit", false, &SocketServer::verb_submit},
      {"poll", false, &SocketServer::verb_poll},
      {"wait", false, &SocketServer::verb_wait},
      {"cancel", false, &SocketServer::verb_cancel},
      {"apply_link_updates", false, &SocketServer::verb_apply_link_updates},
      {"pause", false, &SocketServer::verb_pause},
      {"resume", false, &SocketServer::verb_resume},
      {"stats", true, &SocketServer::verb_stats},
      {"metrics", false, &SocketServer::verb_metrics},
      {"slowlog", false, &SocketServer::verb_slowlog},
      {"trace", false, &SocketServer::verb_trace},
      {"drain", false, &SocketServer::verb_drain},
      {"shutdown", false, &SocketServer::verb_shutdown},
  };
  for (const Verb& verb : kVerbs) {
    if (verb.name == name) {
      return &verb;
    }
  }
  return nullptr;
}

SocketServer::SocketServer(std::string socket_path,
                           SocketServerOptions options)
    : slowlog_(kSlowLogCapacity),
      tracelog_(kTraceLogCapacity),
      options_(std::move(options)),
      started_(std::chrono::steady_clock::now()),
      started_unix_ms_(std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count()) {
  // Bound before any thread starts, so an unusable endpoint throws here.
  listeners_.push_back(util::Listener::unix_at(socket_path));
  if (options_.tcp) {
    listeners_.push_back(
        util::Listener::tcp_at(options_.tcp_host, options_.tcp_port));
  }
  if (options_.profile) {
    util::Profiler::set_enabled(true);
  }
  service::BatchEngineOptions engine_options;
  engine_options.threads = options_.threads;
  engine_options.factory = std::move(options_.factory);
  engine_options.checkpoint_budget_bytes = options_.checkpoint_budget_bytes;
  engine_options.kernel = options_.kernel;
  engine_options.incremental = options_.incremental;
  // One registry across the engine, the manager, and the server's own
  // gauges: the daemon's single metrics source of truth.
  engine_options.metrics = &metrics_;
  engine_ = std::make_unique<service::BatchEngine>(engine_options);

  JobManagerOptions manager_options;
  manager_options.start_paused = options_.start_paused;
  manager_options.metrics = &metrics_;
  manager_options.slowlog = &slowlog_;
  manager_options.slow_ms = options_.slow_ms;
  manager_options.tracelog = &tracelog_;
  manager_ = std::make_unique<JobManager>(*engine_, manager_options);

  auth_failures_c_ = &metrics_.counter("elpc_auth_failures_total",
                                       "Auth attempts with a bad token");
  quota_rejections_c_ =
      &metrics_.counter("elpc_quota_rejections_total",
                        "Requests rejected by per-connection quotas");
  register_collectors();

  MuxOptions mux_options;
  mux_options.io_workers = options_.io_workers;
  mux_options.max_write_queue_bytes = options_.max_write_queue_bytes;
  MuxCallbacks callbacks;
  callbacks.on_frame = [this](const std::shared_ptr<MuxConnection>& conn,
                              std::string_view line) {
    on_frame(conn, line);
  };
  callbacks.on_binary_frame =
      [this](const std::shared_ptr<MuxConnection>& conn,
             const wire::FrameHeader& header, std::string_view payload) {
        on_binary_frame(conn, header, payload);
      };
  callbacks.on_disconnect = [this](const std::shared_ptr<MuxConnection>& conn,
                                   const std::string& reason) {
    if (const auto state =
            std::static_pointer_cast<ConnState>(conn->user_state)) {
      if (state->version >= 2) {
        live_v2_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    metrics_
        .counter("elpc_disconnects_total", "Connections closed, by reason",
                 {{"reason", reason}})
        .add();
  };
  callbacks.frame_error_line = [](const std::string& diagnostic) {
    return error_response("protocol error: " + diagnostic, codes::kProtocol)
        .dump();
  };
  mux_ = std::make_unique<ConnectionMux>(mux_options, std::move(callbacks));
  for (const auto& listener : listeners_) {
    mux_->add_listener(listener.get());
  }
}

SocketServer::~SocketServer() {
  stop();
  mux_->stop();      // joins the IO workers before anything they use dies
  manager_->stop();  // releases any still-pending wait callbacks
}

void SocketServer::serve() {
  mux_->start();
  {
    std::unique_lock<std::mutex> lock(serve_mutex_);
    serve_cv_.wait(lock, [this]() {
      return shutdown_requested_.load(std::memory_order_acquire);
    });
  }
  // stop(), the only way here, closed the listeners.  Stop the manager
  // FIRST: pending `wait` callbacks fire with shutting_down set and their
  // responses enter the write queues, which the mux flushes best-effort
  // while tearing down.
  manager_->stop();
  mux_->stop();
}

void SocketServer::stop() {
  shutdown_requested_.store(true, std::memory_order_release);
  serve_cv_.notify_all();
  // New connections must find a closed door while teardown runs.
  for (const auto& listener : listeners_) {
    listener->close();
  }
}

SocketServer::ConnCtx SocketServer::context(
    const std::shared_ptr<MuxConnection>& conn, std::size_t frame_bytes) {
  auto state = std::static_pointer_cast<ConnState>(conn->user_state);
  if (!state) {
    state = std::make_shared<ConnState>();
    conn->user_state = state;
  }
  const int version = state->version;
  return ConnCtx{conn, std::move(state), frame_bytes, version, ""};
}

void SocketServer::on_frame(const std::shared_ptr<MuxConnection>& conn,
                            std::string_view line) {
  ConnCtx ctx = context(conn, line.size());
  util::Json request;
  // A top-level `network` object is built into a Network in the pass
  // that parses the frame, with no tree for it.  Its schema refusal is
  // held back for the verb, so a frame answers the error it would have
  // answered parsed whole and walked.
  FrameNetwork network;
  try {
    const auto read_network = [&network](util::JsonCursor& in) {
      network.read = true;
      network.begin = in.offset();
      network.error = nullptr;
      try {
        network.network = graph::read_network_json(in);
      } catch (const util::JsonParseError&) {
        throw;
      } catch (...) {
        network.error = std::current_exception();
      }
      network.end = in.offset();
    };
    request = util::Json::parse(line, "network", read_network);
  } catch (const util::JsonError& e) {
    send(*conn, error_response(std::string("malformed request: ") + e.what()),
         ctx.version);
    return;
  }
  if (network.read && !request.contains("network")) {
    const util::Json* verb = request.find("verb");
    if (verb != nullptr && verb->is_string() &&
        verb->as_string() == "register_network") {
      ctx.network = &network;
    } else {
      // Any other verb sees the member as the tree it always saw.
      request.set("network", util::Json::parse(line.substr(
                                 network.begin, network.end - network.begin)));
    }
  }
  if (Answer answer = dispatch(request, ctx)) {
    send(*conn, std::move(*answer), ctx.version);
  }
}

void SocketServer::on_binary_frame(const std::shared_ptr<MuxConnection>& conn,
                                   const wire::FrameHeader& header,
                                   std::string_view payload) {
  // A well-formed frame arrived, so the stream is still in sync — these
  // failures answer one error line and keep the connection, unlike the
  // mux-level framing violations (bad magic, over-cap) that must close.
  ConnCtx ctx = context(conn, payload.size());
  if (ctx.version < 2) {
    send(*conn,
         error_response("binary frame before a v2 hello", codes::kProtocol),
         ctx.version);
    return;
  }
  // The one binary request is the bulk apply_link_updates: it runs the
  // verb's table row with the frame attached.
  static const util::Json kRequest = [] {
    util::Json request = util::JsonObject{};
    request.set("verb", "apply_link_updates");
    return request;
  }();
  ctx.frame = &header;
  ctx.frame_payload = payload;
  if (Answer answer = dispatch(kRequest, ctx)) {
    send(*conn, std::move(*answer), ctx.version);
  }
}

util::Json SocketServer::handle(const util::Json& request) {
  ConnCtx ctx{nullptr, std::make_shared<ConnState>(), 0, 1, ""};
  ctx.state->authenticated = true;
  // Without a connection no handler defers: completion_sink() throws.
  return inline_results(std::move(*dispatch(request, ctx)));
}

SocketServer::Answer SocketServer::dispatch(const util::Json& request,
                                            ConnCtx& ctx) {
  // The request's trace id scopes the whole exchange: log lines and
  // profiler events emitted while handling the verb carry it, and the
  // response echoes it so the client can match frames to ids.
  ctx.trace_id = trace_field(request);
  const util::ScopedTraceContext trace_scope(ctx.trace_id);
  Answer answer;
  try {
    const util::Json* name = request.find("verb");
    const Verb* verb = name != nullptr && name->is_string()
                           ? find_verb(name->as_string())
                           : nullptr;
    if (!admitted(ctx, verb)) {
      answer = unauthenticated_response();
    } else if (verb == nullptr) {
      answer = error_response("unknown verb '" +
                              request.at("verb").as_string() + "'");
    } else {
      answer = (this->*verb->handler)(request, ctx);
    }
  } catch (const std::exception& e) {
    answer = error_response(e.what());
  }
  if (answer) {
    echo_trace(ctx.trace_id, answer->control);
  }
  return answer;
}

bool SocketServer::admitted(const ConnCtx& ctx, const Verb* verb) const {
  return options_.auth_token.empty() || ctx.state->authenticated ||
         (verb != nullptr && verb->auth_exempt);
}

util::Json SocketServer::unauthenticated_response() {
  return error_response(
      "authentication required: send {\"verb\": \"auth\", \"token\": ...} "
      "first (only `stats` is served unauthenticated)",
      codes::kUnauthenticated);
}

SocketServer::Sink SocketServer::completion_sink(const ConnCtx& ctx) {
  if (!ctx.conn) {
    throw std::logic_error(
        "wait and drain answer completion-driven and need a connection; "
        "the direct handle() path does not serve them");
  }
  return Sink{ctx.conn, ctx.version, ctx.trace_id};
}

void SocketServer::Sink::operator()(Reply reply) const {
  // The connection may be long gone when the reply is ready: the client
  // hung up, and a result stays pollable by ticket.
  if (const std::shared_ptr<MuxConnection> target = conn.lock()) {
    echo_trace(trace_id, reply.control);
    send(*target, std::move(reply), version);
  }
}

void SocketServer::send(MuxConnection& conn, Reply reply, int version) {
  if (version < 2 || reply.payload == nullptr) {
    const std::string line = inline_results(std::move(reply)).dump();
    const util::ProfileScope write_phase("write_enqueue", "daemon");
    conn.send_line(line);
    return;
  }
  // v2: the control line names the payload; the results leave as one
  // binary result-table frame a client reinflates into the v1 JSON.
  reply.control.set("payload", reply.payload);
  std::string frame;
  {
    const util::ProfileScope serialize_phase("serialize", "daemon",
                                             reply.results.size());
    frame = wire::encode_result_table(reply.results);
  }
  const util::ProfileScope write_phase("write_enqueue", "daemon");
  conn.send_line_with_frame(reply.control.dump(),
                            wire::FrameType::kResultTable, std::move(frame));
}

util::Json SocketServer::inline_results(Reply reply) {
  if (reply.payload != nullptr) {
    const util::ProfileScope serialize_phase("serialize", "daemon",
                                             reply.results.size());
    wire::inline_results(reply.control, reply.payload, reply.results);
  }
  return std::move(reply.control);
}

SocketServer::Reply SocketServer::status_reply(JobStatus status) {
  Reply reply{ok_response()};
  reply.control.set("ticket", status.ticket);
  reply.control.set("state", job_state_name(status.state));
  reply.control.set("priority", status.priority);
  if (!status.trace_id.empty()) {
    reply.control.set("trace_id", status.trace_id);
  }
  if (status.shutting_down) {
    // `wait` released without a terminal state because the daemon is
    // going down — the state will never advance, so don't re-wait.
    reply.control.set("shutting_down", true);
  }
  if (status.terminal()) {
    reply.results.push_back(std::move(status.result));
    reply.payload = "result";
  }
  return reply;
}

SocketServer::Answer SocketServer::verb_auth(const util::Json& request,
                                             ConnCtx& ctx) {
  std::string token;
  if (const util::Json* t = request.find("token")) {
    if (t->is_string()) {
      token = t->as_string();
    }
  }
  // With auth off every connection is born authorized; accepting the
  // verb anyway lets one client config speak to both deployments.
  if (!options_.auth_token.empty() &&
      !util::constant_time_equals(token, options_.auth_token)) {
    auth_failures_c_->add();
    return error_response("invalid auth token", codes::kAuthFailed);
  }
  ctx.state->authenticated = true;
  util::Json response = ok_response();
  response.set("authenticated", true);
  return response;
}

SocketServer::Answer SocketServer::verb_hello(const util::Json& request,
                                              ConnCtx& ctx) {
  // Intersect the client's advertised range with ours; disjoint ranges
  // answer code "version_mismatch" and leave the connection as it is.
  std::int64_t client_min = 1;
  std::int64_t client_max = 1;
  if (const util::Json* v = request.find("min_version")) {
    client_min = v->as_int();
  }
  if (const util::Json* v = request.find("max_version")) {
    client_max = v->as_int();
  }
  if (client_min > client_max) {
    return error_response(
        "malformed hello: min_version " + std::to_string(client_min) +
            " > max_version " + std::to_string(client_max),
        codes::kProtocol);
  }
  const std::int64_t lo = std::max<std::int64_t>(
      client_min, static_cast<std::int64_t>(wire::kProtocolVersionMin));
  const std::int64_t hi = std::min<std::int64_t>(
      client_max, static_cast<std::int64_t>(wire::kProtocolVersionMax));
  util::Json response;
  if (lo > hi) {
    response = error_response(
        "no common protocol version (client speaks " +
            std::to_string(client_min) + ".." + std::to_string(client_max) +
            ", server speaks " + std::to_string(wire::kProtocolVersionMin) +
            ".." + std::to_string(wire::kProtocolVersionMax) + ")",
        codes::kVersionMismatch);
  } else {
    const int negotiated = static_cast<int>(hi);
    response = ok_response();
    response.set("version", negotiated);
    if (ctx.conn) {
      // The per-proto gauge tracks the connection's CURRENT version, so
      // a renegotiation moves it between buckets, never double-counts.
      const int previous = std::exchange(ctx.state->version, negotiated);
      if (previous < 2 && negotiated >= 2) {
        live_v2_.fetch_add(1, std::memory_order_relaxed);
      } else if (previous >= 2 && negotiated < 2) {
        live_v2_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  response.set("min_version", wire::kProtocolVersionMin);
  response.set("max_version", wire::kProtocolVersionMax);
  return response;
}

graph::Network SocketServer::FrameNetwork::take() {
  if (error) {
    std::rethrow_exception(error);
  }
  return std::move(network);
}

SocketServer::Answer SocketServer::verb_register_network(
    const util::Json& request, ConnCtx& ctx) {
  // The network before the id: a frame wrong in both answers the
  // network's error, as it always has.
  graph::Network network =
      ctx.network != nullptr
          ? ctx.network->take()
          : graph::network_from_json(request.at("network"));
  const std::string& id = request.at("id").as_string();
  try {
    (void)engine_->register_network(id, std::move(network));
  } catch (const service::NetworkConflict& e) {
    return error_response(e.what(), codes::kConflict);
  }
  return ok_response();
}

SocketServer::Answer SocketServer::verb_submit(const util::Json& request,
                                               ConnCtx& ctx) {
  // Quota gate: what THIS connection already has in flight, checked
  // before the job touches the queue.
  const std::shared_ptr<ConnState>& state = ctx.state;
  const std::size_t frame_bytes = ctx.frame_bytes;
  if (options_.max_inflight_jobs > 0 &&
      state->inflight_jobs.load(std::memory_order_relaxed) >=
          options_.max_inflight_jobs) {
    quota_rejections_c_->add();
    return error_response(
        "per-connection in-flight job quota exceeded (" +
            std::to_string(options_.max_inflight_jobs) + " jobs)",
        codes::kQuotaJobs);
  }
  if (options_.max_inflight_bytes > 0 &&
      state->inflight_bytes.load(std::memory_order_relaxed) + frame_bytes >
          options_.max_inflight_bytes) {
    quota_rejections_c_->add();
    return error_response(
        "per-connection in-flight byte quota exceeded (" +
            std::to_string(options_.max_inflight_bytes) + " bytes)",
        codes::kQuotaBytes);
  }
  service::SolveJob job = service::job_from_json(request.at("job"));
  // The job inherits the request's trace id unless the client stamped
  // the job itself (the job-level id wins: it is what the span, the
  // solve's log lines, and poll/wait echoes will carry).
  if (job.trace_id.empty()) {
    job.trace_id = util::trace_context();
  }
  int priority = 0;
  if (const util::Json* p = request.find("priority")) {
    const std::int64_t raw = p->as_int();
    if (raw < std::numeric_limits<int>::min() ||
        raw > std::numeric_limits<int>::max()) {
      throw std::out_of_range("priority " + std::to_string(raw) +
                              " is outside the 32-bit int range");
    }
    priority = static_cast<int>(raw);
  }
  // A copy, not a move: the retained record then holds exact-size
  // buffers rather than the parser's grown ones.
  const Ticket ticket = manager_->submit(job, priority);
  if (options_.max_inflight_jobs > 0 || options_.max_inflight_bytes > 0) {
    state->inflight_jobs.fetch_add(1, std::memory_order_relaxed);
    state->inflight_bytes.fetch_add(frame_bytes, std::memory_order_relaxed);
    // The release hook fires exactly once at the terminal transition (or
    // manager stop), wherever the submitting connection is by then — a
    // client that submits and walks away cannot ratchet its budget shut.
    const auto release = [state, frame_bytes](const JobStatus&) {
      state->inflight_jobs.fetch_sub(1, std::memory_order_relaxed);
      state->inflight_bytes.fetch_sub(frame_bytes, std::memory_order_relaxed);
    };
    try {
      manager_->wait_async(ticket, release);
    } catch (const std::exception&) {
      release(JobStatus{});  // already evicted: in-flight is over
    }
  }
  util::Json response = ok_response();
  response.set("ticket", ticket);
  return response;
}

SocketServer::Answer SocketServer::verb_poll(const util::Json& request,
                                             ConnCtx& /*ctx*/) {
  return status_reply(manager_->poll(ticket_field(request)));
}

SocketServer::Answer SocketServer::verb_wait(const util::Json& request,
                                             ConnCtx& ctx) {
  // Completion-driven: no thread parks.  The callback may fire inline
  // (already terminal), from the engine worker that finished the job, or
  // from stop().
  Sink sink = completion_sink(ctx);
  manager_->wait_async(ticket_field(request),
                       [sink = std::move(sink)](const JobStatus& status) {
                         sink(status_reply(status));
                       });
  return std::nullopt;
}

SocketServer::Answer SocketServer::verb_cancel(const util::Json& request,
                                               ConnCtx& /*ctx*/) {
  const bool cancelled = manager_->cancel(ticket_field(request));
  util::Json response = ok_response();
  response.set("cancelled", cancelled);
  return response;
}

SocketServer::Answer SocketServer::verb_apply_link_updates(
    const util::Json& request, ConnCtx& ctx) {
  std::string network;
  std::vector<graph::LinkUpdate> updates;
  if (ctx.frame == nullptr) {
    updates = service::link_updates_from_json(request.at("updates"));
    network = request.at("network").as_string();
  } else if (ctx.frame->type != wire::FrameType::kLinkUpdateTable) {
    return error_response("unexpected binary frame type " +
                              std::to_string(static_cast<int>(ctx.frame->type)),
                          codes::kProtocol);
  } else {
    try {
      wire::LinkUpdateTable table =
          wire::decode_link_update_table(ctx.frame_payload);
      network = std::move(table.network);
      updates = std::move(table.updates);
    } catch (const wire::WireFormatError& e) {
      return error_response(e.what(), codes::kProtocol);
    }
  }
  return Reply(ok_response(), engine_->apply_link_updates(network, updates),
               "results");
}

SocketServer::Answer SocketServer::verb_pause(const util::Json& /*request*/,
                                              ConnCtx& /*ctx*/) {
  manager_->pause();
  return ok_response();
}

SocketServer::Answer SocketServer::verb_resume(const util::Json& /*request*/,
                                               ConnCtx& /*ctx*/) {
  manager_->resume();
  return ok_response();
}

SocketServer::Answer SocketServer::verb_stats(const util::Json& /*request*/,
                                              ConnCtx& /*ctx*/) {
  return stats_json();
}

SocketServer::Answer SocketServer::verb_metrics(const util::Json& /*request*/,
                                                ConnCtx& /*ctx*/) {
  // Prometheus text exposition, shipped as one JSON string field so the
  // line-delimited framing stays intact.
  util::Json response = ok_response();
  response.set("text", metrics_.prometheus_text());
  return response;
}

SocketServer::Answer SocketServer::verb_slowlog(const util::Json& request,
                                                ConnCtx& /*ctx*/) {
  // Server-side filters: entries leave the ring already narrowed.
  // `total` stays the unfiltered cumulative count — it is the
  // conservation anchor.
  std::string state_filter;
  std::string kernel_filter;
  double min_ms = 0.0;
  if (const util::Json* s = request.find("state")) {
    state_filter = s->as_string();
  }
  if (const util::Json* k = request.find("kernel")) {
    kernel_filter = k->as_string();
  }
  if (const util::Json* m = request.find("min_ms")) {
    min_ms = m->as_number();
  }
  util::JsonArray entries;
  for (const TraceSpan& span : slowlog_.entries()) {
    if ((state_filter.empty() || span.state == state_filter) &&
        (kernel_filter.empty() || span.kernel == kernel_filter) &&
        span.e2e_ms >= min_ms) {
      entries.push_back(span_to_json(span));
    }
  }
  util::Json response = ok_response();
  response.set("slow_ms", options_.slow_ms);
  response.set("total", slowlog_.total_added());
  response.set("entries", util::Json(std::move(entries)));
  return response;
}

SocketServer::Answer SocketServer::verb_trace(const util::Json& /*request*/,
                                              ConnCtx& /*ctx*/) {
  // Draining consumes the rings: each event is exported exactly once, so
  // periodic `trace` pulls tile the timeline.  Spans are not consumed;
  // spans_total counts every terminal job ever.
  const util::ProfilerSnapshot snapshot = util::Profiler::drain();
  const std::vector<TraceSpan> spans = tracelog_.entries();
  util::Json response = ok_response();
  response.set("profiling", util::Profiler::enabled());
  response.set("events", snapshot.events.size());
  response.set("recorded", snapshot.recorded);
  response.set("dropped", snapshot.dropped);
  response.set("drained", snapshot.drained);
  response.set("threads", snapshot.threads);
  response.set("spans", spans.size());
  response.set("spans_total", tracelog_.total_added());
  response.set("trace", chrome_trace_json(snapshot, spans));
  return response;
}

SocketServer::Answer SocketServer::verb_drain(const util::Json& request,
                                              ConnCtx& ctx) {
  Sink sink = completion_sink(ctx);
  std::int64_t timeout_ms = 10000;
  if (const util::Json* t = request.find("timeout_ms")) {
    timeout_ms = t->as_int();
  }
  manager_->drain(timeout_ms, [this, sink = std::move(sink)](
                                  const DrainReport& report) {
    // Read after the drain: only revisions a solve still holds count.
    const service::EngineStats engine = engine_->stats();
    util::Json response = ok_response();
    response.set("drained", report.drained);
    response.set("completed", report.completed);
    response.set("timed_out", report.timed_out);
    response.set("queued", report.queued);
    response.set("running", report.running);
    response.set("pinned_revisions", engine.pinned_revisions);
    response.set("pinned_bytes", engine.pinned_bytes);
    sink(Reply{std::move(response)});
  });
  return std::nullopt;
}

SocketServer::Answer SocketServer::verb_shutdown(
    const util::Json& /*request*/, ConnCtx& /*ctx*/) {
  // The response is queued after this; the serve() teardown flushes it
  // best-effort on the way down.
  stop();
  return ok_response();
}

}  // namespace elpc::daemon
