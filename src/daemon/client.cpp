#include "daemon/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "graph/serialize.hpp"
#include "service/serialize.hpp"

namespace elpc::daemon {

namespace {

util::Json verb_frame(const std::string& verb) {
  util::Json frame = util::JsonObject{};
  frame.set("verb", verb);
  return frame;
}

util::Json ticket_frame(const std::string& verb, Ticket ticket) {
  util::Json frame = verb_frame(verb);
  frame.set("ticket", ticket);
  return frame;
}

util::Json submit_frame(const service::SolveJob& job, int priority) {
  util::Json frame = verb_frame("submit");
  frame.set("job", service::to_json(job));
  frame.set("priority", priority);
  return frame;
}

/// Appends one request line to a pipelined write.
void append_line(std::string& out, const util::Json& frame) {
  out += frame.dump();
  out += '\n';
}

}  // namespace

util::Json JobStatusView::to_json() const {
  util::Json frame = util::JsonObject{};
  frame.set("ok", true);
  frame.set("ticket", ticket);
  frame.set("state", state);
  frame.set("priority", priority);
  if (!trace_id.empty()) {
    frame.set("trace_id", trace_id);
  }
  if (result.has_value()) {
    frame.set("result", service::result_entry_to_json(*result));
  }
  if (shutting_down) {
    frame.set("shutting_down", true);
  }
  return frame;
}

namespace {

/// Every status field but the result.
JobStatusView status_fields(const util::Json& frame) {
  JobStatusView view;
  view.ticket = static_cast<Ticket>(frame.at("ticket").as_int());
  view.state = frame.at("state").as_string();
  view.priority = static_cast<int>(frame.at("priority").as_int());
  if (const util::Json* trace = frame.find("trace_id")) {
    view.trace_id = trace->as_string();
  }
  if (const util::Json* dying = frame.find("shutting_down")) {
    view.shutting_down = dying->as_bool();
  }
  return view;
}

}  // namespace

JobStatusView JobStatusView::from_json(const util::Json& frame) {
  JobStatusView view = status_fields(frame);
  if (const util::Json* result = frame.find("result")) {
    view.result = service::result_entry_from_json(*result);
  }
  return view;
}

StatsView StatsView::from_json(util::Json frame) {
  StatsView view;
  const auto field = [&frame](const char* name) -> std::int64_t {
    const util::Json* v = frame.find(name);
    return v != nullptr ? v->as_int() : 0;
  };
  view.queued = field("queued");
  view.running = field("running");
  view.submitted = field("submitted");
  view.done = field("done");
  view.failed = field("failed");
  view.cancelled = field("cancelled");
  view.timed_out = field("timed_out");
  view.subscriptions = field("subscriptions");
  view.checkpoints = field("checkpoints");
  view.pinned_revisions = field("pinned_revisions");
  view.pinned_bytes = field("pinned_bytes");
  view.connections = field("connections");
  view.connections_v1 = field("connections_v1");
  view.connections_v2 = field("connections_v2");
  view.threads_os = field("threads_os");
  if (const util::Json* uptime = frame.find("uptime_ms")) {
    view.uptime_ms = uptime->as_number();
  }
  view.raw = std::move(frame);
  return view;
}

DaemonClient::DaemonClient(const std::string& socket_path,
                           DaemonClientOptions options)
    : DaemonClient(DaemonEndpoint::unix_path_at(socket_path),
                   std::move(options)) {}

DaemonClient::DaemonClient(const DaemonEndpoint& endpoint,
                           DaemonClientOptions options)
    : options_(std::move(options)),
      endpoint_(endpoint),
      rng_(std::random_device{}()) {
  connect_socket();
}

void DaemonClient::connect_socket() {
  socket_ = endpoint_.is_tcp()
                ? util::StreamSocket::connect_tcp(endpoint_.tcp_host,
                                                  endpoint_.tcp_port)
                : util::StreamSocket::connect(endpoint_.unix_path);
  // Version is per-connection server state, like the auth flag: every
  // (re)connect renegotiates from scratch.
  hello_ = HelloInfo{};
  if (options_.protocol != ProtocolPreference::kV1) {
    util::Json frame = verb_frame("hello");
    frame.set("min_version",
              options_.protocol == ProtocolPreference::kV2 ? 2 : 1);
    frame.set("max_version", wire::kProtocolVersionMax);
    socket_.send_line(frame.dump());
    const std::optional<std::string> line = socket_.recv_line();
    if (!line.has_value()) {
      throw util::SocketError("daemon closed the connection during hello");
    }
    const util::Json response = util::Json::parse(*line);
    if (response.at("ok").as_bool()) {
      hello_.version = static_cast<int>(response.at("version").as_int());
      hello_.server_min =
          static_cast<int>(response.at("min_version").as_int());
      hello_.server_max =
          static_cast<int>(response.at("max_version").as_int());
    } else if (options_.protocol == ProtocolPreference::kV2) {
      // The caller demanded v2; a server that cannot speak it (version
      // mismatch, or a pre-hello server answering unknown-verb) is a
      // definitive answer, not a transport fault.
      throw DaemonError(response.at("error").as_string());
    }
    // kAuto falls back to v1 on any ok=false: the connection stays
    // usable, just on the universal protocol.
  }
  if (options_.auth_token.empty()) {
    return;
  }
  // Auth is per-connection server state: present the token before
  // anything else rides this socket.  A rejected token is a definitive
  // server answer (DaemonError), never retried.
  util::Json frame = verb_frame("auth");
  frame.set("token", options_.auth_token);
  socket_.send_line(frame.dump());
  const std::optional<std::string> line = socket_.recv_line();
  if (!line.has_value()) {
    throw util::SocketError("daemon closed the connection during auth");
  }
  const util::Json response = util::Json::parse(*line);
  if (!response.at("ok").as_bool()) {
    throw DaemonError(response.at("error").as_string());
  }
}

DaemonClient::Received DaemonClient::recv_frame() {
  const std::optional<std::string> line = socket_.recv_line();
  if (!line.has_value()) {
    throw util::SocketError("daemon closed the connection mid-request");
  }
  Received received{util::Json::parse(*line), {}, {}};
  const util::Json* marker = received.frame.find("payload");
  if (hello_.version < 2 || marker == nullptr || !marker->is_string()) {
    return received;
  }
  // v2 control line announcing an adjacent binary frame: read it and
  // decode the result table.
  std::string where = marker->as_string();
  const std::string header_bytes = socket_.recv_bytes(wire::kHeaderBytes);
  try {
    const std::optional<wire::FrameHeader> header =
        wire::parse_header(header_bytes);
    const std::string payload = socket_.recv_bytes(header->length);
    if (header->type != wire::FrameType::kResultTable) {
      throw wire::WireFormatError(
          "unexpected binary response frame type " +
          std::to_string(static_cast<int>(header->type)));
    }
    received.results = wire::decode_result_table(payload);
  } catch (const wire::WireFormatError& e) {
    // A malformed payload is a server-side defect, not a transient
    // transport fault — close (the stream position is unknown) but
    // surface it as a definitive answer so it is never retried.
    socket_.close();
    throw DaemonError(std::string("malformed v2 binary payload: ") +
                      e.what());
  }
  if (where == "result" && received.results.size() != 1) {
    socket_.close();
    throw DaemonError("v2 result payload carried " +
                      std::to_string(received.results.size()) +
                      " entries where exactly 1 was announced");
  }
  if (where != "result" && where != "results") {
    socket_.close();
    throw DaemonError("unknown v2 payload marker '" + where + "'");
  }
  received.frame.erase("payload");
  received.payload_field = std::move(where);
  return received;
}

util::Json DaemonClient::recv_response() {
  // The reinflated bytes equal the v1 frame's: %.17g doubles
  // round-trip, and the binary f64s are bit-exact.
  Received received = recv_frame();
  if (!received.payload_field.empty()) {
    wire::inline_results(received.frame, received.payload_field,
                         received.results);
  }
  return std::move(received.frame);
}

util::Json DaemonClient::request(const util::Json& frame) {
  return request_line(frame.dump());
}

util::Json DaemonClient::request_line(const std::string& payload) {
  util::Json response;
  with_retries([&] {
    socket_.send_line(payload);
    response = recv_response();
  });
  return response;
}

void DaemonClient::with_retries(const std::function<void()>& exchange) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      if (!socket_.valid()) {
        connect_socket();
      }
      exchange();
      return;
    } catch (const util::SocketTimeout&) {
      throw;
    } catch (const util::SocketError&) {
      socket_.close();  // half-exchanged bytes cannot be resumed
      if (attempt >= options_.max_retries) {
        throw;
      }
      // Each step scaled by a uniform ±50% jitter so simultaneous
      // failures do not retry in lockstep.
      const double base = static_cast<double>(options_.backoff_ms) *
                          static_cast<double>(std::uint64_t{1} << attempt);
      std::uniform_real_distribution<double> jitter(0.5, 1.5);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(base * jitter(rng_)));
    }
  }
}

std::string DaemonClient::next_trace_id() {
  return "c" + std::to_string(::getpid()) + "-" +
         std::to_string(++trace_seq_);
}

void DaemonClient::stamp_trace(util::Json& frame) {
  // One retried request keeps ONE id, so a double-executed submit shows
  // up as the same id twice server-side.
  if (options_.auto_trace && !frame.contains("trace_id")) {
    frame.set("trace_id", next_trace_id());
  }
}

util::Json DaemonClient::checked(util::Json frame) {
  stamp_trace(frame);
  return checked_line(frame.dump());
}

util::Json DaemonClient::checked_line(const std::string& payload) {
  util::Json response = request_line(payload);
  if (!response.at("ok").as_bool()) {
    throw DaemonError(response.at("error").as_string());
  }
  return response;
}

void DaemonClient::register_network(const std::string& id,
                                    const graph::Network& network) {
  // The frame checked() would send, written as text around the network
  // document: members in key order, the trace id stamped the same way.
  std::string line = "{\"id\":";
  util::dump_string(line, id);
  line += ",\"network\":";
  graph::append_json(line, network);
  if (options_.auto_trace) {
    line += ",\"trace_id\":";
    util::dump_string(line, next_trace_id());
  }
  line += ",\"verb\":\"register_network\"}";
  (void)checked_line(line);
}

Ticket DaemonClient::submit(const service::SolveJob& job, int priority) {
  return static_cast<Ticket>(
      checked(submit_frame(job, priority)).at("ticket").as_int());
}

util::Json DaemonClient::poll(Ticket ticket) {
  return checked(ticket_frame("poll", ticket));
}

util::Json DaemonClient::wait(Ticket ticket) {
  return wait_status(ticket).to_json();
}

JobStatusView DaemonClient::poll_status(Ticket ticket) {
  return JobStatusView::from_json(poll(ticket));
}

JobStatusView DaemonClient::wait_status(Ticket ticket) {
  return wait_all({&ticket, 1}).front();
}

std::vector<Ticket> DaemonClient::submit_all(
    std::span<const service::SolveJob> jobs, int priority) {
  // Connecting is the one step retried: no frame of this call has left.
  with_retries([] {});
  std::vector<Ticket> tickets;
  tickets.reserve(jobs.size());
  std::optional<std::string> rejected;  // the first ok=false answer
  std::size_t sent = 0;
  std::size_t answered = 0;
  try {
    while (answered < sent || (!rejected && sent < jobs.size())) {
      // Refill once half the window has drained: one write carries the
      // frames that bring it back to full.
      if (!rejected && sent < jobs.size() &&
          sent - answered <= kPipelineWindow / 2) {
        std::string lines;
        for (; sent < jobs.size() && sent - answered < kPipelineWindow;
             ++sent) {
          util::Json frame = submit_frame(jobs[sent], priority);
          stamp_trace(frame);
          append_line(lines, frame);
        }
        socket_.send_bytes(lines);
        continue;
      }
      // Submit answers are synchronous: they arrive in request order.
      const util::Json response = recv_response();
      ++answered;
      if (rejected) {
        continue;  // draining the window behind the rejection
      }
      if (!response.at("ok").as_bool()) {
        rejected = response.at("error").as_string();
        continue;
      }
      tickets.push_back(static_cast<Ticket>(response.at("ticket").as_int()));
    }
  } catch (...) {
    // Frames have left and their answers are unread: the stream cannot
    // be resumed, and resending could double-submit.
    socket_.close();
    throw;
  }
  if (rejected) {
    throw DaemonError(*rejected);
  }
  return tickets;
}

std::vector<JobStatusView> DaemonClient::wait_all(
    std::span<const Ticket> tickets) {
  std::vector<std::optional<JobStatusView>> views(tickets.size());
  std::size_t answered = 0;
  try {
    // Waits are idempotent: a reconnect re-issues the unanswered ones.
    with_retries([&] {
      // The waits in flight on this connection: (ticket, position).  At
      // most kPipelineWindow entries, so a linear scan is the cheap
      // match.
      std::vector<std::pair<Ticket, std::size_t>> in_flight;
      std::size_t next = 0;  // scan cursor for positions not yet sent
      while (answered < tickets.size()) {
        if (next < tickets.size() && in_flight.size() <= kPipelineWindow / 2) {
          std::string lines;
          for (; next < tickets.size() && in_flight.size() < kPipelineWindow;
               ++next) {
            if (views[next].has_value()) {
              continue;  // answered before a reconnect
            }
            util::Json frame = ticket_frame("wait", tickets[next]);
            stamp_trace(frame);
            append_line(lines, frame);
            in_flight.emplace_back(tickets[next], next);
          }
          if (!lines.empty()) {
            socket_.send_bytes(lines);
          }
          continue;
        }
        // Wait answers are out of band: they arrive in completion order
        // and are matched to their request by ticket.
        // A v2 result table goes straight into the view; only a v1
        // answer decodes its result from JSON.
        Received received = recv_frame();
        const util::Json& response = received.frame;
        if (!response.at("ok").as_bool()) {
          throw DaemonError(response.at("error").as_string());
        }
        JobStatusView view;
        if (received.payload_field == "result") {
          view = status_fields(response);
          view.result = std::move(received.results.front());
        } else {
          view = JobStatusView::from_json(response);
        }
        const auto match = std::find_if(
            in_flight.begin(), in_flight.end(),
            [&view](const auto& entry) { return entry.first == view.ticket; });
        if (match == in_flight.end()) {
          throw DaemonError("wait answered ticket " +
                            std::to_string(view.ticket) +
                            ", which no wait in flight asked for");
        }
        views[match->second] = std::move(view);
        *match = in_flight.back();
        in_flight.pop_back();
        ++answered;
      }
    });
  } catch (...) {
    // Answers to the other waits in flight would still arrive here.
    socket_.close();
    throw;
  }
  std::vector<JobStatusView> statuses;
  statuses.reserve(views.size());
  for (std::optional<JobStatusView>& view : views) {
    statuses.push_back(std::move(*view));
  }
  return statuses;
}

bool DaemonClient::cancel(Ticket ticket) {
  return checked(ticket_frame("cancel", ticket)).at("cancelled").as_bool();
}

std::vector<util::Json> DaemonClient::apply_link_updates(
    const std::string& network, std::span<const graph::LinkUpdate> updates) {
  util::Json frame = verb_frame("apply_link_updates");
  frame.set("network", network);
  frame.set("updates", service::link_updates_to_json(updates));
  return checked(std::move(frame)).at("results").as_array();
}

std::vector<service::SolveResult> DaemonClient::resolve_link_updates(
    const std::string& network, std::span<const graph::LinkUpdate> updates) {
  std::vector<service::SolveResult> results;
  with_retries([&] {
    Received received;
    if (hello_.version >= 2) {
      // The bulk data plane: the request leaves as one binary
      // link-update table frame, the response comes back as a control
      // line plus a binary result table.
      const std::string table =
          wire::encode_link_update_table(network, updates);
      socket_.send_bytes(wire::encode_header(
          wire::FrameType::kLinkUpdateTable, 0,
          static_cast<std::uint32_t>(table.size())));
      socket_.send_bytes(table);
      received = recv_frame();
    } else {
      // The connection of the moment speaks v1 (preference kV1, or a
      // fallback after reconnect): same verb as the raw helper.
      util::Json frame = verb_frame("apply_link_updates");
      frame.set("network", network);
      frame.set("updates", service::link_updates_to_json(updates));
      stamp_trace(frame);
      socket_.send_line(frame.dump());
      received = recv_frame();
    }
    const util::Json& response = received.frame;
    if (!response.at("ok").as_bool()) {
      throw DaemonError(response.at("error").as_string());
    }
    if (received.payload_field == "results") {
      results = std::move(received.results);
      return;
    }
    for (const util::Json& entry : response.at("results").as_array()) {
      results.push_back(service::result_entry_from_json(entry));
    }
  });
  return results;
}

void DaemonClient::pause() { (void)checked(verb_frame("pause")); }

void DaemonClient::resume() { (void)checked(verb_frame("resume")); }

util::Json DaemonClient::stats() { return checked(verb_frame("stats")); }

std::string DaemonClient::metrics() {
  return checked(verb_frame("metrics")).at("text").as_string();
}

util::Json DaemonClient::slowlog(const SlowlogFilter& filter) {
  util::Json frame = verb_frame("slowlog");
  if (!filter.state.empty()) {
    frame.set("state", filter.state);
  }
  if (!filter.kernel.empty()) {
    frame.set("kernel", filter.kernel);
  }
  if (filter.min_ms > 0.0) {
    frame.set("min_ms", filter.min_ms);
  }
  return checked(std::move(frame));
}

util::Json DaemonClient::trace() { return checked(verb_frame("trace")); }

util::Json DaemonClient::drain(std::int64_t timeout_ms) {
  util::Json frame = verb_frame("drain");
  frame.set("timeout_ms", timeout_ms);
  return checked(std::move(frame));
}

DrainOutcome DaemonClient::drain_report(std::int64_t timeout_ms) {
  const util::Json frame = drain(timeout_ms);
  DrainOutcome report;
  report.drained = frame.at("drained").as_bool();
  report.completed = frame.at("completed").as_int();
  report.timed_out = frame.at("timed_out").as_int();
  report.queued = frame.at("queued").as_int();
  report.running = frame.at("running").as_int();
  report.pinned_revisions = frame.at("pinned_revisions").as_int();
  report.pinned_bytes = frame.at("pinned_bytes").as_int();
  return report;
}

void DaemonClient::shutdown_server() {
  try {
    (void)checked(verb_frame("shutdown"));
  } catch (const util::SocketError&) {
    // The answer can be lost with its connection while the daemon goes
    // down.  A daemon that no longer takes connections has shut down.
    try {
      connect_socket();
    } catch (const util::SocketError&) {
      return;
    }
    socket_.close();
    throw;
  }
}

}  // namespace elpc::daemon
