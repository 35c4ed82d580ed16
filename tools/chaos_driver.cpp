// Chaos driver for the mapping daemon: hammers a LIVE daemon (typically
// started with fault injection, see util/fault_injector.hpp) with
// concurrent submits, cancels, waits, link-update storms, pause/resume
// flips, and malformed frames — then asserts the serving invariants
// survived:
//
//   * no deadlock: the run finishes and the daemon still answers;
//   * every ticket terminal: nothing stuck queued or running, and the
//     cumulative counters balance (submitted = done + failed +
//     cancelled + timed_out);
//   * no leaked pins: once every solve has returned, no superseded
//     revision is still referenced (pinned_revisions settles to 0);
//   * no orphaned checkpoints: every retained incremental checkpoint
//     belongs to a subscription (checkpoints <= subscriptions), however
//     its solve ended;
//   * bit-identical answers: a control job on an untouched network
//     solves to byte-identical JSON before and after the storm;
//   * span conservation: the e2e/queue-wait trace histograms hold
//     exactly one sample per terminal ticket — reconnect storms, torn
//     frames, and injected faults must not lose or double-count spans;
//   * latency sanity: queue-wait p99 is bounded by the daemon's own
//     uptime (a wilder value means clock or bucket math broke);
//   * the `metrics` verb still serves the expected families;
//   * with --profile (against a daemon serving with --profile): the
//     `trace` verb exports a structurally valid Chrome trace, profiler
//     ring accounting stays conservative, and the tracelog retains one
//     span per terminal ticket;
//   * a final drain reports the daemon safe to kill.
//
// Prints one greppable line — "CHAOS SUMMARY ok=<0|1> ..." — and exits
// nonzero on any violation.  CI runs this against a fault-injected
// daemon under TSan (see .github/workflows/ci.yml).
//
//   chaos_driver --socket /tmp/elpc.sock --duration-s 15 --threads 4
//
// The storm can instead target a TCP daemon (--tcp host:port, with
// --auth-token when the daemon requires one), and --idle-conns N holds
// N idle connections open across the storm to assert the epoll front
// end's fixed-pool invariant: the daemon's OS thread count (stats
// threads_os) must not grow with connections, while the stats
// connection gauge must report them.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/trace_export.hpp"
#include "graph/generators.hpp"
#include "graph/network.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "util/cli.hpp"
#include "util/fault_injector.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace {

using namespace elpc;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kChaosNetSeed = 3;   // the storm target
constexpr std::uint64_t kControlNetSeed = 11;  // never touched by deltas

graph::Network make_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, 10, 50,
                                         graph::AttributeRanges{});
}

service::SolveJob make_job(const std::string& id, const std::string& network,
                           std::uint64_t pseed,
                           service::Objective objective) {
  util::Rng rng(pseed);
  service::SolveJob job;
  job.id = id;
  job.network = network;
  job.pipeline = pipeline::random_pipeline(rng, 4, {});
  job.source = 0;
  job.destination = 9;
  job.objective = objective;
  job.cost = service::default_cost(objective);
  return job;
}

/// Where the storm lands: a Unix path or a TCP host:port, plus the
/// shared auth token when the daemon demands one.
struct Target {
  daemon::DaemonEndpoint endpoint;
  std::string auth_token;
};

daemon::DaemonClientOptions client_options(
    const Target& target,
    daemon::ProtocolPreference protocol = daemon::ProtocolPreference::kAuto) {
  daemon::DaemonClientOptions options;
  options.max_retries = 6;  // the daemon's injected socket faults are
  options.backoff_ms = 5;   // exactly what the retry policy is for
  options.auth_token = target.auth_token;
  options.protocol = protocol;
  return options;
}

daemon::DaemonClient make_client(const Target& target) {
  return daemon::DaemonClient(target.endpoint, client_options(target));
}

/// A raw framed socket to the target (no client retry/auth machinery) —
/// the hostile-frames and idle-connection paths.
util::StreamSocket raw_stream(const Target& target) {
  return target.endpoint.is_tcp()
             ? util::StreamSocket::connect_tcp(target.endpoint.tcp_host,
                                               target.endpoint.tcp_port)
             : util::StreamSocket::connect(target.endpoint.unix_path);
}

/// Tickets every worker submitted, shared so workers can poll/cancel
/// each other's jobs (more interleavings than private lists).
struct TicketBoard {
  std::mutex mutex;
  std::vector<daemon::Ticket> tickets;

  void add(daemon::Ticket ticket) {
    const std::lock_guard<std::mutex> lock(mutex);
    tickets.push_back(ticket);
  }
  std::optional<daemon::Ticket> pick(util::Rng& rng) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (tickets.empty()) {
      return std::nullopt;
    }
    return tickets[rng.index(tickets.size())];
  }
  std::vector<daemon::Ticket> all() {
    const std::lock_guard<std::mutex> lock(mutex);
    return tickets;
  }
};

struct WorkerCounters {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> submits{0};
  std::atomic<std::uint64_t> client_errors{0};
};

/// Solves the control job until it lands state=done (fault points like
/// arena_alloc can legitimately fail attempts) and returns the canonical
/// result JSON.  Empty optional when `attempts` runs out.
std::optional<std::string> control_solve(const Target& target,
                                         int attempts) {
  for (int i = 0; i < attempts; ++i) {
    try {
      daemon::DaemonClient client = make_client(target);
      service::SolveJob job = make_job("control", "ctrl", 500,
                                       service::Objective::kMaxFrameRate);
      const daemon::Ticket ticket = client.submit(job, /*priority=*/100);
      const daemon::JobStatusView status = client.wait_status(ticket);
      if (status.state == "done" && status.result.has_value()) {
        return service::result_entry_to_json(*status.result).dump();
      }
    } catch (const std::exception&) {
      // Connection churn or an injected failure — try again.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return std::nullopt;
}

void chaos_worker(const Target& target, std::uint64_t seed,
                  Clock::time_point until, const graph::Edge edge,
                  TicketBoard& board, WorkerCounters& counters) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> pipeline_seeds = {210, 211, 212, 213};
  // Half the fleet pins v1, half negotiates v2 — the storm exercises
  // mixed-protocol connections against one daemon the whole run.
  const daemon::ProtocolPreference protocol =
      (seed % 2 == 0) ? daemon::ProtocolPreference::kV1
                      : daemon::ProtocolPreference::kAuto;
  std::unique_ptr<daemon::DaemonClient> client;
  std::uint64_t iteration = 0;
  while (Clock::now() < until) {
    ++iteration;
    counters.ops.fetch_add(1, std::memory_order_relaxed);
    try {
      if (!client) {
        client = std::make_unique<daemon::DaemonClient>(
            target.endpoint, client_options(target, protocol));
      }
      const std::int64_t op = rng.uniform_int(0, 99);
      if (op < 35) {  // submit, mixed deadlines and priorities
        service::SolveJob job = make_job(
            "w" + std::to_string(seed) + "_" + std::to_string(iteration),
            "net", rng.pick(pipeline_seeds),
            rng.bernoulli(0.5) ? service::Objective::kMinDelay
                               : service::Objective::kMaxFrameRate);
        const std::int64_t deadline_choices[] = {0, 1, 10, 100, 5000};
        job.deadline_ms = deadline_choices[rng.index(5)];
        job.resolve_on_update = rng.bernoulli(0.1);
        const daemon::Ticket ticket = client->submit(
            job, static_cast<int>(rng.uniform_int(-2, 2)));
        board.add(ticket);
        counters.submits.fetch_add(1, std::memory_order_relaxed);
      } else if (op < 55) {  // poll someone's ticket
        if (const auto ticket = board.pick(rng)) {
          (void)client->poll_status(*ticket);
        }
      } else if (op < 65) {  // cancel someone's ticket
        if (const auto ticket = board.pick(rng)) {
          (void)client->cancel(*ticket);
        }
      } else if (op < 72) {  // block on someone's ticket
        if (const auto ticket = board.pick(rng)) {
          (void)client->wait_status(*ticket);
        }
      } else if (op < 82) {  // link-update storm burst (on v2 this is
        // the binary data plane: request AND response cross as frames)
        const std::int64_t burst = rng.uniform_int(1, 3);
        for (std::int64_t i = 0; i < burst; ++i) {
          graph::LinkUpdate update{edge.from, edge.to, edge.attr};
          update.attr.bandwidth_mbps = rng.uniform_real(10.0, 1000.0);
          (void)client->resolve_link_updates(
              "net", std::vector<graph::LinkUpdate>{update});
        }
      } else if (op < 90) {  // stats probe
        (void)client->stats_view();
      } else if (op < 96) {  // malformed frames on a throwaway socket
        util::StreamSocket hostile = raw_stream(target);
        const char* garbage[] = {
            "{\"verb\": \"sub",
            "{\"verb\": 42}",
            "{\"verb\": \"poll\", \"ticket\": \"x\"}",
            "not json at all",
        };
        hostile.send_line(garbage[rng.index(4)]);
        if (rng.bernoulli(0.5)) {
          (void)hostile.recv_line();  // sometimes read the error answer,
        }                             // sometimes vanish mid-exchange
        hostile.close();
      } else if (op < 98) {  // pause/resume flip (resume-biased pairing)
        client->pause();
        client->resume();
      } else {  // reconnect churn
        client.reset();
      }
    } catch (const std::exception&) {
      // Injected faults surface here (exhausted retries, DaemonError on
      // a torn exchange).  The invariants are checked globally at the
      // end; a worker never stops early.
      counters.client_errors.fetch_add(1, std::memory_order_relaxed);
      client.reset();
    }
  }
}

/// The typed stats view plus the trace-histogram counters this driver's
/// span-conservation invariants diff (whole-family counts from the
/// embedded metrics snapshot, which the typed view keeps in .raw).
struct StatsSnapshot {
  daemon::StatsView view;
  std::int64_t uptime_ms = 0;
  std::int64_t e2e_spans = 0;
  std::int64_t queue_spans = 0;
  double queue_p99_ms = 0.0;

  [[nodiscard]] std::int64_t terminal() const {
    return view.done + view.failed + view.cancelled + view.timed_out;
  }
};

StatsSnapshot read_stats(daemon::DaemonClient& client) {
  StatsSnapshot s;
  s.view = client.stats_view();
  // Fractional on the wire (sub-ms precision); whole ms is plenty here.
  s.uptime_ms = static_cast<std::int64_t>(s.view.uptime_ms);
  if (const util::Json* metrics = s.view.raw.find("metrics")) {
    if (const util::Json* histograms = metrics->find("histograms")) {
      if (const util::Json* e2e = histograms->find("elpc_e2e_ms")) {
        s.e2e_spans = e2e->at("count").as_int();
      }
      if (const util::Json* queue = histograms->find("elpc_queue_wait_ms")) {
        s.queue_spans = queue->at("count").as_int();
        s.queue_p99_ms = queue->at("p99_ms").as_number();
      }
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("chaos_driver");
  parser.add_string("socket", "", "socket path of the live daemon");
  parser.add_string("tcp", "",
                    "target a TCP daemon at host:port instead of --socket");
  parser.add_string("auth-token", "",
                    "shared token for daemons serving with --auth-token");
  parser.add_int("idle-conns", 0,
                 "hold this many idle connections open across the storm "
                 "and assert the fixed-pool invariant: stats threads_os "
                 "must not grow with them while the connection gauge "
                 "reports them");
  parser.add_int("max-threads", 0,
                 "absolute cap asserted on stats threads_os while the "
                 "idle connections are held (0 = only assert no growth)");
  parser.add_int("duration-s", 15, "storm duration in seconds");
  parser.add_int("threads", 4, "concurrent chaos workers");
  parser.add_int("seed", 7, "base seed for the chaos streams");
  parser.add_int("settle-s", 60,
                 "budget for tickets to turn terminal and pins to clear");
  parser.add_flag("profile",
                  "assert the trace/profiler invariants too (the daemon "
                  "must be serving with --profile): the trace verb "
                  "answers a valid Chrome trace, ring accounting stays "
                  "conservative, and the tracelog holds one span per "
                  "terminal ticket");

  std::vector<std::string> violations;
  const auto violate = [&violations](std::string what) {
    std::fprintf(stderr, "violation: %s\n", what.c_str());
    violations.push_back(std::move(what));
  };

  try {
    parser.parse(argc, argv);
    const std::string socket_path = parser.get_string("socket");
    const std::string tcp = parser.get_string("tcp");
    if (socket_path.empty() == tcp.empty()) {
      std::fprintf(stderr,
                   "chaos_driver: exactly one of --socket or --tcp is "
                   "required\n%s",
                   parser.usage().c_str());
      return 2;
    }
    Target target;
    target.auth_token = parser.get_string("auth-token");
    if (!tcp.empty()) {
      const std::size_t colon = tcp.rfind(':');
      if (colon == std::string::npos || colon + 1 == tcp.size()) {
        std::fprintf(stderr, "chaos_driver: --tcp expects host:port\n");
        return 2;
      }
      target.endpoint = daemon::DaemonEndpoint::tcp_at(
          tcp.substr(0, colon), std::stoi(tcp.substr(colon + 1)));
    } else {
      target.endpoint = daemon::DaemonEndpoint::unix_path_at(socket_path);
    }
    // Faults belong in the DAEMON process; an inherited ELPC_FAULTS must
    // not sabotage the driver's own sockets and checks.
    util::FaultInjector::instance().disable();

    // --- Setup: register the storm target and the untouched control ---
    {
      daemon::DaemonClient client = make_client(target);
      const std::pair<const char*, std::uint64_t> nets[] = {
          {"net", kChaosNetSeed}, {"ctrl", kControlNetSeed}};
      for (const auto& [id, seed] : nets) {
        try {
          client.register_network(id, make_network(seed));
        } catch (const daemon::DaemonError&) {
          // Already registered (driver re-run against a live daemon).
        }
      }
    }
    const std::optional<std::string> control_before =
        control_solve(target, /*attempts=*/20);
    if (!control_before) {
      violate("control job never solved before the storm");
    }

    // --- Idle-client fleet: connections that never send a byte.  Under
    // the epoll front end each costs a buffer, not a thread, so the
    // daemon's OS thread count must stay flat however many we hold.
    const std::int64_t idle_conns = parser.get_int("idle-conns");
    std::int64_t threads_before_idle = 0;
    std::vector<util::StreamSocket> idle_fleet;
    if (idle_conns > 0) {
      {
        daemon::DaemonClient probe = make_client(target);
        threads_before_idle = probe.stats_view().threads_os;
      }
      idle_fleet.reserve(static_cast<std::size_t>(idle_conns));
      for (std::int64_t i = 0; i < idle_conns; ++i) {
        idle_fleet.push_back(raw_stream(target));
      }
      std::fprintf(stderr, "holding %lld idle connections (threads_os=%lld)\n",
                   static_cast<long long>(idle_conns),
                   static_cast<long long>(threads_before_idle));
    }

    // --- Storm ---
    const graph::Edge edge = make_network(kChaosNetSeed).out_edges(0).front();
    const Clock::time_point until =
        Clock::now() + std::chrono::seconds(parser.get_int("duration-s"));
    TicketBoard board;
    WorkerCounters counters;
    std::vector<std::thread> workers;
    const std::int64_t threads = parser.get_int("threads");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(parser.get_int("seed"));
    workers.reserve(static_cast<std::size_t>(threads));
    for (std::int64_t i = 0; i < threads; ++i) {
      workers.emplace_back([&, i]() {
        chaos_worker(target, seed * 1000 + static_cast<std::uint64_t>(i),
                     until, edge, board, counters);
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    std::fprintf(stderr,
                 "storm done: %llu ops, %llu submits, %llu client errors\n",
                 static_cast<unsigned long long>(counters.ops.load()),
                 static_cast<unsigned long long>(counters.submits.load()),
                 static_cast<unsigned long long>(counters.client_errors.load()));

    // --- Settle: queue empties, pins clear ---
    daemon::DaemonClient client = make_client(target);
    client.resume();  // a pause left behind must not wedge the settle

    // --- Fixed-pool invariant, measured with the idle fleet still
    // connected and the storm's reconnect churn behind us.
    if (idle_conns > 0) {
      const daemon::StatsView s = client.stats_view();
      const std::int64_t live = s.connections;
      const std::int64_t threads_os = s.threads_os;
      if (live < idle_conns) {
        violate("connection gauge lost idle clients: connections=" +
                std::to_string(live) + " with " +
                std::to_string(idle_conns) + " held open");
      }
      // The whole point of the multiplexer: N idle clients cost zero
      // threads.  Allow +1 for unrelated runtime noise.
      if (threads_os > threads_before_idle + 1) {
        violate("daemon threads grew with idle connections: " +
                std::to_string(threads_before_idle) + " -> " +
                std::to_string(threads_os) + " holding " +
                std::to_string(idle_conns));
      }
      const std::int64_t max_threads = parser.get_int("max-threads");
      if (max_threads > 0 && threads_os > max_threads) {
        violate("threads_os=" + std::to_string(threads_os) +
                " above --max-threads=" + std::to_string(max_threads));
      }
      idle_fleet.clear();  // hang up; the daemon should reap them all
    }
    const Clock::time_point settle_until =
        Clock::now() + std::chrono::seconds(parser.get_int("settle-s"));
    StatsSnapshot stats = read_stats(client);
    while (Clock::now() < settle_until) {
      stats = read_stats(client);
      if (stats.view.queued == 0 && stats.view.running == 0 &&
          stats.view.pinned_revisions == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (stats.view.queued != 0 || stats.view.running != 0) {
      violate("tickets not terminal after settle: queued=" +
              std::to_string(stats.view.queued) +
              " running=" + std::to_string(stats.view.running));
    }
    if (stats.view.submitted != stats.terminal()) {
      violate("ticket ledger does not balance: submitted=" +
              std::to_string(stats.view.submitted) +
              " terminal=" + std::to_string(stats.terminal()));
    }
    // --- Span conservation: the trace path records exactly one span per
    // terminal ticket into each lifecycle histogram, no matter how the
    // ticket ended (result, cancel-in-queue, deadline expiry) or how many
    // connections died around it.
    if (stats.e2e_spans != stats.terminal()) {
      violate("e2e span conservation broke: histogram=" +
              std::to_string(stats.e2e_spans) +
              " terminal=" + std::to_string(stats.terminal()));
    }
    if (stats.queue_spans != stats.terminal()) {
      violate("queue-wait span conservation broke: histogram=" +
              std::to_string(stats.queue_spans) +
              " terminal=" + std::to_string(stats.terminal()));
    }
    // --- Latency sanity: no job can wait longer than the daemon has
    // been alive, so a queue-wait p99 beyond uptime means the span
    // timestamps or the bucket math are wrong (+1ms interpolation slack).
    if (stats.queue_spans > 0 &&
        stats.queue_p99_ms > static_cast<double>(stats.uptime_ms) + 1.0) {
      violate("queue-wait p99 implausible: " +
              std::to_string(stats.queue_p99_ms) +
              "ms with uptime " + std::to_string(stats.uptime_ms) + "ms");
    }
    // --- The exposition endpoint survived the storm and still renders
    // the families the scrape configs depend on.
    try {
      const std::string text = client.metrics();
      for (const char* family :
           {"# TYPE elpc_e2e_ms histogram",
            "# TYPE elpc_queue_wait_ms histogram",
            "elpc_jobs_submitted_total"}) {
        if (text.find(family) == std::string::npos) {
          violate(std::string("metrics exposition lost family: ") + family);
        }
      }
    } catch (const std::exception& e) {
      violate(std::string("metrics verb failed after the storm: ") + e.what());
    }
    if (stats.view.pinned_revisions != 0) {
      violate("leaked pins: pinned_revisions=" +
              std::to_string(stats.view.pinned_revisions) + " subscriptions=" +
              std::to_string(stats.view.subscriptions) +
              " pinned_bytes=" + std::to_string(stats.view.pinned_bytes));
    }
    if (stats.view.checkpoints > stats.view.subscriptions) {
      violate("orphaned checkpoints: checkpoints=" +
              std::to_string(stats.view.checkpoints) + " subscriptions=" +
              std::to_string(stats.view.subscriptions));
    }
    // Every ticket this driver recorded must be terminal (a ticket the
    // retention cap evicted was terminal by construction).
    std::uint64_t verified = 0;
    for (const daemon::Ticket ticket : board.all()) {
      try {
        const daemon::JobStatusView status = client.poll_status(ticket);
        if (status.state == "queued" || status.state == "running") {
          violate("ticket " + std::to_string(ticket) +
                  " stuck non-terminal in state " + status.state);
        } else {
          ++verified;
        }
      } catch (const daemon::DaemonError&) {
        ++verified;  // evicted terminal record
      }
    }

    // --- Control job answers byte-identically after the storm ---
    const std::optional<std::string> control_after =
        control_solve(target, /*attempts=*/20);
    if (!control_after) {
      violate("control job never solved after the storm");
    } else if (control_before && *control_before != *control_after) {
      violate("control result changed across the storm");
    }

    // --- Drain: the daemon reports itself safe to kill ---
    const daemon::DrainOutcome drain = client.drain_report(/*timeout_ms=*/30000);
    if (!drain.drained) {
      violate("drain did not reach idle");
    }
    // Conservation must still hold after drain forced the stragglers
    // terminal (the control solves added spans too — recount both sides).
    stats = read_stats(client);
    if (stats.e2e_spans != stats.terminal()) {
      violate("spans lost across drain: histogram=" +
              std::to_string(stats.e2e_spans) +
              " terminal=" + std::to_string(stats.terminal()));
    }

    // --- Trace/profiler invariants (only meaningful against a daemon
    // serving with --profile): the storm's solves recorded phase events,
    // the export is structurally valid, ring accounting never counts an
    // event both drained and dropped, and the always-on tracelog holds
    // exactly one span per terminal ticket — the mark_terminal funnel's
    // conservation, now visible on the wire.
    std::int64_t trace_recorded = 0;
    std::int64_t trace_spans_total = 0;
    if (parser.flag("profile")) {
      try {
        const util::Json trace = client.trace();
        std::string error;
        if (!daemon::validate_chrome_trace(trace.at("trace"), &error)) {
          violate("chrome trace export invalid: " + error);
        }
        if (!trace.at("profiling").as_bool()) {
          violate("daemon is not profiling (serve needs --profile)");
        }
        trace_recorded = trace.at("recorded").as_int();
        trace_spans_total = trace.at("spans_total").as_int();
        const std::int64_t dropped = trace.at("dropped").as_int();
        const std::int64_t drained = trace.at("drained").as_int();
        if (trace_recorded == 0) {
          violate("profiler recorded no events across the storm");
        }
        if (drained + dropped > trace_recorded) {
          violate("profiler ring accounting broke: recorded=" +
                  std::to_string(trace_recorded) +
                  " drained=" + std::to_string(drained) +
                  " dropped=" + std::to_string(dropped));
        }
        if (trace_spans_total != stats.terminal()) {
          violate("tracelog span conservation broke: spans_total=" +
                  std::to_string(trace_spans_total) +
                  " terminal=" + std::to_string(stats.terminal()));
        }
      } catch (const std::exception& e) {
        violate(std::string("trace verb failed after the storm: ") +
                e.what());
      }
    }

    const bool ok = violations.empty();
    std::printf(
        "CHAOS SUMMARY ok=%d submitted=%lld done=%lld failed=%lld "
        "cancelled=%lld timed_out=%lld queued=%lld running=%lld "
        "pinned=%lld subscriptions=%lld checkpoints=%lld "
        "e2e_spans=%lld queue_spans=%lld queue_p99_ms=%.3f "
        "trace_recorded=%lld trace_spans_total=%lld "
        "tickets_verified=%llu client_errors=%llu violations=%zu\n",
        ok ? 1 : 0, static_cast<long long>(stats.view.submitted),
        static_cast<long long>(stats.view.done),
        static_cast<long long>(stats.view.failed),
        static_cast<long long>(stats.view.cancelled),
        static_cast<long long>(stats.view.timed_out),
        static_cast<long long>(stats.view.queued),
        static_cast<long long>(stats.view.running),
        static_cast<long long>(stats.view.pinned_revisions),
        static_cast<long long>(stats.view.subscriptions),
        static_cast<long long>(stats.view.checkpoints),
        static_cast<long long>(stats.e2e_spans),
        static_cast<long long>(stats.queue_spans), stats.queue_p99_ms,
        static_cast<long long>(trace_recorded),
        static_cast<long long>(trace_spans_total),
        static_cast<unsigned long long>(verified),
        static_cast<unsigned long long>(counters.client_errors.load()),
        violations.size());
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_driver: %s\n%s", e.what(),
                 parser.usage().c_str());
    return 2;
  }
}
