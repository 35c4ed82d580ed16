#include "experiments/cli_app.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/elpc.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "daemon/client.hpp"
#include "daemon/socket_server.hpp"
#include "daemon/trace_export.hpp"
#include "experiments/registry.hpp"
#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "util/rng.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/fault_injector.hpp"
#include "util/file_io.hpp"
#include "util/strings.hpp"
#include "workload/small_case.hpp"
#include "workload/suite.hpp"

namespace elpc::experiments {

namespace {

const char* kUsage =
    "usage: elpc "
    "<generate|map|batch|serve|client|fuzz|simulate|suite|algorithms|"
    "kernels> [options]\n"
    "  elpc generate --case 3 --out scenario.json\n"
    "  elpc generate --modules 8 --nodes 12 --links 90 --seed 7\n"
    "  elpc map --in scenario.json --algorithm ELPC --objective framerate\n"
    "  elpc batch --jobs jobs.json --out results.json --threads 4\n"
    "  elpc serve --socket /tmp/elpc.sock --threads 4 --incremental "
    "--slow-ms 50 --profile\n"
    "  elpc serve --socket /tmp/elpc.sock --tcp 0.0.0.0:7447 "
    "--auth-token SECRET --max-inflight-jobs 64\n"
    "  ELPC_FAULTS=engine_stall=0.05:50 ELPC_FAULT_SEED=42 elpc serve "
    "--socket /tmp/elpc.sock  # fault injection (chaos testing)\n"
    "  elpc client <load|poll|wait|cancel|update|stats|metrics|slowlog|"
    "trace|top|pause|resume|drain|shutdown> --socket /tmp/elpc.sock "
    "[options]\n"
    "  elpc client stats --tcp daemon-host:7447 --auth-token SECRET\n"
    "  elpc client top --socket /tmp/elpc.sock --interval-ms 1000\n"
    "  elpc client trace --socket /tmp/elpc.sock --out trace.json  "
    "# Chrome/Perfetto timeline\n"
    "  elpc client slowlog --socket /tmp/elpc.sock --state timed_out "
    "--min-ms 100\n"
    "  elpc fuzz --seed 7 --rounds 20 --incremental --out parity.json\n"
    "  elpc simulate --in scenario.json --frames 200\n"
    "  elpc suite\n"
    "  elpc kernels   # frame-rate kernels this build+CPU can run\n";

workload::Scenario load_scenario(const std::string& path) {
  return workload::scenario_from_json(
      util::Json::parse(util::read_text_file(path)));
}

/// Splits "host:port" on the LAST colon (bracketless IPv6 literals keep
/// their inner colons); throws on a missing or non-numeric port.
std::pair<std::string, int> parse_host_port(const std::string& endpoint,
                                            const std::string& flag) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size()) {
    throw std::invalid_argument(flag + " expects host:port, got '" +
                                endpoint + "'");
  }
  int port = 0;
  try {
    port = std::stoi(endpoint.substr(colon + 1));
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + " expects a numeric port, got '" +
                                endpoint.substr(colon + 1) + "'");
  }
  if (port < 0 || port > 65535) {
    throw std::invalid_argument(flag + ": port out of range");
  }
  return {endpoint.substr(0, colon), port};
}

int cmd_generate(const std::vector<std::string>& args, std::ostream& out) {
  util::ArgParser parser("elpc generate");
  parser.add_int("case", 0, "suite case number 1..20 (0 = use sizes below)");
  parser.add_int("modules", 6, "pipeline length");
  parser.add_int("nodes", 10, "network size");
  parser.add_int("links", 60, "directed link count");
  parser.add_int("seed", 1, "rng stream");
  parser.add_string("out", "", "write JSON here (default: stdout)");
  parser.parse(args);

  workload::Scenario scenario;
  if (parser.get_int("case") > 0) {
    const auto suite = workload::default_suite();
    const auto index = static_cast<std::size_t>(parser.get_int("case")) - 1;
    if (index >= suite.size()) {
      throw std::invalid_argument("--case must be 1.." +
                                  std::to_string(suite.size()));
    }
    scenario = workload::build_scenario(suite[index]);
  } else {
    workload::CaseSpec spec;
    spec.name = "custom";
    spec.modules = static_cast<std::size_t>(parser.get_int("modules"));
    spec.nodes = static_cast<std::size_t>(parser.get_int("nodes"));
    spec.links = static_cast<std::size_t>(parser.get_int("links"));
    spec.stream = static_cast<std::uint64_t>(parser.get_int("seed"));
    scenario = workload::build_scenario(spec);
  }
  const std::string doc = workload::dump_json(scenario, 2);
  if (parser.get_string("out").empty()) {
    out << doc << "\n";
  } else {
    util::write_text_file(parser.get_string("out"), doc);
    out << "wrote " << parser.get_string("out") << "\n";
  }
  return 0;
}

int cmd_map(const std::vector<std::string>& args, std::ostream& out) {
  util::ArgParser parser("elpc map");
  parser.add_string("in", "", "scenario JSON (empty = built-in small case)");
  parser.add_string("algorithm", "ELPC", "registry name");
  parser.add_string("objective", "delay", "delay | framerate");
  parser.parse(args);

  const workload::Scenario scenario = parser.get_string("in").empty()
                                          ? workload::small_case()
                                          : load_scenario(parser.get_string("in"));
  const mapping::MapperPtr mapper = make_mapper(parser.get_string("algorithm"));
  const std::string objective = parser.get_string("objective");

  mapping::MapResult result;
  if (objective == "delay") {
    result = mapper->min_delay(scenario.problem());
  } else if (objective == "framerate") {
    result = mapper->max_frame_rate(
        scenario.problem({.include_link_delay = false}));
  } else {
    throw std::invalid_argument("--objective must be delay or framerate");
  }

  out << "scenario : " << scenario.name << " (" << scenario.pipeline.module_count()
      << " modules, " << scenario.network.node_count() << " nodes)\n";
  out << "algorithm: " << mapper->name() << "\n";
  if (!result.feasible) {
    out << "infeasible: " << result.reason << "\n";
    return 2;
  }
  out << "mapping  : " << result.mapping.to_string() << "\n";
  out << "path     : " << result.mapping.group_path().to_string() << "\n";
  if (objective == "delay") {
    out << "delay    : " << util::format_double(result.seconds * 1e3, 2)
        << " ms\n";
  } else {
    out << "rate     : " << util::format_double(result.frame_rate(), 2)
        << " frames/s (bottleneck "
        << util::format_double(result.seconds * 1e3, 2) << " ms)\n";
  }
  return 0;
}

int cmd_batch(const std::vector<std::string>& args, std::ostream& out) {
  util::ArgParser parser("elpc batch");
  parser.add_string("jobs", "", "batch job file (schema: src/service/serialize.hpp)");
  parser.add_string("out", "", "write results JSON here (default: stdout)");
  parser.add_int("threads", 0, "engine worker threads (0 = hardware)");
  parser.add_string("kernel", "auto",
                    "frame-rate kernel (auto|scalar|avx2|avx512; auto = "
                    "ELPC_FORCE_KERNEL env, else widest supported)");
  parser.add_flag("timing",
                  "include per-job timing + shard metadata "
                  "(non-deterministic fields)");
  parser.add_flag("incremental",
                  "retain DP checkpoints for subscribed frame-rate jobs "
                  "and re-solve deltas by column reuse (bit-identical)");
  parser.parse(args);
  if (parser.get_string("jobs").empty()) {
    throw std::invalid_argument("elpc batch: --jobs is required");
  }

  const std::int64_t threads = parser.get_int("threads");
  if (threads < 0) {
    throw std::invalid_argument("elpc batch: --threads must be >= 0");
  }

  // Malformed input is an operator mistake, not a crash: surface one
  // clear diagnostic naming the file instead of a raw parse/shape
  // exception (covered by tests/experiments/cli_app_test.cpp).
  service::BatchSpec spec;
  try {
    spec = service::batch_spec_from_json(
        util::Json::parse(util::read_text_file(parser.get_string("jobs"))));
  } catch (const std::exception& e) {
    throw std::invalid_argument("elpc batch: cannot load job file '" +
                                parser.get_string("jobs") + "': " + e.what());
  }
  service::BatchEngineOptions engine_options;
  engine_options.threads = static_cast<std::size_t>(threads);
  engine_options.factory = engine_mapper_factory();
  engine_options.kernel =
      core::kernels::kind_from_name(parser.get_string("kernel"));
  engine_options.incremental = parser.flag("incremental");
  service::BatchEngine engine(engine_options);
  for (auto& [id, network] : spec.networks) {
    engine.register_network(id, std::move(network));
  }
  std::vector<service::SolveResult> results;
  try {
    results = engine.solve(spec.jobs);
  } catch (const std::invalid_argument& e) {
    // A job naming a session the file never registered rejects the whole
    // batch up front; re-anchor the engine's message to the subcommand.
    throw std::invalid_argument(std::string("elpc batch: ") + e.what());
  }

  const std::string doc =
      service::results_to_json(results, parser.flag("timing")).dump(2) + "\n";
  if (parser.get_string("out").empty()) {
    out << doc;
  } else {
    util::write_text_file(parser.get_string("out"), doc);
    out << "wrote " << parser.get_string("out") << " (" << results.size()
        << " results)\n";
  }
  for (const service::SolveResult& r : results) {
    if (!r.error.empty()) {
      return 2;  // a job failed outright (not merely infeasible)
    }
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  util::ArgParser parser("elpc serve");
  parser.add_string("socket", "", "Unix-domain socket path (required)");
  parser.add_int("threads", 0, "engine worker threads (0 = hardware)");
  parser.add_int("session-cache-bytes", 0,
                 "per-session budget in bytes for incremental DP "
                 "checkpoints no solve holds, evicted LRU (0 = 64 MiB "
                 "with --incremental)");
  parser.add_string("kernel", "auto",
                    "frame-rate kernel (auto|scalar|avx2|avx512; auto = "
                    "ELPC_FORCE_KERNEL env, else widest supported)");
  parser.add_flag("incremental",
                  "retain DP checkpoints for subscribed frame-rate jobs "
                  "and re-solve deltas by column reuse (bit-identical)");
  parser.add_int("slow-ms", 0,
                 "slow-solve threshold: terminal jobs whose end-to-end time "
                 "reaches this many ms land in the slowlog ring, dumpable "
                 "via `client slowlog` (0 = off)");
  parser.add_flag("profile",
                  "enable the phase profiler: solves record begin/end "
                  "events into per-thread rings, exported as a Chrome "
                  "trace via `client trace` (off: ~one atomic load per "
                  "phase)");
  parser.add_string("tcp", "",
                    "also serve the protocol on this TCP host:port "
                    "(port 0 binds an ephemeral port, printed at startup)");
  parser.add_string("auth-token", "",
                    "require this shared token via the auth verb before "
                    "serving anything but `stats` (constant-time compare; "
                    "empty = auth off)");
  parser.add_int("io-workers", 2,
                 "epoll IO worker threads multiplexing every connection "
                 "(the daemon's thread count is constant in clients)");
  parser.add_int("max-write-queue-bytes", 8 << 20,
                 "per-connection pending-response cap before a slow "
                 "consumer is disconnected (reason \"backpressure\")");
  parser.add_int("max-inflight-jobs", 0,
                 "per-connection cap on submitted-and-not-yet-terminal "
                 "jobs (0 = unlimited; over-cap submits answer code "
                 "\"quota_jobs\")");
  parser.add_int("max-inflight-bytes", 0,
                 "per-connection cap on summed request bytes of in-flight "
                 "jobs (0 = unlimited; code \"quota_bytes\")");
  parser.parse(args);
  if (parser.get_string("socket").empty()) {
    throw std::invalid_argument("elpc serve: --socket is required");
  }
  if (parser.get_int("session-cache-bytes") < 0 ||
      parser.get_int("threads") < 0 ||
      parser.get_int("slow-ms") < 0 ||
      parser.get_int("io-workers") < 1 ||
      parser.get_int("max-write-queue-bytes") < 1 ||
      parser.get_int("max-inflight-jobs") < 0 ||
      parser.get_int("max-inflight-bytes") < 0) {
    throw std::invalid_argument("elpc serve: options must be >= 0");
  }

  daemon::SocketServerOptions options;
  options.threads = static_cast<std::size_t>(parser.get_int("threads"));
  options.checkpoint_budget_bytes =
      static_cast<std::size_t>(parser.get_int("session-cache-bytes"));
  options.kernel = core::kernels::kind_from_name(parser.get_string("kernel"));
  options.incremental = parser.flag("incremental");
  options.slow_ms = parser.get_int("slow-ms");
  options.profile = parser.flag("profile");
  options.factory = engine_mapper_factory();
  if (!parser.get_string("tcp").empty()) {
    const auto [host, port] =
        parse_host_port(parser.get_string("tcp"), "elpc serve: --tcp");
    options.tcp = true;
    options.tcp_host = host;
    options.tcp_port = port;
  }
  options.auth_token = parser.get_string("auth-token");
  options.io_workers = static_cast<std::size_t>(parser.get_int("io-workers"));
  options.max_write_queue_bytes =
      static_cast<std::size_t>(parser.get_int("max-write-queue-bytes"));
  options.max_inflight_jobs =
      static_cast<std::size_t>(parser.get_int("max-inflight-jobs"));
  options.max_inflight_bytes =
      static_cast<std::size_t>(parser.get_int("max-inflight-bytes"));
  // Reads ELPC_FAULTS/ELPC_FAULT_SEED now: a malformed spec fails the
  // start, not the first IO or engine thread to reach a fault point.
  (void)util::FaultInjector::instance();
  daemon::SocketServer server(parser.get_string("socket"), options);
  out << "elpc daemon listening on " << server.socket_path() << " (kernel "
      << core::kernels::kind_name(
             core::kernels::resolve_kernel(options.kernel))
      << ")\n"
      << std::flush;
  if (options.tcp) {
    // The resolved port matters when --tcp asked for port 0.
    out << "elpc daemon listening on tcp " << options.tcp_host << ":"
        << server.tcp_port()
        << (options.auth_token.empty() ? "" : " (auth required)") << "\n"
        << std::flush;
  }
  server.serve();  // returns on the shutdown verb
  out << "elpc daemon shut down\n";
  return 0;
}

/// `elpc client top`: live daemon view built from periodic `stats`
/// snapshots.  Rates (jobs/s) come from diffing the terminal counters
/// between consecutive snapshots against the daemon's own uptime clock;
/// latency percentiles come from the embedded metrics snapshot
/// (cumulative since daemon start, not per-interval — histograms are
/// monotone).  One line per refresh so the output stays pipe/log
/// friendly; --iterations > 0 bounds the loop for scripts and CI.
int run_client_top(daemon::DaemonClient& client, std::int64_t interval_ms,
                   std::int64_t iterations, std::ostream& out) {
  if (interval_ms <= 0) {
    throw std::invalid_argument("elpc client top: --interval-ms must be > 0");
  }
  const auto num = [](const util::Json& obj, const char* key) -> double {
    const util::Json* value = obj.find(key);
    return (value != nullptr && value->is_number()) ? value->as_number() : 0.0;
  };
  out << "   uptime   jobs/s  queued running  e2e p50/p99 ms  "
         "queue p50/p99 ms  stale p50/p99 ms  inc-hit%  pinned-MB\n";
  double prev_terminal = -1.0;
  double prev_uptime_ms = 0.0;
  for (std::int64_t tick = 0;; ++tick) {
    // Typed stats for the counters this loop branches on; the metrics
    // histogram snapshot rides along in .raw (it is too wide to type).
    const daemon::StatsView stats = client.stats_view();
    const double uptime_ms = stats.uptime_ms;
    const double terminal =
        static_cast<double>(stats.done + stats.failed + stats.cancelled +
                            stats.timed_out);
    double rate = 0.0;
    if (prev_terminal >= 0.0 && uptime_ms > prev_uptime_ms) {
      rate = (terminal - prev_terminal) * 1000.0 / (uptime_ms - prev_uptime_ms);
    }
    double e2e_p50 = 0.0, e2e_p99 = 0.0, queue_p50 = 0.0, queue_p99 = 0.0;
    double stale_p50 = 0.0, stale_p99 = 0.0;
    if (const util::Json* metrics = stats.raw.find("metrics")) {
      if (const util::Json* histograms = metrics->find("histograms")) {
        if (const util::Json* e2e = histograms->find("elpc_e2e_ms")) {
          e2e_p50 = num(*e2e, "p50_ms");
          e2e_p99 = num(*e2e, "p99_ms");
        }
        if (const util::Json* queue = histograms->find("elpc_queue_wait_ms")) {
          queue_p50 = num(*queue, "p50_ms");
          queue_p99 = num(*queue, "p99_ms");
        }
        // Incremental re-solve staleness: how long results citing a
        // superseded revision stayed current after the delta landed.
        // All zeros until the daemon serves delta-driven re-solves.
        if (const util::Json* stale =
                histograms->find("elpc_resolve_staleness_ms")) {
          stale_p50 = num(*stale, "p50_ms");
          stale_p99 = num(*stale, "p99_ms");
        }
      }
    }
    const double hits = num(stats.raw, "incremental_hits");
    const double misses = num(stats.raw, "incremental_misses");
    const double hit_pct =
        (hits + misses > 0.0) ? 100.0 * hits / (hits + misses) : 0.0;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%8.1fs %8.1f %7.0f %7.0f %7.2f/%-8.2f %8.2f/%-8.2f "
                  "%8.2f/%-8.2f %8.1f %10.3f\n",
                  uptime_ms / 1000.0, rate, static_cast<double>(stats.queued),
                  static_cast<double>(stats.running), e2e_p50, e2e_p99,
                  queue_p50, queue_p99, stale_p50, stale_p99, hit_pct,
                  static_cast<double>(stats.pinned_bytes) / (1024.0 * 1024.0));
    out << line << std::flush;
    prev_terminal = terminal;
    prev_uptime_ms = uptime_ms;
    if (iterations > 0 && tick + 1 >= iterations) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

/// `elpc client <verb> --socket S [options]`: thin shell over
/// daemon::DaemonClient.  `load` is the batch-shaped convenience — it
/// registers a job file's networks, submits its jobs, and with --wait
/// emits the same canonical results document `elpc batch` prints, so the
/// two paths can be diffed byte-for-byte.
int cmd_client(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) {
    throw std::invalid_argument(
        "elpc client: missing verb (load|poll|wait|cancel|update|stats|"
        "metrics|slowlog|trace|top|pause|resume|drain|shutdown)");
  }
  const std::string verb = args.front();
  util::ArgParser parser("elpc client " + verb);
  parser.add_string("socket", "",
                    "daemon socket path (this or --tcp is required)");
  parser.add_string("tcp", "",
                    "daemon TCP endpoint host:port (alternative to "
                    "--socket; same protocol either way)");
  parser.add_string("auth-token", "",
                    "shared token presented via the auth verb after every "
                    "(re)connect, for daemons started with serve "
                    "--auth-token");
  parser.add_string("protocol", "auto",
                    "wire protocol: auto (negotiate the highest shared "
                    "version via hello), v1 (byte-identical to pre-"
                    "negotiation clients), or v2 (fail unless the daemon "
                    "speaks the binary data plane)");
  parser.add_string("jobs", "", "load: batch job file (networks + jobs)");
  parser.add_int("priority", 0, "load: priority for all submitted jobs");
  parser.add_flag("wait", "load: wait for every job and print results");
  parser.add_flag("no-register",
                  "load: submit the file's jobs without registering its "
                  "networks (they are already registered)");
  parser.add_flag("incremental",
                  "load: subscribe every submitted job to delta-driven "
                  "re-solves (sets resolve_on_update; a daemon started "
                  "with serve --incremental then reuses DP checkpoints)");
  parser.add_int("deadline-ms", 0,
                 "load: per-job deadline in milliseconds, measured from "
                 "submission (0 = none; an over-budget job ends timed_out)");
  parser.add_int("ticket", -1, "poll/wait/cancel: job ticket");
  parser.add_string("network", "", "update: session id");
  parser.add_string("updates", "", "update: JSON file with link deltas");
  parser.add_int("timeout-ms", 10000,
                 "drain: budget for in-flight work (<= 0 waits forever)");
  parser.add_string("out", "",
                    "trace: write the Chrome-trace JSON here (default: "
                    "stdout; load into ui.perfetto.dev)");
  parser.add_string("state", "",
                    "slowlog: keep spans in this terminal state only "
                    "(done|failed|cancelled|timed_out)");
  parser.add_string("filter-kernel", "",
                    "slowlog: keep spans served by this kernel only");
  parser.add_double("min-ms", 0.0,
                    "slowlog: keep spans with e2e_ms >= this");
  parser.add_flag("json", "slowlog: full JSON dump instead of the table");
  parser.add_int("interval-ms", 1000, "top: refresh period");
  parser.add_int("iterations", 0,
                 "top: stop after this many refreshes (0 = run forever)");
  parser.parse({args.begin() + 1, args.end()});
  if (parser.get_string("socket").empty() == parser.get_string("tcp").empty()) {
    throw std::invalid_argument(
        "elpc client: exactly one of --socket or --tcp is required");
  }
  daemon::DaemonEndpoint endpoint;
  if (!parser.get_string("tcp").empty()) {
    const auto [host, port] =
        parse_host_port(parser.get_string("tcp"), "elpc client: --tcp");
    endpoint = daemon::DaemonEndpoint::tcp_at(host, port);
  } else {
    endpoint =
        daemon::DaemonEndpoint::unix_path_at(parser.get_string("socket"));
  }
  daemon::DaemonClientOptions client_options;
  client_options.auth_token = parser.get_string("auth-token");
  const std::string protocol = parser.get_string("protocol");
  if (protocol == "v1") {
    client_options.protocol = daemon::ProtocolPreference::kV1;
  } else if (protocol == "v2") {
    client_options.protocol = daemon::ProtocolPreference::kV2;
  } else if (protocol == "auto") {
    client_options.protocol = daemon::ProtocolPreference::kAuto;
  } else {
    throw std::invalid_argument(
        "elpc client: --protocol must be auto, v1, or v2 (got '" + protocol +
        "')");
  }
  daemon::DaemonClient client(endpoint, client_options);

  const auto require_ticket = [&parser]() -> daemon::Ticket {
    if (parser.get_int("ticket") < 0) {
      throw std::invalid_argument("elpc client: --ticket is required");
    }
    return static_cast<daemon::Ticket>(parser.get_int("ticket"));
  };

  if (verb == "load") {
    if (parser.get_string("jobs").empty()) {
      throw std::invalid_argument("elpc client load: --jobs is required");
    }
    service::BatchSpec spec;
    try {
      spec = service::batch_spec_from_json(
          util::Json::parse(util::read_text_file(parser.get_string("jobs"))));
    } catch (const std::exception& e) {
      throw std::invalid_argument("elpc client load: cannot load job file '" +
                                  parser.get_string("jobs") + "': " +
                                  e.what());
    }
    if (!parser.flag("no-register")) {
      for (const auto& [id, network] : spec.networks) {
        client.register_network(id, network);
      }
    }
    for (service::SolveJob& job : spec.jobs) {
      if (parser.flag("incremental")) {
        job.resolve_on_update = true;
      }
      if (parser.get_int("deadline-ms") > 0) {
        job.deadline_ms = parser.get_int("deadline-ms");
      }
    }
    // Pipelined: a window of submits, then a window of waits, in flight
    // on the one connection instead of one round trip per job.
    const std::vector<daemon::Ticket> tickets = client.submit_all(
        spec.jobs, static_cast<int>(parser.get_int("priority")));
    if (!parser.flag("wait")) {
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        out << "ticket " << tickets[i] << " " << spec.jobs[i].id << "\n";
      }
      return 0;
    }
    // Typed waits: each result crosses the wire as whatever the
    // negotiated protocol prefers (v1 JSON entry or a v2 binary result
    // table) and re-serializes to the identical canonical bytes either
    // way.  wait_all answers in ticket order, whatever order the jobs
    // finish in.
    const std::vector<daemon::JobStatusView> statuses =
        client.wait_all(tickets);
    util::JsonArray entries;
    bool any_failed = false;
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      const daemon::JobStatusView& status = statuses[i];
      if (status.shutting_down) {
        // The daemon released the wait because it is going down; the
        // job will never finish.  Fail this entry deterministically
        // instead of throwing on the absent result.
        util::Json entry = util::JsonObject{};
        entry.set("id", spec.jobs[i].id);
        entry.set("error", "daemon shutting down before job completed");
        any_failed = true;
        entries.push_back(std::move(entry));
        continue;
      }
      const service::SolveResult& result = status.result.value();
      any_failed = any_failed || !result.error.empty();
      entries.push_back(service::result_entry_to_json(result));
    }
    util::Json doc = util::JsonObject{};
    doc.set("results", util::Json(std::move(entries)));
    out << doc.dump(2) << "\n";
    return any_failed ? 2 : 0;
  }
  if (verb == "poll") {
    // Typed status view; to_json() reproduces the raw frame exactly.
    out << client.poll_status(require_ticket()).to_json().dump(2) << "\n";
    return 0;
  }
  if (verb == "wait") {
    out << client.wait_status(require_ticket()).to_json().dump(2) << "\n";
    return 0;
  }
  if (verb == "cancel") {
    const bool cancelled = client.cancel(require_ticket());
    out << (cancelled ? "cancelled\n" : "no-op (already terminal)\n");
    return 0;
  }
  if (verb == "update") {
    if (parser.get_string("network").empty() ||
        parser.get_string("updates").empty()) {
      throw std::invalid_argument(
          "elpc client update: --network and --updates are required");
    }
    const std::vector<graph::LinkUpdate> updates =
        service::link_updates_from_json(util::Json::parse(
            util::read_text_file(parser.get_string("updates"))));
    util::JsonArray entries;
    for (const service::SolveResult& result :
         client.resolve_link_updates(parser.get_string("network"), updates)) {
      entries.push_back(service::result_entry_to_json(result));
    }
    util::Json doc = util::JsonObject{};
    doc.set("results", util::Json(std::move(entries)));
    out << doc.dump(2) << "\n";
    return 0;
  }
  if (verb == "stats") {
    out << client.stats().dump(2) << "\n";
    return 0;
  }
  if (verb == "metrics") {
    // Raw Prometheus text exposition — pipe-friendly, no JSON wrapper.
    out << client.metrics();
    return 0;
  }
  if (verb == "slowlog") {
    daemon::DaemonClient::SlowlogFilter filter;
    filter.state = parser.get_string("state");
    filter.kernel = parser.get_string("filter-kernel");
    filter.min_ms = parser.get_double("min-ms");
    const util::Json response = client.slowlog(filter);
    if (parser.flag("json")) {
      out << response.dump(2) << "\n";
      return 0;
    }
    const auto num = [](const util::Json& obj, const char* key) -> double {
      const util::Json* value = obj.find(key);
      return (value != nullptr && value->is_number()) ? value->as_number()
                                                      : 0.0;
    };
    const util::JsonArray& entries = response.at("entries").as_array();
    out << "slowlog: threshold " << response.at("slow_ms").as_int()
        << " ms, " << entries.size() << " span(s) shown, "
        << response.at("total").as_int() << " ever logged\n";
    for (const util::Json& span : entries) {
      char line[320];
      std::snprintf(
          line, sizeof(line),
          "  ticket %-6lld %-9s e2e %9.2fms queue %9.2fms solve %9.2fms "
          "%-7s %s%s%s\n",
          static_cast<long long>(span.at("ticket").as_int()),
          span.at("state").as_string().c_str(), num(span, "e2e_ms"),
          num(span, "queue_wait_ms"), num(span, "solve_ms"),
          span.at("kernel").as_string().c_str(),
          span.at("job_id").as_string().c_str(),
          span.contains("trace_id") ? " trace=" : "",
          span.contains("trace_id") ? span.at("trace_id").as_string().c_str()
                                    : "");
      out << line;
    }
    return 0;
  }
  if (verb == "trace") {
    const util::Json response = client.trace();
    const util::Json& trace = response.at("trace");
    // Validate before anything touches disk: a malformed document here
    // is a daemon bug, and CI greps the "trace ok" line below.
    std::string error;
    if (!daemon::validate_chrome_trace(trace, &error)) {
      throw std::runtime_error(
          "elpc client trace: daemon returned an invalid trace document: " +
          error);
    }
    const std::string doc = trace.dump(2) + "\n";
    if (parser.get_string("out").empty()) {
      out << doc;
      return 0;
    }
    util::write_text_file(parser.get_string("out"), doc);
    const auto count = [&response](const char* key) -> std::int64_t {
      const util::Json* value = response.find(key);
      return (value != nullptr && value->is_number()) ? value->as_int() : 0;
    };
    out << "trace ok: " << count("events") << " events, " << count("spans")
        << " spans -> " << parser.get_string("out") << " (recorded "
        << count("recorded") << ", dropped " << count("dropped")
        << ", profiling "
        << (response.at("profiling").as_bool() ? "on" : "off") << ")\n";
    return 0;
  }
  if (verb == "top") {
    return run_client_top(client, parser.get_int("interval-ms"),
                          parser.get_int("iterations"), out);
  }
  if (verb == "pause") {
    client.pause();
    out << "paused\n";
    return 0;
  }
  if (verb == "resume") {
    client.resume();
    out << "resumed\n";
    return 0;
  }
  if (verb == "drain") {
    const util::Json report = client.drain(parser.get_int("timeout-ms"));
    out << report.dump(2) << "\n";
    // Exit status mirrors the report: nonzero when work is still stuck,
    // so scripts can `client drain && kill` safely.
    return report.at("drained").as_bool() ? 0 : 2;
  }
  if (verb == "shutdown") {
    client.shutdown_server();
    out << "daemon shut down\n";
    return 0;
  }
  throw std::invalid_argument("elpc client: unknown verb '" + verb + "'");
}

/// `elpc fuzz`: the incremental-parity fuzzer behind the CI
/// incremental-parity job.  Builds seeded random topologies with
/// subscribed mapping jobs, streams seeded random link-update rounds
/// through BatchEngine::apply_link_updates, and emits every round's
/// results in the canonical serialized form.  The random stream depends
/// only on --seed/--rounds, so two runs that differ ONLY by
/// --incremental must produce byte-identical documents — any divergence
/// is a real incremental-DP bug.  --min-hits asserts the incremental
/// run actually reused checkpoints (a parity pass that silently full-
/// solved everything proves nothing).
int cmd_fuzz(const std::vector<std::string>& args, std::ostream& out) {
  util::ArgParser parser("elpc fuzz");
  parser.add_int("seed", 7, "rng stream for topologies, jobs, and updates");
  parser.add_int("rounds", 20, "link-update rounds across the topologies");
  parser.add_int("threads", 2, "engine worker threads");
  parser.add_flag("incremental",
                  "enable checkpoint column-reuse re-solves (the output "
                  "must not change)");
  parser.add_int("min-hits", 0,
                 "fail unless at least this many re-solves reused a "
                 "checkpoint");
  parser.add_string("out", "", "write the parity JSON here (default: stdout)");
  parser.parse(args);
  if (parser.get_int("rounds") < 0 || parser.get_int("threads") < 0 ||
      parser.get_int("min-hits") < 0) {
    throw std::invalid_argument("elpc fuzz: options must be >= 0");
  }

  service::BatchEngineOptions engine_options;
  engine_options.threads = static_cast<std::size_t>(parser.get_int("threads"));
  engine_options.factory = engine_mapper_factory();
  engine_options.incremental = parser.flag("incremental");
  service::BatchEngine engine(engine_options);

  util::Rng master(static_cast<std::uint64_t>(parser.get_int("seed")));
  std::vector<std::string> ids;
  std::vector<service::SolveJob> jobs;
  for (const auto& [nodes, links, modules] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{10, 54, 5},
        {16, 120, 7},
        {25, 300, 9}}) {
    const std::string id = "t" + std::to_string(ids.size());
    util::Rng rng = master.split(ids.size() + 1);
    engine.register_network(
        id, graph::random_connected_network(rng, nodes, links,
                                            graph::AttributeRanges{}));
    ids.push_back(id);
    // Two subscribed frame-rate jobs per topology (the incremental
    // path's clients) plus one subscribed min-delay job, which always
    // re-solves fully — mixing pins that deltas serve both kinds.
    for (const auto& [suffix, src, dst] :
         {std::tuple<const char*, std::size_t, std::size_t>{"a", 0,
                                                            nodes - 1},
          {"b", 1, nodes - 2}}) {
      service::SolveJob job;
      job.id = id + "/framerate/" + suffix;
      job.network = id;
      job.pipeline =
          pipeline::random_pipeline(rng, modules, pipeline::PipelineRanges{});
      job.source = src;
      job.destination = dst;
      job.objective = service::Objective::kMaxFrameRate;
      job.cost = service::default_cost(job.objective);
      job.resolve_on_update = true;
      jobs.push_back(std::move(job));
    }
    service::SolveJob delay = jobs.back();
    delay.id = id + "/delay";
    delay.objective = service::Objective::kMinDelay;
    delay.cost = service::default_cost(delay.objective);
    jobs.push_back(std::move(delay));
  }

  util::Json doc = util::JsonObject{};
  doc.set("seed", parser.get_int("seed"));
  doc.set("rounds", parser.get_int("rounds"));
  doc.set("initial", service::results_to_json(engine.solve(jobs)).at("results"));

  util::Rng update_rng = master.split(101);
  util::JsonArray rounds;
  for (std::int64_t round = 0; round < parser.get_int("rounds"); ++round) {
    const std::string& id = ids[update_rng.index(ids.size())];
    const service::NetworkSnapshot snap = engine.session(id).snapshot();
    const std::size_t count = 1 + update_rng.index(3);
    std::vector<graph::LinkUpdate> updates;
    for (std::size_t i = 0; i < count; ++i) {
      graph::NodeId from = update_rng.index(snap->node_count());
      while (snap->out_degree(from) == 0) {
        from = update_rng.index(snap->node_count());
      }
      const graph::Edge edge =
          snap->out_edges(from)[update_rng.index(snap->out_degree(from))];
      updates.push_back(graph::LinkUpdate{
          edge.from, edge.to,
          graph::LinkAttr{
              edge.attr.bandwidth_mbps * update_rng.uniform_real(0.25, 4.0),
              edge.attr.min_delay_s * update_rng.uniform_real(0.5, 2.0)}});
    }
    util::Json entry = util::JsonObject{};
    entry.set("network", id);
    entry.set("updates", service::link_updates_to_json(updates));
    entry.set("results",
              service::results_to_json(engine.apply_link_updates(id, updates))
                  .at("results"));
    rounds.push_back(std::move(entry));
  }
  doc.set("resolves", util::Json(std::move(rounds)));

  const service::EngineStats stats = engine.stats();
  const std::string text = doc.dump(2) + "\n";
  if (parser.get_string("out").empty()) {
    out << text;
  } else {
    util::write_text_file(parser.get_string("out"), text);
    out << "wrote " << parser.get_string("out") << " (incremental hits "
        << stats.incremental_hits << ", misses " << stats.incremental_misses
        << ", columns reused " << stats.incremental_columns_reused << ")\n";
  }
  if (stats.incremental_hits <
      static_cast<std::uint64_t>(parser.get_int("min-hits"))) {
    throw std::runtime_error(
        "elpc fuzz: incremental reuse engaged " +
        std::to_string(stats.incremental_hits) + " time(s), below --min-hits " +
        std::to_string(parser.get_int("min-hits")));
  }
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args, std::ostream& out) {
  util::ArgParser parser("elpc simulate");
  parser.add_string("in", "", "scenario JSON (empty = built-in small case)");
  parser.add_int("frames", 100, "frames to stream");
  parser.add_double("interval", 0.0, "injection interval seconds (0 = saturate)");
  parser.parse(args);

  const workload::Scenario scenario = parser.get_string("in").empty()
                                          ? workload::small_case()
                                          : load_scenario(parser.get_string("in"));
  const mapping::Problem problem =
      scenario.problem({.include_link_delay = false});
  const mapping::MapResult mapped = core::ElpcMapper().max_frame_rate(problem);
  if (!mapped.feasible) {
    out << "infeasible: " << mapped.reason << "\n";
    return 2;
  }
  sim::SimConfig config;
  config.frames = static_cast<std::size_t>(parser.get_int("frames"));
  config.injection_interval_s = parser.get_double("interval");
  const sim::SimReport report = sim::simulate(problem, mapped.mapping, config);
  out << "mapping            : " << mapped.mapping.to_string() << "\n";
  out << "analytic bound     : "
      << util::format_double(mapped.frame_rate(), 2) << " frames/s\n";
  out << "simulated rate     : "
      << util::format_double(report.throughput_fps, 2) << " frames/s\n";
  out << "first-frame latency: "
      << util::format_double(report.first_frame_latency_s() * 1e3, 2)
      << " ms\n";
  out << "events executed    : " << report.events << "\n";
  return 0;
}

/// One available kernel name per line (machine-consumable: the CI
/// kernel-parity job loops over this to know what it can force on the
/// runner it landed on), then the resolved default on a marked line.
int cmd_kernels(std::ostream& out) {
  for (const core::kernels::Kind kind : core::kernels::available_kernels()) {
    out << core::kernels::kind_name(kind) << "\n";
  }
  out << "# default: "
      << core::kernels::kind_name(
             core::kernels::resolve_kernel(core::kernels::Kind::kAuto))
      << "\n";
  return 0;
}

int cmd_suite(std::ostream& out) {
  util::ThreadPool pool;
  const auto outcomes = run_suite(workload::default_suite(),
                                  workload::SuiteConfig{}, RunnerOptions{},
                                  pool);
  out << fig2_table(outcomes).render();
  for (const ShapeCheck& check : shape_checks(outcomes)) {
    out << (check.pass ? "[PASS] " : "[FAIL] ") << check.description << "\n";
  }
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 1;
  }
  const std::string command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "generate") {
      return cmd_generate(rest, out);
    }
    if (command == "map") {
      return cmd_map(rest, out);
    }
    if (command == "batch") {
      return cmd_batch(rest, out);
    }
    if (command == "serve") {
      return cmd_serve(rest, out);
    }
    if (command == "client") {
      return cmd_client(rest, out);
    }
    if (command == "fuzz") {
      return cmd_fuzz(rest, out);
    }
    if (command == "simulate") {
      return cmd_simulate(rest, out);
    }
    if (command == "suite") {
      return cmd_suite(out);
    }
    if (command == "algorithms") {
      out << util::join(registered_names(), "\n") << "\n";
      return 0;
    }
    if (command == "kernels") {
      return cmd_kernels(out);
    }
    err << "unknown command '" << command << "'\n" << kUsage;
    return 1;
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "failure: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace elpc::experiments
