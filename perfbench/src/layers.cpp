#include "layers.hpp"

#include <map>
#include <optional>
#include <span>

#include "core/elpc.hpp"
#include "core/incremental.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "daemon/wire_format.hpp"
#include "experiments/registry.hpp"
#include "service/serialize.hpp"

namespace perfbench {

namespace d = elpc::daemon;
namespace g = elpc::graph;
namespace s = elpc::service;
using elpc::util::Json;
using elpc::util::JsonObject;

namespace {

/// Small-job round trips per connection in the daemon probe.
constexpr std::size_t kProbeOps = 256;
/// Polls of one terminal ticket per transport.
constexpr std::size_t kRttPolls = 400;
/// Submit/poll frames replayed through SocketServer::handle.
constexpr std::size_t kHandleFrames = 200;
/// Passes over the small-job pool for the microsecond-scale replays.
constexpr std::size_t kSmallPasses = 4;
/// Update batches replayed by the engine, network and incremental layers.
constexpr std::size_t kEngineBatches = 100;
constexpr std::size_t kCoreBatches = 50;
/// Trace id the computed frames carry (the client stamps "c<pid>-<seq>").
constexpr const char* kTraceId = "c4242-17";

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit, std::size_t samples) {
  out.push_back(Metric{std::move(name), value, std::move(unit), samples, ""});
}

/// p50 of a span family, in the span's native microseconds.
void add_p50_us(std::vector<Metric>& out, const Tracer& tracer,
                const std::string& name) {
  const Samples us = tracer.durations_us(name);
  add(out, name + "_us", us.median(), "us", us.count());
}

double histogram_field(const Json& snapshot, const std::string& family,
                       const std::string& field, std::size_t& count) {
  const Json* h = snapshot.at("histograms").find(family);
  if (h == nullptr) {
    count = 0;
    return 0.0;
  }
  count = static_cast<std::size_t>(h->at("count").as_int());
  return h->at(field).as_number();
}

Json submit_frame(const s::SolveJob& job) {
  Json frame = JsonObject{};
  frame.set("verb", "submit");
  frame.set("job", s::to_json(job));
  frame.set("priority", 0);
  return frame;
}

Json ticket_frame(const char* verb, d::Ticket ticket) {
  Json frame = JsonObject{};
  frame.set("verb", verb);
  frame.set("ticket", ticket);
  return frame;
}

const g::Network& network_named(const NamedNetworks& networks,
                                 const std::string& id) {
  for (const auto& [name, network] : networks) {
    if (name == id) {
      return network;
    }
  }
  throw std::out_of_range("no generated network " + id);
}

elpc::core::ElpcOptions engine_elpc_options() {
  // What service::make_engine_elpc configures, minus the shard arena.
  elpc::core::ElpcOptions options;
  options.parallel_sweep = false;
  options.framerate_kernel =
      elpc::core::kernels::resolve_kernel(elpc::core::kernels::Kind::kAuto);
  return options;
}

s::BatchEngineOptions engine_options(bool incremental) {
  s::BatchEngineOptions options;
  options.threads = kEngineThreads;
  options.factory = elpc::experiments::engine_mapper_factory();
  options.incremental = incremental;
  return options;
}

std::vector<std::vector<g::LinkUpdate>> first_batches(const ChurnInputs& churn,
                                                      std::uint64_t seed,
                                                      std::size_t count) {
  UpdateStream stream(churn.network, seed);
  std::vector<std::vector<g::LinkUpdate>> batches;
  for (std::size_t i = 0; i < count; ++i) {
    batches.push_back(stream.next());
  }
  return batches;
}

}  // namespace

ProbeGaps measure_daemon_layers(Daemon& daemon, const SmallInputs& small,
                                const std::vector<std::string>& expected,
                                std::uint64_t seed, Gate& gate,
                                std::vector<Metric>& out) {
  const std::vector<ConnSpec> conns = two_connections();
  const PhaseResult probe = drive_jobs(daemon, conns, small.pool, expected, 0.0,
                                       seed ^ 0x9e3779b9ULL, kProbeOps,
                                       /*traced=*/false, gate);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    add(out, "daemon.client.latency_p50_ms." + conns[i].label,
        probe.per_conn_ms[i].median(), "ms", probe.per_conn_ms[i].count());
  }
  // The probe ran last, so its spans are the newest in the tracelog ring.
  std::map<d::Ticket, double> e2e_ms;
  for (const d::TraceSpan& span : daemon.server().tracelog().entries()) {
    e2e_ms[span.ticket] = span.e2e_ms;
  }
  ProbeGaps gaps;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    for (const auto& [ticket, client_ms] : probe.tickets[i]) {
      const auto it = e2e_ms.find(ticket);
      if (it != e2e_ms.end()) {
        (conns[i].version == 1 ? gaps.v1_us : gaps.v2_us)
            .add((client_ms - it->second) * 1e3);
      }
    }
  }

  Tracer tracer;
  for (const ConnSpec& conn : conns) {
    d::DaemonClientOptions options;
    options.protocol = conn.protocol;
    options.max_retries = 0;
    d::DaemonClient client(
        conn.tcp ? daemon.tcp_endpoint() : daemon.unix_endpoint(), options);
    const d::Ticket ticket = client.submit(small.pool.front());
    (void)client.wait_status(ticket);
    const std::string name = "daemon.socket_server.rtt." + conn.label;
    for (std::size_t i = 0; i < kRttPolls; ++i) {
      tracer.span(name, [&] { (void)client.poll_status(ticket); });
    }
    const Samples rtt_us = tracer.durations_us(name);
    add(out, "daemon.socket_server.rtt_us." + conn.label, rtt_us.median(), "us",
        rtt_us.count());
  }

  d::SocketServer& server = daemon.server();
  std::vector<d::Ticket> tickets;
  for (std::size_t i = 0; i < kHandleFrames; ++i) {
    const Json frame = submit_frame(small.pool[i % small.pool.size()]);
    tracer.span("daemon.socket_server.handle.submit", [&] {
      tickets.push_back(
          static_cast<d::Ticket>(server.handle(frame).at("ticket").as_int()));
    });
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    (void)server.manager().wait(tickets[i]);
    const Json frame = ticket_frame("poll", tickets[i]);
    Json response;
    tracer.span("daemon.socket_server.handle.poll",
                [&] { response = server.handle(frame); });
    const Json* result = response.find("result");
    if (result == nullptr) {
      gate.fail("handle poll", response.dump());
    } else {
      gate.expect_equal("handle poll", expected[i % small.pool.size()],
                        result->dump());
    }
  }
  const Samples submit_us =
      tracer.durations_us("daemon.socket_server.handle.submit");
  const Samples poll_us = tracer.durations_us("daemon.socket_server.handle.poll");
  add(out, "daemon.socket_server.handle_us",
      submit_us.median() + poll_us.median(), "us",
      submit_us.count() + poll_us.count());

  const Json snapshot = server.metrics().json_snapshot();
  std::size_t n = 0;
  double v = histogram_field(snapshot, "elpc_queue_wait_ms", "p50_ms", n);
  add(out, "daemon.job_manager.queue_wait_p50_ms", v, "ms", n);
  v = histogram_field(snapshot, "elpc_queue_wait_ms", "p99_ms", n);
  add(out, "daemon.job_manager.queue_wait_p99_ms", v, "ms", n);
  v = histogram_field(snapshot, "elpc_e2e_ms", "p50_ms", n);
  add(out, "daemon.job_manager.e2e_p50_ms", v, "ms", n);
  v = histogram_field(snapshot, "elpc_solve_ms", "p50_ms", n);
  add(out, "service.batch_engine.solve_p50_ms", v, "ms", n);
  return gaps;
}

void measure_layers(const LayerInputs& in, const ProbeGaps& gaps,
                    std::vector<Metric>& out) {
  Tracer tracer;
  std::size_t sink = 0;  // keeps replayed work observable

  // ---- small jobs: client codec, wire frames, serializers, one-job solves
  s::BatchEngine small_engine(engine_options(false));
  for (const auto& [id, network] : in.small.networks) {
    small_engine.register_network(id, network);
  }
  const std::vector<s::SolveResult> small_results =
      small_engine.solve(in.small.pool);

  double v1_bytes = 0.0;
  double v2_bytes = 0.0;
  for (std::size_t pass = 0; pass < kSmallPasses; ++pass) {
    for (std::size_t k = 0; k < in.small.pool.size(); ++k) {
      const s::SolveJob& job = in.small.pool[k];
      const s::SolveResult& result = small_results[k];
      std::string request;
      tracer.span("daemon.client.encode", [&] {
        Json frame = submit_frame(job);
        frame.set("trace_id", kTraceId);
        request = frame.dump();
      });
      d::JobStatusView status;
      status.ticket = k + 1;
      status.state = "done";
      status.trace_id = kTraceId;
      status.result = result;
      const std::string v1_line = status.to_json().dump();
      tracer.span("daemon.client.decode.v1", [&] {
        const s::SolveResult decoded =
            s::result_entry_from_json(Json::parse(v1_line).at("result"));
        sink += decoded.job_id.size();
      });
      std::string payload;
      tracer.span("daemon.wire_format.result_table", [&] {
        payload = d::wire::encode_result_table(
            std::span<const s::SolveResult>(&result, 1));
        sink += d::wire::decode_result_table(payload).size();
      });
      tracer.span("daemon.client.decode.v2", [&] {
        sink += d::wire::decode_result_table(payload).size();
      });
      const Json job_doc = s::to_json(job);
      tracer.span("service.serialize.job_from_json",
                  [&] { sink += s::job_from_json(job_doc).id.size(); });
      tracer.span("service.serialize.result_to_json", [&] {
        sink += s::result_entry_to_json(result).dump().size();
      });
      if (pass == 0) {
        // Computed frame bytes of one submit + wait exchange, newline
        // terminators included; v2 replaces the wait answer's JSON
        // result with a control line plus a binary result table.
        Json submit_answer = JsonObject{};
        submit_answer.set("ok", true);
        submit_answer.set("ticket", status.ticket);
        submit_answer.set("trace_id", kTraceId);
        Json wait_request = ticket_frame("wait", status.ticket);
        wait_request.set("trace_id", kTraceId);
        const double common = static_cast<double>(
            request.size() + submit_answer.dump().size() +
            wait_request.dump().size() + 3);
        JsonObject control = status.to_json().as_object();
        control.erase("result");
        control.emplace("payload", "result");
        v1_bytes += common + static_cast<double>(v1_line.size() + 1);
        v2_bytes += common + static_cast<double>(Json(control).dump().size() +
                                                 1 + d::wire::kHeaderBytes +
                                                 payload.size());
      }
    }
  }
  const double pool_jobs = static_cast<double>(in.small.pool.size());
  add_p50_us(out, tracer, "daemon.client.encode");
  const Samples decode_v1 = tracer.durations_us("daemon.client.decode.v1");
  const Samples decode_v2 = tracer.durations_us("daemon.client.decode.v2");
  add(out, "daemon.client.decode_us.v1", decode_v1.median(), "us",
      decode_v1.count());
  add(out, "daemon.client.decode_us.v2", decode_v2.median(), "us",
      decode_v2.count());
  add(out, "daemon.client.wire_bytes_per_job.v1", v1_bytes / pool_jobs,
      "bytes", in.small.pool.size());
  add(out, "daemon.client.wire_bytes_per_job.v2", v2_bytes / pool_jobs,
      "bytes", in.small.pool.size());
  add_p50_us(out, tracer, "daemon.wire_format.result_table");
  add_p50_us(out, tracer, "service.serialize.job_from_json");
  add_p50_us(out, tracer, "service.serialize.result_to_json");

  // daemon.unattributed_us: what the client saw beyond the daemon's own
  // span and the client's encode + decode.
  {
    const double encode = tracer.durations_us("daemon.client.encode").median();
    Samples unattributed;
    for (const double gap : gaps.v1_us.values()) {
      unattributed.add(gap - encode - decode_v1.median());
    }
    for (const double gap : gaps.v2_us.values()) {
      unattributed.add(gap - encode - decode_v2.median());
    }
    add(out, "daemon.unattributed_us", unattributed.median(), "us",
        unattributed.count());
  }

  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (const s::SolveJob& job : in.small.pool) {
      tracer.span("service.batch_engine.small_solve",
                  [&] { sink += small_engine.solve({job}).size(); });
    }
  }
  add_p50_us(out, tracer, "service.batch_engine.small_solve");

  // ---- bulk: the `elpc batch` floor on the bulk file's jobs
  {
    s::BatchEngine bulk_engine(engine_options(false));
    for (const auto& [id, network] : in.bulk.networks) {
      bulk_engine.register_network(id, network);
    }
    Samples walls_s;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      sink += bulk_engine.solve(in.bulk.jobs).size();
      walls_s.add(ms_between(t0, Clock::now()) / 1e3);
    }
    add(out, "service.batch_engine.bulk_ops_s",
        static_cast<double>(in.bulk.jobs.size()) / walls_s.median(), "ops/s",
        walls_s.count());
  }

  // ---- the update stream through the engine, the codec, the network
  const std::vector<std::vector<g::LinkUpdate>> batches =
      first_batches(in.churn, in.seed, kEngineBatches);
  {
    s::BatchEngine engine(engine_options(true));
    engine.register_network(in.churn.network_id, in.churn.network);
    sink += engine.solve(in.churn.subscriptions).size();
    for (const auto& batch : batches) {
      tracer.span("service.batch_engine.apply_updates", [&] {
        sink += engine.apply_link_updates(in.churn.network_id, batch).size();
      });
    }
    add_p50_us(out, tracer, "service.batch_engine.apply_updates");
    std::size_t n = 0;
    const double staleness =
        histogram_field(engine.metrics().json_snapshot(),
                        "elpc_resolve_staleness_ms", "p50_ms", n);
    add(out, "service.batch_engine.resolve_staleness_p50_ms", staleness, "ms",
        n);
    const s::EngineStats stats = engine.stats();
    add(out, "service.network_session.cached_bytes",
        static_cast<double>(stats.cached_bytes), "bytes", 1);
    add(out, "service.network_session.pinned_revisions",
        static_cast<double>(stats.pinned_revisions), "count", 1);
    add(out, "service.network_session.checkpoint_bytes",
        static_cast<double>(stats.checkpoint_bytes), "bytes", 1);
  }
  for (const auto& batch : batches) {
    tracer.span("daemon.wire_format.link_table", [&] {
      const std::string payload =
          d::wire::encode_link_update_table(in.churn.network_id, batch);
      sink += d::wire::decode_link_update_table(payload).updates.size();
    });
  }
  add_p50_us(out, tracer, "daemon.wire_format.link_table");
  {
    // The session's copy-on-write step: clone the current revision (CSR
    // view included), patch the clone.
    in.churn.network.finalize();
    g::Network current = in.churn.network;
    for (const auto& batch : batches) {
      std::optional<g::Network> next;
      tracer.span("graph.network.apply_updates", [&] {
        next.emplace(current);
        next->apply_link_updates(batch);
      });
      current = std::move(*next);
    }
    add_p50_us(out, tracer, "graph.network.apply_updates");
  }

  // ---- core: direct ELPC solves
  {
    std::uint64_t columns = 0;
    elpc::core::ElpcOptions options = engine_elpc_options();
    options.abort_probe = [&columns] {
      ++columns;
      return elpc::core::SolveAbort::kNone;
    };
    const elpc::core::ElpcMapper mapper(options);
    for (const s::SolveJob& job : in.large.pool) {
      const g::Network& network = network_named(in.large.networks, job.network);
      network.finalize();
      const elpc::mapping::Problem problem(job.pipeline, network, job.source,
                                           job.destination, job.cost);
      tracer.span("core.elpc.framerate", [&] {
        sink += mapper.max_frame_rate(problem).feasible ? 2 : 1;
      });
    }
    const Samples framerate_us = tracer.durations_us("core.elpc.framerate");
    add(out, "core.elpc.framerate_ms", framerate_us.median() / 1e3, "ms",
        framerate_us.count());
    add(out, "core.elpc.dp_columns_per_job",
        static_cast<double>(columns) /
            static_cast<double>(in.large.pool.size()),
        "count", in.large.pool.size());
  }
  {
    const elpc::core::ElpcMapper mapper(engine_elpc_options());
    for (std::size_t pass = 0; pass < kSmallPasses; ++pass) {
      for (const s::SolveJob& job : in.small.pool) {
        if (job.algorithm != "ELPC") {
          continue;
        }
        const elpc::mapping::Problem problem(
            job.pipeline, network_named(in.small.networks, job.network),
            job.source, job.destination, job.cost);
        tracer.span("core.elpc.small_solve", [&] {
          sink += (job.objective == s::Objective::kMinDelay
                       ? mapper.min_delay(problem)
                       : mapper.max_frame_rate(problem))
                      .feasible ? 2 : 1;
        });
      }
    }
    add_p50_us(out, tracer, "core.elpc.small_solve");
  }
  {
    // Checkpoint plus delta, one checkpoint per subscription, replaying
    // the head of the link_churn stream.
    g::Network network = in.churn.network;
    network.finalize();
    std::vector<elpc::core::IncrementalCheckpoint> checkpoints(
        in.churn.subscriptions.size());
    std::uint64_t attempted = 0;
    std::uint64_t hits = 0;
    std::uint64_t columns_total = 0;
    std::uint64_t columns_reused = 0;
    auto solve = [&](std::size_t j, const std::vector<g::LinkUpdate>* delta) {
      const s::SolveJob& job = in.churn.subscriptions[j];
      elpc::core::IncrementalStats stats;
      elpc::core::ElpcOptions options = engine_elpc_options();
      options.checkpoint = &checkpoints[j];
      options.delta = delta;
      options.incremental_stats = &stats;
      const elpc::core::ElpcMapper mapper(options);
      const elpc::mapping::Problem problem(job.pipeline, network, job.source,
                                           job.destination, job.cost);
      sink += mapper.max_frame_rate(problem).feasible ? 2 : 1;
      return stats;
    };
    for (std::size_t j = 0; j < checkpoints.size(); ++j) {
      (void)solve(j, nullptr);  // full solve, captures the checkpoint
    }
    for (std::size_t b = 0; b < kCoreBatches; ++b) {
      network.apply_link_updates(batches[b]);
      for (std::size_t j = 0; j < checkpoints.size(); ++j) {
        elpc::core::IncrementalStats stats;
        tracer.span("core.incremental.resolve",
                    [&] { stats = solve(j, &batches[b]); });
        ++attempted;
        hits += stats.incremental ? 1 : 0;
        columns_total += stats.columns_total;
        columns_reused += stats.columns_reused;
      }
    }
    const Samples resolve_us = tracer.durations_us("core.incremental.resolve");
    add(out, "core.incremental.resolve_ms", resolve_us.median() / 1e3, "ms",
        resolve_us.count());
    add(out, "core.incremental.hit_rate",
        static_cast<double>(hits) / static_cast<double>(attempted), "fraction",
        attempted);
    add(out, "core.incremental.hit_basis", static_cast<double>(attempted),
        "count", 1);
    add(out, "core.incremental.columns_reused_frac",
        static_cast<double>(columns_reused) /
            static_cast<double>(columns_total),
        "fraction", columns_total);
    add(out, "core.incremental.columns_basis",
        static_cast<double>(columns_total), "count", 1);
  }

  // ---- util::Json over the workload's own frames
  {
    std::size_t bytes = 0;
    const auto t0 = Clock::now();
    double elapsed_s = 0.0;
    std::size_t passes = 0;
    do {
      for (const std::string& frame : in.frames) {
        sink += Json::parse(frame).is_object() ? 1 : 0;
        bytes += frame.size();
      }
      ++passes;
      elapsed_s = ms_between(t0, Clock::now()) / 1e3;
    } while (passes < 3 || elapsed_s < 0.25);
    add(out, "util.json.parse_mb_s", static_cast<double>(bytes) / 1e6 / elapsed_s,
        "MB/s", passes * in.frames.size());
  }
  if (sink == 0) {
    throw std::logic_error("layer replays produced nothing");
  }
}

}  // namespace perfbench
