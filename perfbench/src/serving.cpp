#include "serving.hpp"

#include <atomic>
#include <filesystem>
#include <iostream>
#include <latch>
#include <sstream>

#include "experiments/cli_app.hpp"
#include "experiments/registry.hpp"
#include "service/serialize.hpp"

namespace perfbench {

namespace d = elpc::daemon;
namespace s = elpc::service;

Daemon::Daemon(std::string socket_path) : path_(std::move(socket_path)) {
  d::SocketServerOptions options;
  options.threads = kEngineThreads;
  options.incremental = true;
  options.kernel = elpc::core::kernels::Kind::kAuto;
  options.io_workers = kIoWorkers;
  options.tcp = true;
  options.tcp_host = "127.0.0.1";
  options.tcp_port = 0;
  options.factory = elpc::experiments::engine_mapper_factory();
  server_ = std::make_unique<d::SocketServer>(path_, std::move(options));
  serve_thread_ = std::thread([this] {
    try {
      server_->serve();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: daemon stopped: " << e.what() << "\n";
    }
  });
}

Daemon::~Daemon() {
  server_->stop();
  serve_thread_.join();
  server_.reset();
  std::error_code ignored;
  std::filesystem::remove(path_, ignored);
}

d::DaemonEndpoint Daemon::unix_endpoint() const {
  return d::DaemonEndpoint::unix_path_at(path_);
}

d::DaemonEndpoint Daemon::tcp_endpoint() const {
  return d::DaemonEndpoint::tcp_at("127.0.0.1", server_->tcp_port());
}

std::vector<ConnSpec> two_connections() {
  return {ConnSpec{"unix_v1", false, d::ProtocolPreference::kV1, 1},
          ConnSpec{"tcp_v2", true, d::ProtocolPreference::kV2, 2}};
}

namespace {

d::DaemonClientOptions client_options(d::ProtocolPreference protocol) {
  d::DaemonClientOptions options;
  options.protocol = protocol;
  // A transport failure is a failed op here, never a silent retry.
  options.max_retries = 0;
  return options;
}

std::string entry_of(const s::SolveResult& result) {
  return s::result_entry_to_json(result).dump();
}

}  // namespace

std::size_t PhaseResult::record_bytes() const {
  std::size_t bytes = latency_ms.values().capacity() * sizeof(double) +
                      spans.capacity() * sizeof(OpSpan);
  for (const Samples& conn : per_conn_ms) {
    bytes += conn.values().capacity() * sizeof(double);
  }
  for (const auto& conn : tickets) {
    bytes += conn.capacity() * sizeof(conn.front());
  }
  return bytes;
}

void register_networks(const Daemon& daemon, const NamedNetworks& networks) {
  d::DaemonClient client(daemon.unix_endpoint(),
                         client_options(d::ProtocolPreference::kV1));
  for (const auto& [id, network] : networks) {
    client.register_network(id, network);
  }
}

void register_network(const Daemon& daemon, const std::string& id,
                      const elpc::graph::Network& network) {
  d::DaemonClient client(daemon.unix_endpoint(),
                         client_options(d::ProtocolPreference::kV1));
  client.register_network(id, network);
}

std::vector<std::string> subscribe(const Daemon& daemon,
                                   const ChurnInputs& churn) {
  d::DaemonClient client(daemon.unix_endpoint(),
                         client_options(d::ProtocolPreference::kV2));
  std::vector<std::string> entries;
  for (const s::SolveJob& job : churn.subscriptions) {
    const d::JobStatusView status = client.wait_status(client.submit(job));
    if (!status.result.has_value() || !status.result->error.empty()) {
      throw std::runtime_error("subscription " + job.id + " did not solve");
    }
    entries.push_back(entry_of(*status.result));
  }
  return entries;
}

std::vector<std::string> direct_entries(const NamedNetworks& networks,
                                        const std::vector<s::SolveJob>& jobs) {
  s::BatchEngineOptions options;
  options.threads = kEngineThreads;
  options.factory = elpc::experiments::engine_mapper_factory();
  s::BatchEngine engine(options);
  for (const auto& [id, network] : networks) {
    engine.register_network(id, network);
  }
  std::vector<std::string> entries;
  for (const s::SolveResult& result : engine.solve(jobs)) {
    entries.push_back(entry_of(result));
  }
  return entries;
}

PhaseResult drive_jobs(const Daemon& daemon, const std::vector<ConnSpec>& conns,
                       const std::vector<s::SolveJob>& pool,
                       const std::vector<std::string>& expected, double seconds,
                       std::uint64_t seed, std::size_t max_ops, bool traced,
                       Gate& gate) {
  PhaseResult result;
  result.per_conn_ms.resize(conns.size());
  result.tickets.resize(conns.size());
  std::vector<std::vector<OpSpan>> per_conn_spans(conns.size());
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> completed{0};
  // Every connection is up before the clock starts.
  std::latch connected(static_cast<std::ptrdiff_t>(conns.size()));
  std::latch go(1);
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      const ConnSpec& conn = conns[i];
      std::unique_ptr<d::DaemonClient> client;
      try {
        client = std::make_unique<d::DaemonClient>(
            conn.tcp ? daemon.tcp_endpoint() : daemon.unix_endpoint(),
            client_options(conn.protocol));
        if (client->protocol_version() != conn.version) {
          gate.fail(conn.label, "negotiated protocol v" +
                                    std::to_string(client->protocol_version()));
        }
      } catch (const std::exception& e) {
        gate.fail(conn.label, e.what());
        client.reset();
      }
      connected.count_down();
      go.wait();
      if (!client) {
        return;
      }
      elpc::util::Rng rng = elpc::util::Rng(seed).split(1000 + i);
      Tracer tracer;
      Tracer* const trace = traced ? &tracer : nullptr;
      for (std::size_t ops = 0;
           max_ops != 0 ? ops < max_ops : Clock::now() < end; ++ops) {
        const std::size_t k = rng.index(pool.size());
        attempted.fetch_add(1);
        try {
          const auto t0 = Clock::now();
          d::Ticket ticket = 0;
          d::JobStatusView status;
          maybe_span(trace, "daemon.client.submit",
                     [&] { ticket = client->submit(pool[k]); });
          maybe_span(trace, "daemon.client.wait",
                     [&] { status = client->wait_status(ticket); });
          const auto t1 = Clock::now();
          const double ms = ms_between(t0, t1);
          result.per_conn_ms[i].add(ms);
          if (max_ops != 0) {
            result.tickets[i].emplace_back(ticket, ms);
          }
          bool ok = false;
          if (!status.result.has_value()) {
            gate.fail(conn.label, "job " + pool[k].id + " ended " + status.state);
          } else if (gate.expect_equal(conn.label, expected[k],
                                       entry_of(*status.result))) {
            completed.fetch_add(1);
            ok = true;
          }
          per_conn_spans[i].push_back({ms_between(start, t0) / 1e3,
                                       ms_between(start, t1) / 1e3,
                                       ok ? 1.0 : 0.0});
        } catch (const std::exception& e) {
          gate.fail(conn.label, e.what());
          break;
        }
      }
    });
  }
  connected.wait();
  start = Clock::now();
  end = start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  go.count_down();
  for (std::thread& t : threads) {
    t.join();
  }
  result.wall_s = ms_between(start, Clock::now()) / 1e3;
  result.attempted = attempted.load();
  result.completed = completed.load();
  for (const Samples& conn : result.per_conn_ms) {
    result.latency_ms.append(conn);
  }
  for (const std::vector<OpSpan>& spans : per_conn_spans) {
    result.spans.insert(result.spans.end(), spans.begin(), spans.end());
  }
  return result;
}

PhaseResult drive_bulk(const Daemon& daemon, const std::string& job_file,
                       const std::string& batch_doc, std::size_t jobs_per_load,
                       double seconds, bool traced, Gate& gate) {
  const std::vector<std::string> args = {
      "client", "load",  "--socket",     daemon.socket_path(), "--jobs",
      job_file, "--wait", "--no-register"};
  PhaseResult result;
  Tracer tracer;
  Tracer* const trace = traced ? &tracer : nullptr;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  do {
    std::ostringstream out;
    std::ostringstream err;
    int rc = 0;
    const auto t0 = Clock::now();
    maybe_span(trace, "experiments.run_cli.client_load",
               [&] { rc = elpc::experiments::run_cli(args, out, err); });
    const auto t1 = Clock::now();
    result.latency_ms.add(ms_between(t0, t1));
    result.attempted += jobs_per_load;
    bool ok = false;
    if (rc != 0) {
      gate.fail("bulk_load", "client load exited " + std::to_string(rc) +
                                 ": " + err.str());
    } else if (gate.expect_equal("bulk_load", batch_doc, out.str())) {
      result.completed += jobs_per_load;
      ok = true;
    }
    result.spans.push_back({ms_between(start, t0) / 1e3,
                            ms_between(start, t1) / 1e3,
                            ok ? static_cast<double>(jobs_per_load) : 0.0});
  } while (Clock::now() < end);
  result.wall_s = ms_between(start, Clock::now()) / 1e3;
  return result;
}

PhaseResult drive_churn(const Daemon& daemon, const ChurnInputs& churn,
                        UpdateStream& stream, double seconds, bool traced,
                        ChurnLog& log, Gate& gate) {
  PhaseResult result;
  Tracer tracer;
  Tracer* const trace = traced ? &tracer : nullptr;
  d::DaemonClient client(daemon.unix_endpoint(),
                         client_options(d::ProtocolPreference::kV2));
  if (client.protocol_version() != 2) {
    gate.fail("link_churn", "connection did not negotiate v2");
  }
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    std::vector<elpc::graph::LinkUpdate> batch = stream.next();
    ++result.attempted;
    try {
      const auto t0 = Clock::now();
      std::vector<s::SolveResult> resolved;
      maybe_span(trace, "daemon.client.resolve_link_updates", [&] {
        resolved = client.resolve_link_updates(churn.network_id, batch);
      });
      const auto t1 = Clock::now();
      result.latency_ms.add(ms_between(t0, t1));
      const bool ok = resolved.size() == churn.subscriptions.size();
      if (!ok) {
        gate.fail("link_churn", "batch re-solved " +
                                    std::to_string(resolved.size()) + " jobs");
      }
      result.spans.push_back({ms_between(start, t0) / 1e3,
                              ms_between(start, t1) / 1e3, ok ? 1.0 : 0.0});
      std::uint64_t hash = fnv1a("");
      log.last_entries.clear();
      for (const s::SolveResult& r : resolved) {
        log.last_entries.push_back(entry_of(r));
        hash = fnv1a(log.last_entries.back(), hash);
      }
      log.batches.push_back(std::move(batch));
      log.answer_hashes.push_back(hash);
      ++result.completed;
    } catch (const std::exception& e) {
      gate.fail("link_churn", e.what());
      break;
    }
  }
  result.wall_s = ms_between(start, Clock::now()) / 1e3;
  return result;
}

void verify_churn(const ChurnInputs& churn, const ChurnLog& log, Gate& gate) {
  s::BatchEngineOptions options;
  options.threads = kEngineThreads;
  options.factory = elpc::experiments::engine_mapper_factory();
  options.incremental = true;
  s::BatchEngine replay(options);
  replay.register_network(churn.network_id, churn.network);
  (void)replay.solve(churn.subscriptions);
  for (std::size_t i = 0; i < log.batches.size(); ++i) {
    std::uint64_t hash = fnv1a("");
    for (const s::SolveResult& r :
         replay.apply_link_updates(churn.network_id, log.batches[i])) {
      hash = fnv1a(entry_of(r), hash);
    }
    gate.expect_equal("link_churn batch " + std::to_string(i),
                      std::to_string(hash),
                      std::to_string(log.answer_hashes[i]));
  }
  if (log.batches.empty()) {
    return;
  }
  // Scratch full solve on the final revision: a fresh engine with no
  // checkpoints and no history, so nothing incremental can leak in.
  options.incremental = false;
  s::BatchEngine scratch(options);
  scratch.register_network(churn.network_id,
                           *replay.session(churn.network_id).snapshot());
  std::vector<s::SolveJob> jobs = churn.subscriptions;
  for (s::SolveJob& job : jobs) {
    job.resolve_on_update = false;
  }
  const std::vector<s::SolveResult> full = scratch.solve(jobs);
  for (std::size_t j = 0; j < full.size(); ++j) {
    s::SolveResult expected = full[j];
    // The scratch session starts at revision 0; the answer must match the
    // daemon's in every other bit.
    expected.network_revision = log.batches.size();
    gate.expect_equal("link_churn final re-solve " + jobs[j].id,
                      entry_of(expected),
                      j < log.last_entries.size() ? log.last_entries[j] : "");
  }
}

}  // namespace perfbench
