// The stats-field table and what renders it: the `stats` verb and the
// gauges a metrics exposition refreshes.  Each field is declared once,
// so the JSON key set and the Prometheus families cannot drift apart.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "daemon/socket_server.hpp"
#include "util/cpu_features.hpp"

namespace elpc::daemon {

namespace {

/// Current OS thread count of this process (/proc/self/status), the
/// `stats` field the 1000-idle-connection smoke asserts on: it must
/// stay at the fixed worker-pool size however many clients connect.
/// 0 when the proc file is unavailable.
std::int64_t os_thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  std::int64_t threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %lld",
                    reinterpret_cast<long long*>(&threads)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

/// Build/provenance block for `stats`: which toolchain produced this
/// daemon, which SIMD kernels the build compiled in, and what the CPU it
/// runs on actually supports — enough to explain a surprising `kernel`
/// value from a snapshot alone.
util::Json build_info_json() {
  util::Json info = util::JsonObject{};
#if defined(__clang__)
  info.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  info.set("compiler", std::string("gcc ") + __VERSION__);
#else
  info.set("compiler", "unknown");
#endif
  std::string compiled = "scalar";
  if (core::kernels::avx2_cell_kernel() != nullptr) {
    compiled += ",avx2";
  }
  if (core::kernels::avx512_cell_kernel() != nullptr) {
    compiled += ",avx512";
  }
  info.set("simd_compiled", compiled);
  const util::CpuFeatures cpu = util::CpuFeatures::get();
  std::string features;
  if (cpu.avx2) {
    features += "avx2";
  }
  if (cpu.avx512f) {
    features += features.empty() ? "avx512f" : ",avx512f";
  }
  info.set("cpu_features", features);
  std::string runnable;
  for (const core::kernels::Kind kind : core::kernels::available_kernels()) {
    if (!runnable.empty()) {
      runnable += ",";
    }
    runnable += core::kernels::kind_name(kind);
  }
  info.set("kernels_available", runnable);
  return info;
}

}  // namespace

const std::vector<SocketServer::StatsField>& SocketServer::stats_fields() {
  // Gauges sampled from cumulative-at-source values are exposed with
  // counter semantics.  Rows without a family are JSON-only: job outcome
  // and incremental totals have their own elpc_*_total counters, recorded
  // by the manager and engine on the solve path.
#define ELPC_STAT(expr) \
  []([[maybe_unused]] const StatsSample& s) -> util::Json { return expr; }
  static const std::vector<StatsField> fields = {
      // key, family, getter, help, labels, counter semantics
      {"queued", "elpc_queued", ELPC_STAT(s.jobs.queued),
       "Jobs waiting for dispatch"},
      {"running", "elpc_running", ELPC_STAT(s.jobs.running),
       "Jobs currently dispatched"},
      {"done", nullptr, ELPC_STAT(s.jobs.done)},
      {"failed", nullptr, ELPC_STAT(s.jobs.failed)},
      {"cancelled", nullptr, ELPC_STAT(s.jobs.cancelled)},
      {"timed_out", nullptr, ELPC_STAT(s.jobs.timed_out)},
      {"submitted", nullptr, ELPC_STAT(s.jobs.submitted)},
      {"paused", "elpc_paused", ELPC_STAT(s.jobs.paused),
       "1 while dispatch is gated"},
      {"draining", "elpc_draining", ELPC_STAT(s.jobs.draining),
       "1 once drain closed admission"},
      {"sessions", "elpc_sessions", ELPC_STAT(s.engine.sessions),
       "Registered network sessions"},
      {"subscriptions", "elpc_subscriptions",
       ELPC_STAT(s.engine.subscriptions), "Jobs retained for re-solves"},
      {"arenas_created", "elpc_arenas_created_total",
       ELPC_STAT(s.engine.arenas_created), "DP arenas ever constructed", {},
       true},
      {"cached_bytes", "elpc_cached_bytes", ELPC_STAT(s.engine.cached_bytes),
       "Network bytes held: current plus pinned revisions"},
      {"incremental_hits", nullptr, ELPC_STAT(s.engine.incremental_hits)},
      {"incremental_misses", nullptr, ELPC_STAT(s.engine.incremental_misses)},
      {"incremental_columns_reused", nullptr,
       ELPC_STAT(s.engine.incremental_columns_reused)},
      {"incremental_cells_recomputed", nullptr,
       ELPC_STAT(s.engine.incremental_cells_recomputed)},
      {"checkpoints", "elpc_checkpoints", ELPC_STAT(s.engine.checkpoints),
       "Incremental DP checkpoints held"},
      {"checkpoint_bytes", "elpc_checkpoint_bytes",
       ELPC_STAT(s.engine.checkpoint_bytes), "Checkpoint bytes held"},
      {"checkpoint_evictions", "elpc_checkpoint_evictions_total",
       ELPC_STAT(s.engine.checkpoint_evictions), "Checkpoint evictions", {},
       true},
      // Leak diagnostic: 0 with no solve in flight; monotonic growth
      // means a hung solve holds its revision forever.
      {"pinned_revisions", "elpc_pinned_revisions",
       ELPC_STAT(s.engine.pinned_revisions),
       "Superseded revisions pinned by references"},
      {"pinned_bytes", "elpc_pinned_bytes", ELPC_STAT(s.engine.pinned_bytes),
       "Pinned revision bytes"},
      {"kernel", nullptr, ELPC_STAT(s.engine.kernel)},
      {"connections", nullptr, ELPC_STAT(s.live)},
      {"connections_unix", "elpc_connections",
       ELPC_STAT(s.live_on[kUnixListener]), "Live client connections",
       {{"transport", "unix"}}},
      {"connections_tcp", "elpc_connections",
       ELPC_STAT(s.live_on[kTcpListener]), "Live client connections",
       {{"transport", "tcp"}}},
      // Its own family: a proto label in elpc_connections{transport}
      // would fork that family's label set.
      {"connections_v1", "elpc_connections_proto",
       ELPC_STAT(s.live - std::min(s.live, s.live_v2)),
       "Live client connections by negotiated protocol version",
       {{"proto", "v1"}}},
      {"connections_v2", "elpc_connections_proto", ELPC_STAT(s.live_v2),
       "Live client connections by negotiated protocol version",
       {{"proto", "v2"}}},
      {"protocol_min", nullptr, ELPC_STAT(wire::kProtocolVersionMin)},
      {"protocol_max", nullptr, ELPC_STAT(wire::kProtocolVersionMax)},
      {"connections_accepted", nullptr,
       ELPC_STAT(s.accepted_on[kUnixListener] +
                 s.accepted_on[kTcpListener])},
      {nullptr, "elpc_connections_accepted_total",
       ELPC_STAT(s.accepted_on[kUnixListener]),
       "Connections ever accepted", {{"transport", "unix"}}, true},
      {nullptr, "elpc_connections_accepted_total",
       ELPC_STAT(s.accepted_on[kTcpListener]),
       "Connections ever accepted", {{"transport", "tcp"}}, true},
      {"auth_required", nullptr,
       ELPC_STAT(!s.server.options_.auth_token.empty())},
      {"auth_failures", nullptr,
       ELPC_STAT(s.server.auth_failures_c_->value())},
      {"quota_rejections", nullptr,
       ELPC_STAT(s.server.quota_rejections_c_->value())},
      {"io_workers", nullptr, ELPC_STAT(s.server.options_.io_workers)},
      {"threads_os", "elpc_os_threads", ELPC_STAT(os_thread_count()),
       "OS threads of the daemon process (fixed-pool invariant: "
       "independent of connection count)"},
      {"tcp_port", nullptr, ELPC_STAT(s.server.tcp_port())},
      {"uptime_ms", "elpc_uptime_ms", ELPC_STAT(s.uptime_ms),
       "Milliseconds since daemon start"},
      {"started_unix_ms", nullptr, ELPC_STAT(s.server.started_unix_ms_)},
      {"slow_ms", nullptr, ELPC_STAT(s.server.options_.slow_ms)},
      {nullptr, "elpc_slowlog_spans_total",
       ELPC_STAT(s.server.slowlog_.total_added()),
       "Spans ever added to the slowlog ring", {}, true},
  };
#undef ELPC_STAT
  return fields;
}

SocketServer::StatsSample SocketServer::sample_stats() const {
  StatsSample sample{*this, manager_->stats(), engine_->stats()};
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    const MuxListener& counts = mux_->counts(*listeners_[i]);
    sample.live_on[i] = counts.live.load(std::memory_order_relaxed);
    sample.accepted_on[i] = counts.accepted.load(std::memory_order_relaxed);
    sample.live += sample.live_on[i];
  }
  sample.live_v2 = live_v2_.load(std::memory_order_relaxed);
  sample.uptime_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - started_)
                         .count();
  return sample;
}

void SocketServer::register_collectors() {
  // Gauges refresh at exposition time from live stats (never recorded on
  // the solve path): resolve each child once here, set them in the
  // collect callback.
  std::vector<std::pair<util::Gauge*, const StatsField*>> gauges;
  for (const StatsField& field : stats_fields()) {
    if (field.family != nullptr) {
      gauges.emplace_back(&metrics_.gauge(field.family, field.help,
                                          field.labels, field.counter),
                          &field);
    }
  }
  metrics_.on_collect([this, gauges = std::move(gauges)]() {
    const StatsSample sample = sample_stats();
    for (const auto& [gauge, field] : gauges) {
      const util::Json value = field->get(sample);
      gauge->set(value.is_bool() ? (value.as_bool() ? 1.0 : 0.0)
                                 : value.as_number());
    }
  });
}

util::Json SocketServer::stats_json() {
  const StatsSample sample = sample_stats();
  util::Json response = util::JsonObject{};
  response.set("ok", true);
  for (const StatsField& field : stats_fields()) {
    if (field.key != nullptr) {
      response.set(field.key, field.get(sample));
    }
  }
  // How many jobs each kernel has served (operators check this after
  // forcing a kernel via ELPC_FORCE_KERNEL or serve --kernel).
  util::Json kernel_jobs = util::JsonObject{};
  for (const auto& [name, served] : sample.engine.kernel_jobs) {
    kernel_jobs.set(name, served);
  }
  response.set("kernel_jobs", std::move(kernel_jobs));
  response.set("build", build_info_json());
  // The same snapshot the `metrics` verb exposes, in compact JSON
  // (per-family percentiles, no bucket arrays) — one round trip for
  // `client top` and the chaos driver's invariants.
  response.set("metrics", metrics_.json_snapshot());
  return response;
}

}  // namespace elpc::daemon
