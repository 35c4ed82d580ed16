#pragma once
// The serving side of the benchmark: an in-process daemon with the fixed
// workload configuration, the closed-loop load generators that drive it
// through the public client surfaces, and the direct solves every answer
// is checked against.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "daemon/client.hpp"
#include "daemon/socket_server.hpp"
#include "inputs.hpp"

namespace perfbench {

/// The daemon every workload runs against: Unix socket plus loopback
/// TCP, incremental re-solves on, 2 engine threads, 2 IO workers, auto
/// kernel, the full mapper registry (as `elpc serve` installs it).
class Daemon {
 public:
  explicit Daemon(std::string socket_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] elpc::daemon::SocketServer& server() { return *server_; }
  [[nodiscard]] elpc::daemon::DaemonEndpoint unix_endpoint() const;
  [[nodiscard]] elpc::daemon::DaemonEndpoint tcp_endpoint() const;
  [[nodiscard]] const std::string& socket_path() const { return path_; }

 private:
  std::string path_;
  std::unique_ptr<elpc::daemon::SocketServer> server_;
  std::thread serve_thread_;
};

inline constexpr std::size_t kEngineThreads = 2;
inline constexpr std::size_t kIoWorkers = 2;

/// One load-generator connection: where it connects and what it speaks.
struct ConnSpec {
  std::string label;  // "unix_v1", "tcp_v2"
  bool tcp = false;
  elpc::daemon::ProtocolPreference protocol =
      elpc::daemon::ProtocolPreference::kV1;
  int version = 1;
};

/// The two connections of small_rpc and large_solve.
[[nodiscard]] std::vector<ConnSpec> two_connections();

/// Registers networks over a client connection (the setup path).
void register_networks(const Daemon& daemon, const NamedNetworks& networks);
void register_network(const Daemon& daemon, const std::string& id,
                      const elpc::graph::Network& network);

/// Submits the subscriptions and waits for each (link_churn's setup).
/// Returns the canonical result entries of the subscription solves.
std::vector<std::string> subscribe(const Daemon& daemon,
                                   const ChurnInputs& churn);

/// Canonical result entries (service::result_entry_to_json, dumped) of a
/// direct BatchEngine::solve of `jobs`, index-aligned.
[[nodiscard]] std::vector<std::string> direct_entries(
    const NamedNetworks& networks,
    const std::vector<elpc::service::SolveJob>& jobs);

/// One answered op of a timed phase: when it was sent and when its answer
/// was decoded, in seconds since the phase started, and how many ops it
/// counts for (a bulk load counts its jobs; a wrong answer counts 0).
struct OpSpan {
  double start_s = 0.0;
  double end_s = 0.0;
  double ops = 0.0;
};

/// What one timed phase measured.
struct PhaseResult {
  Samples latency_ms;
  /// Every answered op, in no particular order.
  std::vector<OpSpan> spans;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  double wall_s = 0.0;
  /// Per-connection latencies, in connection order, and (bounded
  /// phases only: the traced run's probe) the tickets they belong to.
  std::vector<Samples> per_conn_ms;
  std::vector<std::vector<std::pair<elpc::daemon::Ticket, double>>> tickets;

  [[nodiscard]] double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
  /// Heap bytes these per-op records hold.  They grow with the op count,
  /// so heap_in_use_mb leaves them out: it measures the daemon, not how
  /// many ops the host let the run complete.
  [[nodiscard]] std::size_t record_bytes() const;
};

/// Closed-loop job traffic: one thread and one connection per ConnSpec,
/// each submitting a job drawn from `pool` and waiting for its result
/// before sending the next, until `seconds` elapse (or `max_ops` per
/// connection, when nonzero).  Every answer is compared with `expected`.
/// `traced` wraps each client call in a span (the traced run's
/// client-side boundary); the phase is otherwise identical.
[[nodiscard]] PhaseResult drive_jobs(
    const Daemon& daemon, const std::vector<ConnSpec>& conns,
    const std::vector<elpc::service::SolveJob>& pool,
    const std::vector<std::string>& expected, double seconds,
    std::uint64_t seed, std::size_t max_ops, bool traced, Gate& gate);

/// bulk_load: `elpc client load --wait` in-process over `job_file`,
/// repeated until `seconds` elapse; each output must equal `batch_doc`
/// (what `elpc batch` prints for the same file).  An op is one job.
[[nodiscard]] PhaseResult drive_bulk(const Daemon& daemon,
                                     const std::string& job_file,
                                     const std::string& batch_doc,
                                     std::size_t jobs_per_load, double seconds,
                                     bool traced, Gate& gate);

/// Everything link_churn sent and received, for the after-run check.
struct ChurnLog {
  std::vector<std::vector<elpc::graph::LinkUpdate>> batches;
  /// fnv1a over each batch's re-solved entries, in subscription order.
  std::vector<std::uint64_t> answer_hashes;
  /// The last batch's entries verbatim.
  std::vector<std::string> last_entries;
};

/// link_churn: one v2 connection streaming update batches through
/// resolve_link_updates; an op is one batch with all its re-solves.
[[nodiscard]] PhaseResult drive_churn(const Daemon& daemon,
                                      const ChurnInputs& churn,
                                      UpdateStream& stream, double seconds,
                                      bool traced, ChurnLog& log, Gate& gate);

/// Replays the logged stream on a direct incremental engine and checks
/// every batch's answers, then checks the final re-solves bit for bit
/// against a scratch full solve on the final revision.
void verify_churn(const ChurnInputs& churn, const ChurnLog& log, Gate& gate);

}  // namespace perfbench
