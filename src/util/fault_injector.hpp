#pragma once
// FaultInjector — process-global probability points for survivability
// testing.  Production code asks `should_fire("point")` at the places a
// real deployment can break (arena growth, socket IO, engine threads,
// checkpoint state); with no configuration every query is a relaxed
// atomic load returning false, so the hooks cost nothing in normal
// runs.  The chaos harness (tools/chaos_driver.cpp + the CI chaos job)
// enables points on the daemon process only and asserts the serving
// invariants still hold.
//
// Configuration comes from the ELPC_FAULTS environment variable (read
// once, on first use) or an explicit configure() call:
//
//   ELPC_FAULTS="engine_stall=0.05:250,socket_send_epipe=0.01"
//
// Each entry is point=probability[:param]; the optional param is a
// point-specific magnitude (stall points read it as milliseconds).
// ELPC_FAULT_SEED seeds the decision stream, so a chaos run can be
// replayed.  Points wired in this repo:
//
//   arena_alloc        FrameRateArena::setup throws std::bad_alloc
//   engine_stall       BatchEngine::solve_one sleeps param ms
//   checkpoint_corrupt solve_one moves the checkpoint's recorded network
//                      version past any the session can reach
//                      (detectable: the next incremental re-solve fails
//                      its version check and falls back to a full solve
//                      — results stay bit-identical)
//   socket_send_epipe  StreamSocket::send_line throws before sending;
//                      the daemon's send_pending reports the connection
//                      dead (what EPIPE gives), so the mux closes it
//   socket_short_write StreamSocket::send_line sends a torn frame, then
//                      throws; the daemon's send_pending sends half the
//                      batch and reports would-block, so the rest leaves
//                      on the next writable wake
//   socket_recv_slow   StreamSocket::recv_line, and the daemon's
//                      recv_available, sleep param ms first

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace elpc::util {

class FaultInjector {
 public:
  /// The process-wide injector.  First call reads ELPC_FAULTS /
  /// ELPC_FAULT_SEED; later configure()/disable() calls override.
  [[nodiscard]] static FaultInjector& instance();

  /// Replaces the active configuration with `spec`
  /// ("point=prob[:param],..."); an empty spec disables everything.
  /// Throws std::invalid_argument on a malformed spec.
  void configure(const std::string& spec, std::uint64_t seed = 1);

  /// Drops every point (tests must call this before returning — the
  /// injector is process-global state).
  void disable();

  /// True when at least one point has probability > 0 — the fast gate
  /// every hook checks before taking the mutex.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Draws the point's probability; true means the caller should inject
  /// its failure now.  Unknown points never fire.
  [[nodiscard]] bool should_fire(const std::string& point);

  /// should_fire + sleep for the point's param milliseconds when it does
  /// (stall-style points); returns whether it fired.
  bool maybe_stall(const std::string& point);

  /// The point's param value (0 when unset/unknown).
  [[nodiscard]] double param_ms(const std::string& point) const;

  /// Times the point has fired since its configuration.
  [[nodiscard]] std::uint64_t fired(const std::string& point) const;

  /// Every configured point with its fired count (diagnostics).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters()
      const;

 private:
  FaultInjector();

  struct Point {
    double probability = 0.0;
    double param_ms = 0.0;
    std::uint64_t fired = 0;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, Point> points_;
  std::uint64_t rng_state_ = 0;
};

}  // namespace elpc::util
