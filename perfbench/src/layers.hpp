#pragma once
// The traced run's per-layer table.  Each number comes from a span the
// benchmark records around a call into one layer's public functions:
// isolated replays of the workload's own inputs through SocketServer::
// handle, BatchEngine, the service serializers, the daemon::wire codecs,
// core::ElpcMapper and graph::Network, plus probes of the live daemon
// and its existing metrics histograms.  Nothing inside the program is
// instrumented.

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "inputs.hpp"
#include "serving.hpp"

namespace perfbench {

/// Client-seen time minus the daemon's own end-to-end span time, per
/// probe request, split by the protocol the request travelled on.
struct ProbeGaps {
  Samples v1_us;
  Samples v2_us;
};

/// Probes the live daemon after the workload's phases: small-job round
/// trips on both transports, polls of a terminal ticket, direct
/// SocketServer::handle calls, and the daemon's histograms.
ProbeGaps measure_daemon_layers(Daemon& daemon, const SmallInputs& small,
                                const std::vector<std::string>& expected,
                                std::uint64_t seed, Gate& gate,
                                std::vector<Metric>& out);

/// What the isolated replays read from the workload's inputs.
struct LayerInputs {
  const SmallInputs& small;
  const elpc::service::BatchSpec& bulk;
  const LargeInputs& large;
  const ChurnInputs& churn;
  std::uint64_t seed = 0;
  /// The workload's own wire frames, for the JSON parse rate.
  const std::vector<std::string>& frames;
};

/// Runs every isolated replay and appends its metrics; `gaps` turns into
/// daemon.unattributed_us once the client encode/decode costs are known.
void measure_layers(const LayerInputs& in, const ProbeGaps& gaps,
                    std::vector<Metric>& out);

}  // namespace perfbench
