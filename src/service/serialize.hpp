#pragma once
// JSON schema of the batch mapping service: the job file the `batch`
// CLI subcommand consumes and the canonical result document it emits.
//
// Job file:
//   {"networks": [{"id": "...", "network": {<graph/serialize.hpp>}}],
//    "jobs": [{"id", "network", "objective": "delay"|"framerate",
//              "pipeline": {<pipeline/serialize.hpp>}, "source",
//              "destination",
//              optional: "algorithm" (default "ELPC"),
//                        "include_link_delay" (default per objective),
//                        "resolve_on_update" (default false),
//                        "deadline_ms" (>= 0, default 0 = none),
//                        "trace_id"}]}
// Other members are ignored.  Each job is solved exactly once.
//
// Result document ({"results": [...]}, one entry per job, job order):
// canonical by construction — sorted object keys, no timing or shard
// metadata unless include_timing is set — so two runs of the same job
// file are byte-identical regardless of worker count (pinned by
// tests/service/batch_engine_test.cpp).

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "service/batch_engine.hpp"
#include "util/json.hpp"

namespace elpc::service {

/// Wire name of an objective ("delay" / "framerate").
[[nodiscard]] std::string objective_name(Objective objective);
/// Inverse of objective_name; throws std::invalid_argument otherwise.
[[nodiscard]] Objective objective_from_name(const std::string& name);

/// Everything a batch run needs: networks to register plus the queue.
struct BatchSpec {
  std::vector<std::pair<std::string, graph::Network>> networks;
  std::vector<SolveJob> jobs;
};

[[nodiscard]] util::Json to_json(const SolveJob& job);
[[nodiscard]] SolveJob job_from_json(const util::Json& doc);

/// The job file as text, the bytes Json::dump(indent) prints for it,
/// with each network written by graph::append_json and never built as a
/// tree; to_json is that text parsed.
[[nodiscard]] std::string dump_json(const BatchSpec& spec, int indent = 0);
[[nodiscard]] util::Json to_json(const BatchSpec& spec);
[[nodiscard]] BatchSpec batch_spec_from_json(const util::Json& doc);

/// One result as its canonical JSON entry (what results_to_json emits
/// per job; also the daemon's poll/update response payload).
/// `include_timing` adds the mean_runtime_ms and shard fields — useful
/// interactively, excluded from the canonical (deterministic) form.
[[nodiscard]] util::Json result_entry_to_json(const SolveResult& result,
                                              bool include_timing = false);

/// Results in job order, wrapped as {"results": [...]}.
[[nodiscard]] util::Json results_to_json(
    std::span<const SolveResult> results, bool include_timing = false);

/// Inverse of result_entry_to_json over the canonical fields (the
/// non-canonical timing block, when present, is ignored): what the
/// typed client decodes wire result entries through.  Re-serializing
/// the returned value is byte-identical to the input entry — %.17g
/// doubles round-trip exactly — which is what keeps `elpc client load
/// --wait` output byte-equal to `elpc batch` through the typed API.
[[nodiscard]] SolveResult result_entry_from_json(const util::Json& entry);

/// Wire form of one metric delta:
/// {"from", "to", "bandwidth_mbps", "min_delay_s"} — the link-update
/// payload of the daemon's apply_link_updates verb.
[[nodiscard]] util::Json to_json(const graph::LinkUpdate& update);
[[nodiscard]] graph::LinkUpdate link_update_from_json(const util::Json& doc);

/// An array of metric deltas ([{...}, ...]).
[[nodiscard]] util::Json link_updates_to_json(
    std::span<const graph::LinkUpdate> updates);
[[nodiscard]] std::vector<graph::LinkUpdate> link_updates_from_json(
    const util::Json& doc);

}  // namespace elpc::service
