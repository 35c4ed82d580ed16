#include "service/serialize.hpp"

#include <stdexcept>

#include "graph/serialize.hpp"
#include "pipeline/serialize.hpp"

namespace elpc::service {

std::string objective_name(Objective objective) {
  return objective == Objective::kMinDelay ? "delay" : "framerate";
}

Objective objective_from_name(const std::string& name) {
  if (name == "delay") {
    return Objective::kMinDelay;
  }
  if (name == "framerate") {
    return Objective::kMaxFrameRate;
  }
  throw std::invalid_argument("objective must be 'delay' or 'framerate', got '" +
                              name + "'");
}

util::Json to_json(const SolveJob& job) {
  util::Json doc = util::JsonObject{};
  doc.set("id", job.id);
  doc.set("network", job.network);
  doc.set("objective", objective_name(job.objective));
  doc.set("algorithm", job.algorithm);
  doc.set("pipeline", pipeline::to_json(job.pipeline));
  doc.set("source", job.source);
  doc.set("destination", job.destination);
  doc.set("include_link_delay", job.cost.include_link_delay);
  doc.set("resolve_on_update", job.resolve_on_update);
  if (job.deadline_ms > 0) {
    doc.set("deadline_ms", job.deadline_ms);
  }
  if (!job.trace_id.empty()) {
    doc.set("trace_id", job.trace_id);
  }
  return doc;
}

SolveJob job_from_json(const util::Json& doc) {
  SolveJob job;
  job.id = doc.at("id").as_string();
  job.network = doc.at("network").as_string();
  job.objective = objective_from_name(doc.at("objective").as_string());
  job.pipeline = pipeline::pipeline_from_json(doc.at("pipeline"));
  job.source = graph::node_id_from_json(doc.at("source"), "source");
  job.destination =
      graph::node_id_from_json(doc.at("destination"), "destination");
  if (const util::Json* algorithm = doc.find("algorithm")) {
    job.algorithm = algorithm->as_string();
  }
  job.cost = default_cost(job.objective);
  if (const util::Json* mld = doc.find("include_link_delay")) {
    job.cost.include_link_delay = mld->as_bool();
  }
  if (const util::Json* resolve = doc.find("resolve_on_update")) {
    job.resolve_on_update = resolve->as_bool();
  }
  if (const util::Json* deadline = doc.find("deadline_ms")) {
    const std::int64_t ms = deadline->as_int();
    if (ms < 0) {
      throw std::invalid_argument("job '" + job.id +
                                  "': deadline_ms must be >= 0");
    }
    job.deadline_ms = ms;
  }
  if (const util::Json* trace = doc.find("trace_id")) {
    job.trace_id = trace->as_string();
  }
  return job;
}

std::string dump_json(const BatchSpec& spec, int indent) {
  util::JsonArray jobs;
  for (const SolveJob& job : spec.jobs) {
    jobs.push_back(to_json(job));
  }
  util::Json doc = util::JsonObject{};
  doc.set("jobs", util::Json(std::move(jobs)));
  std::string out;
  util::dump_with_member(
      out, doc, indent, 0, "networks", [&](std::string& text, int depth) {
        if (spec.networks.empty()) {
          text += "[]";
          return;
        }
        text += '[';
        const char* separator = "";
        for (const auto& [id, network] : spec.networks) {
          text += separator;
          separator = ",";
          util::dump_newline(text, indent, depth + 1);
          util::Json entry = util::JsonObject{};
          entry.set("id", id);
          util::dump_with_member(
              text, entry, indent, depth + 1, "network",
              [&](std::string& inner, int inner_depth) {
                graph::append_json(inner, network, indent, inner_depth);
              });
        }
        util::dump_newline(text, indent, depth);
        text += ']';
      });
  return out;
}

util::Json to_json(const BatchSpec& spec) {
  return util::Json::parse(dump_json(spec));
}

BatchSpec batch_spec_from_json(const util::Json& doc) {
  BatchSpec spec;
  for (const util::Json& entry : doc.at("networks").as_array()) {
    spec.networks.emplace_back(entry.at("id").as_string(),
                               graph::network_from_json(entry.at("network")));
  }
  for (const util::Json& entry : doc.at("jobs").as_array()) {
    spec.jobs.push_back(job_from_json(entry));
  }
  return spec;
}

util::Json result_entry_to_json(const SolveResult& r, bool include_timing) {
  util::Json entry = util::JsonObject{};
  entry.set("job", r.job_id);
  entry.set("network", r.network);
  entry.set("revision", r.network_revision);
  entry.set("algorithm", r.algorithm);
  entry.set("objective", objective_name(r.objective));
  entry.set("feasible", r.result.feasible);
  if (!r.error.empty()) {
    entry.set("error", r.error);
  }
  if (r.result.feasible) {
    entry.set("seconds", r.result.seconds);
    if (r.objective == Objective::kMaxFrameRate) {
      entry.set("frame_rate", r.result.frame_rate());
    }
    util::JsonArray assignment;
    assignment.reserve(r.result.mapping.assignment().size());
    for (const graph::NodeId v : r.result.mapping.assignment()) {
      assignment.push_back(v);
    }
    entry.set("mapping", util::Json(std::move(assignment)));
  } else if (r.error.empty()) {
    entry.set("reason", r.result.reason);
  }
  if (include_timing) {
    // Machine-dependent metadata lives only in this block: the kernel
    // name varies by CPU, and the canonical form must stay byte-equal
    // across kernels (the CI parity job cmp's exactly that).
    if (!r.kernel.empty()) {
      entry.set("kernel", r.kernel);
    }
    entry.set("mean_runtime_ms", r.mean_runtime_ms);
    entry.set("shard", r.shard);
  }
  return entry;
}

util::Json results_to_json(std::span<const SolveResult> results,
                           bool include_timing) {
  util::JsonArray entries;
  for (const SolveResult& r : results) {
    entries.push_back(result_entry_to_json(r, include_timing));
  }
  util::Json doc = util::JsonObject{};
  doc.set("results", util::Json(std::move(entries)));
  return doc;
}

SolveResult result_entry_from_json(const util::Json& entry) {
  SolveResult r;
  r.job_id = entry.at("job").as_string();
  r.network = entry.at("network").as_string();
  r.network_revision =
      static_cast<std::uint64_t>(entry.at("revision").as_int());
  r.algorithm = entry.at("algorithm").as_string();
  r.objective = objective_from_name(entry.at("objective").as_string());
  r.result.feasible = entry.at("feasible").as_bool();
  if (const util::Json* error = entry.find("error")) {
    r.error = error->as_string();
  }
  if (const util::Json* seconds = entry.find("seconds")) {
    r.result.seconds = seconds->as_number();
  }
  if (const util::Json* mapping = entry.find("mapping")) {
    std::vector<graph::NodeId> assignment;
    for (const util::Json& node : mapping->as_array()) {
      assignment.push_back(graph::node_id_from_json(node, "mapping"));
    }
    if (!assignment.empty()) {
      r.result.mapping = mapping::Mapping(std::move(assignment));
    }
  }
  if (const util::Json* reason = entry.find("reason")) {
    r.result.reason = reason->as_string();
  }
  return r;
}

util::Json to_json(const graph::LinkUpdate& update) {
  util::Json doc = util::JsonObject{};
  doc.set("from", update.from);
  doc.set("to", update.to);
  doc.set("bandwidth_mbps", update.attr.bandwidth_mbps);
  doc.set("min_delay_s", update.attr.min_delay_s);
  return doc;
}

graph::LinkUpdate link_update_from_json(const util::Json& doc) {
  graph::LinkUpdate update;
  update.from = graph::node_id_from_json(doc.at("from"), "from");
  update.to = graph::node_id_from_json(doc.at("to"), "to");
  update.attr.bandwidth_mbps = doc.at("bandwidth_mbps").as_number();
  update.attr.min_delay_s = doc.at("min_delay_s").as_number();
  return update;
}

util::Json link_updates_to_json(std::span<const graph::LinkUpdate> updates) {
  util::JsonArray entries;
  for (const graph::LinkUpdate& update : updates) {
    entries.push_back(to_json(update));
  }
  return util::Json(std::move(entries));
}

std::vector<graph::LinkUpdate> link_updates_from_json(const util::Json& doc) {
  std::vector<graph::LinkUpdate> updates;
  for (const util::Json& entry : doc.as_array()) {
    updates.push_back(link_update_from_json(entry));
  }
  return updates;
}

}  // namespace elpc::service
