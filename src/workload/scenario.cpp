#include "workload/scenario.hpp"

#include "graph/serialize.hpp"
#include "pipeline/serialize.hpp"

namespace elpc::workload {

std::string dump_json(const Scenario& scenario, int indent) {
  util::Json doc;
  doc.set("name", scenario.name);
  doc.set("pipeline", pipeline::to_json(scenario.pipeline));
  doc.set("source", scenario.source);
  doc.set("destination", scenario.destination);
  std::string out;
  util::dump_with_member(out, doc, indent, 0, "network",
                         [&](std::string& text, int depth) {
                           graph::append_json(text, scenario.network, indent,
                                              depth);
                         });
  return out;
}

util::Json to_json(const Scenario& scenario) {
  return util::Json::parse(dump_json(scenario));
}

Scenario scenario_from_json(const util::Json& doc) {
  Scenario scenario;
  scenario.name = doc.at("name").as_string();
  scenario.pipeline = pipeline::pipeline_from_json(doc.at("pipeline"));
  scenario.network = graph::network_from_json(doc.at("network"));
  scenario.source = graph::node_id_from_json(doc.at("source"), "source");
  scenario.destination =
      graph::node_id_from_json(doc.at("destination"), "destination");
  if (scenario.source >= scenario.network.node_count() ||
      scenario.destination >= scenario.network.node_count()) {
    throw util::JsonError("scenario: endpoint out of range");
  }
  return scenario;
}

}  // namespace elpc::workload
