#pragma once
// A scenario bundles everything one mapping experiment needs: the
// application pipeline, the transport network, and the designated
// source/destination endpoints ("the system knows where the raw data is
// stored and where an end user is located", Section 4.1).

#include <string>

#include "graph/network.hpp"
#include "mapping/problem.hpp"
#include "pipeline/pipeline.hpp"
#include "util/json.hpp"

namespace elpc::workload {

/// Owning problem instance (Problem is the non-owning view of one).
struct Scenario {
  std::string name;
  pipeline::Pipeline pipeline;
  graph::Network network;
  graph::NodeId source = 0;
  graph::NodeId destination = 0;

  /// View bound to this scenario's storage with the given cost options.
  [[nodiscard]] mapping::Problem problem(
      pipeline::CostOptions cost = {}) const {
    return mapping::Problem(pipeline, network, source, destination, cost);
  }
};

/// Full JSON round-trip for persistence and diffing of generated suites.
/// dump_json writes the document as text, the bytes Json::dump(indent)
/// prints for it, with the network written by graph::append_json and
/// never built as a tree; to_json is that text parsed.
[[nodiscard]] std::string dump_json(const Scenario& scenario, int indent = 0);
[[nodiscard]] util::Json to_json(const Scenario& scenario);
[[nodiscard]] Scenario scenario_from_json(const util::Json& doc);

}  // namespace elpc::workload
