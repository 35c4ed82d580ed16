#include "pipeline/serialize.hpp"

namespace elpc::pipeline {

util::Json to_json(const Pipeline& pipeline) {
  util::JsonArray modules;
  modules.reserve(pipeline.modules().size());
  for (const ModuleSpec& m : pipeline.modules()) {
    // Members in key order: one allocation, no sort.
    modules.emplace_back(util::JsonObject({{"complexity", m.complexity},
                                           {"name", m.name},
                                           {"output_mb", m.output_mb}}));
  }
  util::Json doc;
  doc.set("modules", util::Json(std::move(modules)));
  return doc;
}

Pipeline pipeline_from_json(const util::Json& doc) {
  std::vector<ModuleSpec> specs;
  for (const util::Json& m : doc.at("modules").as_array()) {
    ModuleSpec spec;
    spec.name = m.at("name").as_string();
    spec.complexity = m.at("complexity").as_number();
    spec.output_mb = m.at("output_mb").as_number();
    specs.push_back(std::move(spec));
  }
  return Pipeline(std::move(specs));
}

}  // namespace elpc::pipeline
