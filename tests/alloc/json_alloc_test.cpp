// Allocation-count gate for util::Json (see alloc_counter.hpp for how
// allocations are counted).
//
// The rule pinned here: parsing costs at most one allocation per
// non-empty container plus one per string longer than the small-string
// buffer; building and dumping a submit frame stay at the counts below.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <string>
#include <utility>

#include "alloc_counter.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace elpc::util {
namespace {

/// Heap allocations `f` makes.
template <typename F>
std::size_t allocations(F&& f) {
  return alloc_gate::heap_use(std::forward<F>(f)).allocations;
}

/// One allocation per non-empty container and per string (key or
/// value) past the small-string buffer; `widest` collects the largest
/// container size.
std::size_t container_budget(const Json& doc, std::size_t& widest) {
  const std::size_t sso = std::string().capacity();
  std::size_t budget = 0;
  if (doc.is_string()) {
    budget += doc.as_string().size() > sso ? 1 : 0;
  } else if (doc.is_array()) {
    const JsonArray& elements = doc.as_array();
    budget += elements.empty() ? 0 : 1;
    widest = std::max(widest, elements.size());
    for (const Json& element : elements) {
      budget += container_budget(element, widest);
    }
  } else if (doc.is_object()) {
    const JsonObject& members = doc.as_object();
    budget += members.empty() ? 0 : 1;
    widest = std::max(widest, members.size());
    for (const auto& [key, value] : members) {
      budget += (key.size() > sso ? 1 : 0) + container_budget(value, widest);
    }
  }
  return budget;
}

/// What the rule allows for parsing `doc`: the container budget, plus
/// the parser's two scratch stacks growing (by doubling) to hold the
/// widest container when it outgrows what a thread keeps between
/// parses.
std::size_t parse_budget(const Json& doc) {
  std::size_t widest = 0;
  const std::size_t budget = container_budget(doc, widest);
  return budget + 2 * static_cast<std::size_t>(std::bit_width(2 * widest));
}

Json example_jobs() {
  return Json::parse(
      read_text_file(std::string(ELPC_EXAMPLES_DIR) + "/batch_jobs.json"));
}

/// The frame DaemonClient::submit_all sends for the first example job.
Json submit_frame(const service::SolveJob& job) {
  Json frame = JsonObject{};
  frame.set("verb", "submit");
  frame.set("job", service::to_json(job));
  frame.set("priority", 0);
  frame.set("trace_id", "c12345-678");
  return frame;
}

/// Parses `text` once to warm the parser's scratch, then counts a parse.
std::size_t parse_allocations(const std::string& text, Json& out) {
  out = Json::parse(text);
  out = Json();
  return allocations([&] { out = Json::parse(text); });
}

/// A canonical submit frame: 37 allocations when objects were a
/// node-based std::map, 11 now.
TEST(JsonAllocations, SubmitFrameParse) {
  const service::SolveJob job =
      service::job_from_json(example_jobs().at("jobs").as_array().front());
  const std::string text = submit_frame(job).dump();
  Json parsed;
  const std::size_t count = parse_allocations(text, parsed);
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_EQ(parsed.dump(), text);
  EXPECT_LE(count, parse_budget(parsed));
  EXPECT_LE(count, 14u);
}

/// Building that frame from a SolveJob: 39 allocations with std::map,
/// 17 now.  Dumping it: 6 (the output string's growth).
TEST(JsonAllocations, SubmitFrameBuildAndDump) {
  const service::SolveJob job =
      service::job_from_json(example_jobs().at("jobs").as_array().front());
  Json frame;
  const std::size_t built = allocations([&] { frame = submit_frame(job); });
  std::string text;
  const std::size_t dumped = allocations([&] { text = frame.dump(); });
  RecordProperty("build_allocations", static_cast<int>(built));
  RecordProperty("dump_allocations", static_cast<int>(dumped));
  EXPECT_LE(built, 17u);
  EXPECT_LE(dumped, 6u);
}

TEST(JsonAllocations, ExampleJobFileParse) {
  const std::string text =
      read_text_file(std::string(ELPC_EXAMPLES_DIR) + "/batch_jobs.json");
  Json parsed;
  const std::size_t count = parse_allocations(text, parsed);
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_LE(count, parse_budget(parsed));
}

/// A 2000-job file of the example jobs under renamed ids: 31.6
/// allocations per job with std::map, 9.65 now.
TEST(JsonAllocations, BulkJobFileParsePerJob) {
  const Json example = example_jobs();
  JsonArray jobs;
  for (std::size_t copy = 0; jobs.size() < 2000; ++copy) {
    for (const Json& job : example.at("jobs").as_array()) {
      Json renamed = job;
      renamed.set("id", job.at("id").as_string() + "-r" + std::to_string(copy));
      jobs.push_back(std::move(renamed));
    }
  }
  Json doc = example;
  doc.set("jobs", Json(std::move(jobs)));
  const std::string text = doc.dump(2);
  Json parsed;
  const std::size_t count = parse_allocations(text, parsed);
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_LE(count, parse_budget(parsed));
  EXPECT_LE(static_cast<double>(count) / 2000.0, 11.0);
}

}  // namespace
}  // namespace elpc::util
