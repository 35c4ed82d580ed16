#include "experiments/cli_app.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "pipeline/generator.hpp"
#include "service/serialize.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace elpc::experiments {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  CliRun result;
  result.code = run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// Temp file that cleans up after itself.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Cli, NoArgumentsPrintsUsage) {
  const CliRun r = run({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, AlgorithmsListsRegistry) {
  const CliRun r = run({"algorithms"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("ELPC"), std::string::npos);
  EXPECT_NE(r.out.find("Streamline"), std::string::npos);
  EXPECT_NE(r.out.find("Greedy"), std::string::npos);
}

TEST(Cli, GenerateToStdout) {
  const CliRun r = run({"generate", "--case", "1"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(r.out.find("\"network\""), std::string::npos);
}

TEST(Cli, GenerateCaseOutOfRangeFails) {
  const CliRun r = run({"generate", "--case", "21"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--case"), std::string::npos);
}

TEST(Cli, GenerateMapSimulateRoundTrip) {
  TempFile file("cli_scenario.json");
  const CliRun gen = run({"generate", "--modules", "5", "--nodes", "8",
                          "--links", "44", "--seed", "3", "--out",
                          file.path()});
  ASSERT_EQ(gen.code, 0) << gen.err;

  const CliRun mapped =
      run({"map", "--in", file.path(), "--algorithm", "ELPC"});
  ASSERT_EQ(mapped.code, 0) << mapped.err;
  EXPECT_NE(mapped.out.find("delay"), std::string::npos);
  EXPECT_NE(mapped.out.find("mapping"), std::string::npos);

  const CliRun streamed = run({"simulate", "--in", file.path(), "--frames",
                               "50"});
  ASSERT_EQ(streamed.code, 0) << streamed.err;
  EXPECT_NE(streamed.out.find("simulated rate"), std::string::npos);
}

TEST(Cli, MapDefaultsToSmallCaseAndPaperPath) {
  const CliRun r = run({"map", "--objective", "framerate"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("frames/s"), std::string::npos);
  EXPECT_NE(r.out.find("path"), std::string::npos);
}

TEST(Cli, MapRejectsBadObjective) {
  const CliRun r = run({"map", "--objective", "banana"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("objective"), std::string::npos);
}

TEST(Cli, MapRejectsUnknownAlgorithm) {
  const CliRun r = run({"map", "--algorithm", "nope"});
  EXPECT_EQ(r.code, 1);
}

TEST(Cli, MapMissingFileReportsFailure) {
  const CliRun r = run({"map", "--in", "/nonexistent/x.json"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("failure"), std::string::npos);
}

TEST(Cli, SimulateDefaultsRun) {
  const CliRun r = run({"simulate", "--frames", "20"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("events executed"), std::string::npos);
}

std::string write_batch_jobs(const std::string& path) {
  util::Rng rng(31);
  service::BatchSpec spec;
  spec.networks.emplace_back(
      "net", graph::random_connected_network(rng, 7, 30, {}));
  for (std::size_t j = 0; j < 4; ++j) {
    service::SolveJob job;
    job.id = "job" + std::to_string(j);
    job.network = "net";
    job.pipeline = pipeline::random_pipeline(rng, 4, {});
    job.source = 0;
    job.destination = 6;
    job.objective = j % 2 == 0 ? service::Objective::kMinDelay
                               : service::Objective::kMaxFrameRate;
    job.cost = service::default_cost(job.objective);
    spec.jobs.push_back(std::move(job));
  }
  const std::string doc = service::to_json(spec).dump(2);
  util::write_text_file(path, doc);
  return doc;
}

TEST(Cli, BatchRunsJobFileAndEmitsCanonicalResults) {
  TempFile jobs("batch_jobs.json");
  write_batch_jobs(jobs.path());

  const CliRun serial =
      run({"batch", "--jobs", jobs.path(), "--threads", "1"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  const util::Json doc = util::Json::parse(serial.out);
  ASSERT_EQ(doc.at("results").as_array().size(), 4u);
  for (const util::Json& entry : doc.at("results").as_array()) {
    EXPECT_TRUE(entry.at("feasible").as_bool());
    EXPECT_FALSE(entry.contains("mean_runtime_ms"));  // canonical form
  }

  // Same file, more threads: byte-identical document.
  const CliRun sharded =
      run({"batch", "--jobs", jobs.path(), "--threads", "4"});
  ASSERT_EQ(sharded.code, 0) << sharded.err;
  EXPECT_EQ(serial.out, sharded.out);
}

TEST(Cli, BatchTimingFlagAddsMetadataAndOutWritesFile) {
  TempFile jobs("batch_jobs_timing.json");
  write_batch_jobs(jobs.path());
  TempFile results("batch_results.json");

  const CliRun r = run({"batch", "--jobs", jobs.path(), "--timing", "--out",
                        results.path()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote"), std::string::npos);
  const util::Json doc =
      util::Json::parse(util::read_text_file(results.path()));
  for (const util::Json& entry : doc.at("results").as_array()) {
    EXPECT_TRUE(entry.contains("mean_runtime_ms"));
    EXPECT_TRUE(entry.contains("shard"));
  }
}

TEST(Cli, FuzzIncrementalParityByteForByte) {
  // The CI incremental-parity job's core check, in-process and small:
  // same seed, with and without --incremental, byte-identical documents
  // — and the incremental run must actually have reused checkpoints.
  const CliRun plain = run({"fuzz", "--seed", "5", "--rounds", "6"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  const CliRun incremental = run({"fuzz", "--seed", "5", "--rounds", "6",
                                  "--incremental", "--min-hits", "1"});
  ASSERT_EQ(incremental.code, 0) << incremental.err;
  EXPECT_EQ(plain.out, incremental.out);
  const util::Json doc = util::Json::parse(plain.out);
  EXPECT_EQ(doc.at("resolves").as_array().size(), 6u);
}

TEST(Cli, FuzzMinHitsFailsWhenReuseCannotEngage) {
  // Without --incremental there are no hits, so --min-hits must fail
  // loudly instead of green-lighting a parity run that proved nothing.
  const CliRun r =
      run({"fuzz", "--seed", "5", "--rounds", "2", "--min-hits", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--min-hits"), std::string::npos);
}

TEST(Cli, BatchRequiresJobsFile) {
  const CliRun r = run({"batch"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--jobs"), std::string::npos);
}

TEST(Cli, BatchMalformedJobFileGetsOneLineDiagnostic) {
  TempFile jobs("batch_malformed.json");
  util::write_text_file(jobs.path(), "{\"networks\": [,,,");
  const CliRun r = run({"batch", "--jobs", jobs.path()});
  EXPECT_EQ(r.code, 1);
  // One clear diagnostic naming the file — not a raw parser exception.
  EXPECT_NE(r.err.find("cannot load job file"), std::string::npos);
  EXPECT_NE(r.err.find(jobs.path()), std::string::npos);
}

TEST(Cli, BatchJobFileWithWrongShapeGetsOneLineDiagnostic) {
  TempFile jobs("batch_wrong_shape.json");
  util::write_text_file(jobs.path(), "{\"networks\": 7}");  // valid JSON,
                                                            // wrong schema
  const CliRun r = run({"batch", "--jobs", jobs.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot load job file"), std::string::npos);
}

TEST(Cli, BatchUnknownSessionIdGetsOneLineDiagnostic) {
  TempFile jobs("batch_unknown_net.json");
  // A well-formed spec whose job names a session the file never
  // registers.
  const std::string doc = write_batch_jobs(jobs.path());
  util::Json spec = util::Json::parse(doc);
  util::Json patched = util::JsonObject{};
  patched.set("networks", spec.at("networks"));
  util::JsonArray jobs_array = spec.at("jobs").as_array();
  jobs_array[0].set("network", "ghost");
  patched.set("jobs", util::Json(std::move(jobs_array)));
  util::write_text_file(jobs.path(), patched.dump(2));

  const CliRun r = run({"batch", "--jobs", jobs.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("elpc batch"), std::string::npos);
  EXPECT_NE(r.err.find("unregistered network 'ghost'"), std::string::npos);
}

TEST(Cli, ServeRequiresSocket) {
  const CliRun r = run({"serve"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--socket"), std::string::npos);
}

TEST(Cli, ClientRequiresVerbAndSocket) {
  EXPECT_EQ(run({"client"}).code, 1);
  const CliRun r = run({"client", "stats"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--socket"), std::string::npos);
}

/// Starts `elpc serve --socket <socket>` on its own thread and returns
/// it once the daemon answers `client stats`.  The test shuts the daemon
/// down with `client shutdown` and joins the thread; `served` holds the
/// serve run's outcome after that.
std::thread serve_until_up(const std::string& socket, CliRun& served) {
  std::thread server([&served, socket]() {
    served = run({"serve", "--socket", socket, "--threads", "2"});
  });
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (run({"client", "stats", "--socket", socket}).code == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return server;
}

TEST(Cli, ServeAndClientLoadMatchBatchByteForByte) {
  TempFile jobs("daemon_jobs.json");
  write_batch_jobs(jobs.path());
  const std::string socket =
      ::testing::TempDir() + "/elpc_cli_daemon.sock";

  // The daemon on its own thread; the client drives it to shutdown, so
  // the thread joins cleanly.
  CliRun served;
  std::thread server = serve_until_up(socket, served);
  const CliRun loaded = run({"client", "load", "--socket", socket, "--jobs",
                             jobs.path(), "--wait"});
  ASSERT_EQ(loaded.code, 0) << loaded.err;

  const CliRun stats = run({"client", "stats", "--socket", socket});
  ASSERT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("\"done\": 4"), std::string::npos);

  const CliRun down = run({"client", "shutdown", "--socket", socket});
  EXPECT_EQ(down.code, 0) << down.err;
  server.join();
  EXPECT_EQ(served.code, 0) << served.err;
  EXPECT_NE(served.out.find("listening"), std::string::npos);

  // The daemon path and the in-process batch path emit the same
  // canonical results document, byte for byte.
  const CliRun batch = run({"batch", "--jobs", jobs.path()});
  ASSERT_EQ(batch.code, 0) << batch.err;
  EXPECT_EQ(loaded.out, batch.out);
}

/// examples/batch_jobs.json with its jobs repeated `copies` times under
/// renamed ids ("<id>-r<copy>"): a bulk file that fills the client's
/// pipelined window several times over.
void write_repeated_example_jobs(const std::string& path,
                                 std::size_t copies) {
  const util::Json example = util::Json::parse(
      util::read_text_file(std::string(ELPC_EXAMPLES_DIR) +
                           "/batch_jobs.json"));
  util::JsonArray jobs;
  for (std::size_t copy = 0; copy < copies; ++copy) {
    for (const util::Json& job : example.at("jobs").as_array()) {
      util::Json renamed = job;
      renamed.set("id",
                  job.at("id").as_string() + "-r" + std::to_string(copy));
      jobs.push_back(std::move(renamed));
    }
  }
  util::Json doc = example;
  doc.set("jobs", util::Json(std::move(jobs)));
  util::write_text_file(path, doc.dump(2));
}

/// A 310-job load wraps the client's pipelined submit and wait windows;
/// it must still print what `elpc batch` prints, byte for byte, both
/// when it registers the networks and when it reuses them.
TEST(Cli, PipelinedClientLoadOfABulkFileMatchesBatch) {
  TempFile jobs("daemon_bulk_jobs.json");
  write_repeated_example_jobs(jobs.path(), 31);
  const std::string socket = ::testing::TempDir() + "/elpc_cli_bulk.sock";

  CliRun served;
  std::thread server = serve_until_up(socket, served);
  const CliRun first = run({"client", "load", "--socket", socket, "--jobs",
                            jobs.path(), "--wait"});
  const CliRun again = run({"client", "load", "--socket", socket, "--jobs",
                            jobs.path(), "--wait", "--no-register"});
  const CliRun down = run({"client", "shutdown", "--socket", socket});
  EXPECT_EQ(down.code, 0) << down.err;
  server.join();
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(again.code, 0) << again.err;

  const CliRun batch = run({"batch", "--jobs", jobs.path()});
  ASSERT_EQ(batch.code, 0) << batch.err;
  EXPECT_EQ(util::Json::parse(batch.out).at("results").as_array().size(),
            310u);
  EXPECT_EQ(first.out, batch.out);
  EXPECT_EQ(again.out, batch.out);
}

/// Loading with registration twice against one daemon re-registers the
/// same networks: a no-op, so both loads print what `elpc batch` prints.
/// The same id with a different network is refused with the conflict
/// code's text, and the registered network is left as it was.
TEST(Cli, ClientLoadRegisteringTwiceMatchesBatchBothTimes) {
  TempFile jobs("daemon_reregister_jobs.json");
  write_batch_jobs(jobs.path());
  TempFile other("daemon_conflict_jobs.json");
  util::Json changed = util::Json::parse(util::read_text_file(jobs.path()));
  util::Rng rng(32);
  util::Json entry = util::JsonObject{};
  entry.set("id", "net");
  entry.set("network",
            graph::to_json(graph::random_connected_network(rng, 7, 30, {})));
  changed.set("networks", util::Json(util::JsonArray{std::move(entry)}));
  util::write_text_file(other.path(), changed.dump(2));
  const std::string socket = ::testing::TempDir() + "/elpc_cli_rereg.sock";

  CliRun served;
  std::thread server = serve_until_up(socket, served);
  const CliRun first = run({"client", "load", "--socket", socket, "--jobs",
                            jobs.path(), "--wait"});
  const CliRun again = run({"client", "load", "--socket", socket, "--jobs",
                            jobs.path(), "--wait"});
  const CliRun conflict = run({"client", "load", "--socket", socket,
                               "--jobs", other.path(), "--wait"});
  const CliRun after = run({"client", "load", "--socket", socket, "--jobs",
                            jobs.path(), "--wait"});
  const CliRun down = run({"client", "shutdown", "--socket", socket});
  EXPECT_EQ(down.code, 0) << down.err;
  server.join();

  const CliRun batch = run({"batch", "--jobs", jobs.path()});
  ASSERT_EQ(batch.code, 0) << batch.err;
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(again.code, 0) << again.err;
  EXPECT_EQ(first.out, batch.out);
  EXPECT_EQ(again.out, batch.out);
  EXPECT_NE(conflict.code, 0);
  EXPECT_NE(conflict.err.find("already registered with different content"),
            std::string::npos)
      << conflict.err;
  ASSERT_EQ(after.code, 0) << after.err;
  EXPECT_EQ(after.out, batch.out);
}

TEST(FileIo, RoundTrip) {
  TempFile file("file_io.txt");
  util::write_text_file(file.path(), "hello\nworld");
  EXPECT_EQ(util::read_text_file(file.path()), "hello\nworld");
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW((void)util::read_text_file("/nonexistent/nope"),
               std::runtime_error);
  EXPECT_THROW(util::write_text_file("/nonexistent/dir/nope", "x"),
               std::runtime_error);
}

}  // namespace
}  // namespace elpc::experiments
