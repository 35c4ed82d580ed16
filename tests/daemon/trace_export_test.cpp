#include "daemon/trace_export.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/socket_server.hpp"
#include "daemon/trace.hpp"
#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
#include "service/serialize.hpp"
#include "util/json.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace elpc::daemon {
namespace {

graph::Network make_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, 10, 50,
                                         graph::AttributeRanges{});
}

service::SolveJob make_job(const std::string& id, std::uint64_t pseed,
                           service::Objective objective) {
  util::Rng rng(pseed);
  service::SolveJob job;
  job.id = id;
  job.network = "net";
  job.pipeline = pipeline::random_pipeline(rng, 4, {});
  job.source = 0;
  job.destination = 9;
  job.objective = objective;
  job.cost = service::default_cost(objective);
  return job;
}

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "/elpc_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

util::Json make_event(const char* ph, const char* name, double ts,
                      std::int64_t tid) {
  util::Json event{util::JsonObject{}};
  event.set("ph", std::string(ph));
  event.set("name", std::string(name));
  event.set("ts", ts);
  event.set("pid", 1);
  event.set("tid", tid);
  if (std::string(ph) == "X") {
    event.set("dur", 1.0);
  }
  return event;
}

util::Json make_doc(util::JsonArray events) {
  util::Json doc{util::JsonObject{}};
  doc.set("traceEvents", util::Json(std::move(events)));
  return doc;
}

util::ProfileEvent make_profile_event(unsigned tid, std::uint64_t seq,
                                      std::uint64_t ts_ns, bool begin,
                                      const char* name) {
  util::ProfileEvent event;
  event.tid = tid;
  event.seq = seq;
  event.ts_ns = ts_ns;
  event.begin = begin;
  event.name = name;
  event.category = "test";
  return event;
}

// ---------------------------------------------------------------------------
// Validator unit behaviour.

TEST(TraceExport, ValidatorAcceptsAWellFormedDocument) {
  util::JsonArray events;
  events.push_back(make_event("B", "solve", 10.0, 1));
  events.push_back(make_event("B", "arena", 11.0, 1));
  events.push_back(make_event("E", "arena", 12.0, 1));
  events.push_back(make_event("X", "span", 12.0, 1000001));
  events.push_back(make_event("E", "solve", 13.0, 1));
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(make_doc(std::move(events)), &error))
      << error;
}

TEST(TraceExport, ValidatorRejectsNonObjectAndMissingArray) {
  EXPECT_FALSE(validate_chrome_trace(util::Json(1.0)));
  std::string error;
  EXPECT_FALSE(
      validate_chrome_trace(util::Json(util::JsonObject{}), &error));
  EXPECT_NE(error.find("traceEvents"), std::string::npos);
}

TEST(TraceExport, ValidatorRejectsBackwardsTimestampsPerTid) {
  util::JsonArray events;
  events.push_back(make_event("B", "solve", 20.0, 1));
  events.push_back(make_event("E", "solve", 10.0, 1));  // goes back in time
  std::string error;
  EXPECT_FALSE(validate_chrome_trace(make_doc(std::move(events)), &error));
  EXPECT_NE(error.find("backwards"), std::string::npos);

  // Distinct tids keep independent clocks: an earlier ts on ANOTHER row
  // is fine.
  util::JsonArray two_rows;
  two_rows.push_back(make_event("B", "solve", 20.0, 1));
  two_rows.push_back(make_event("B", "solve", 5.0, 2));
  two_rows.push_back(make_event("E", "solve", 6.0, 2));
  two_rows.push_back(make_event("E", "solve", 21.0, 1));
  EXPECT_TRUE(validate_chrome_trace(make_doc(std::move(two_rows)), &error))
      << error;
}

TEST(TraceExport, ValidatorRejectsUnbalancedOrMismatchedPairs) {
  util::JsonArray orphan_end;
  orphan_end.push_back(make_event("E", "solve", 10.0, 1));
  std::string error;
  EXPECT_FALSE(validate_chrome_trace(make_doc(std::move(orphan_end)), &error));
  EXPECT_NE(error.find("without open B"), std::string::npos);

  util::JsonArray mismatch;
  mismatch.push_back(make_event("B", "solve", 10.0, 1));
  mismatch.push_back(make_event("E", "arena", 11.0, 1));
  EXPECT_FALSE(validate_chrome_trace(make_doc(std::move(mismatch)), &error));
  EXPECT_NE(error.find("closes"), std::string::npos);

  util::JsonArray unclosed;
  unclosed.push_back(make_event("B", "solve", 10.0, 1));
  EXPECT_FALSE(validate_chrome_trace(make_doc(std::move(unclosed)), &error));
  EXPECT_NE(error.find("unclosed"), std::string::npos);
}

TEST(TraceExport, ValidatorRejectsBadCompleteSlicesAndUnknownPhases) {
  util::JsonArray no_dur;
  no_dur.push_back(make_event("B", "solve", 10.0, 1));
  no_dur.push_back(make_event("E", "solve", 11.0, 1));
  util::Json bad_x = make_event("X", "span", 12.0, 2);
  bad_x.set("dur", -1.0);
  no_dur.push_back(std::move(bad_x));
  std::string error;
  EXPECT_FALSE(validate_chrome_trace(make_doc(std::move(no_dur)), &error));
  EXPECT_NE(error.find("non-negative dur"), std::string::npos);

  util::JsonArray unknown;
  unknown.push_back(make_event("M", "meta", 0.0, 1));
  EXPECT_FALSE(validate_chrome_trace(make_doc(std::move(unknown)), &error));
  EXPECT_NE(error.find("unsupported ph"), std::string::npos);
}

TEST(TraceExport, ValidatorRejectsMissingOrMistypedFields) {
  util::Json event{util::JsonObject{}};
  event.set("ph", std::string("B"));
  event.set("name", std::string("solve"));
  event.set("ts", std::string("not-a-number"));
  event.set("pid", 1);
  event.set("tid", 1);
  util::JsonArray events;
  events.push_back(std::move(event));
  std::string error;
  EXPECT_FALSE(validate_chrome_trace(make_doc(std::move(events)), &error));
  EXPECT_NE(error.find("missing ts"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporter behaviour on hand-built snapshots.

TEST(TraceExport, ExportsOnlyMatchedPairsAndAccountsTheRest) {
  util::ProfilerSnapshot snapshot;
  // tid 1: a matched pair plus an end whose begin was evicted.
  snapshot.events.push_back(make_profile_event(1, 1, 1000, false, "evicted"));
  snapshot.events.push_back(make_profile_event(1, 2, 2000, true, "solve"));
  snapshot.events.push_back(make_profile_event(1, 3, 3000, false, "solve"));
  // tid 2: a begin still open at drain time.
  snapshot.events.push_back(make_profile_event(2, 1, 1500, true, "open"));
  snapshot.recorded = 6;
  snapshot.dropped = 2;
  snapshot.drained = 4;
  snapshot.threads = 2;

  const util::Json doc = chrome_trace_json(snapshot, {});
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(doc, &error)) << error;
  const util::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);  // just the matched solve pair
  EXPECT_EQ(events[0].at("ph").as_string(), "B");
  EXPECT_EQ(events[0].at("name").as_string(), "solve");
  EXPECT_EQ(events[1].at("ph").as_string(), "E");

  const util::Json& accounting = doc.at("elpc");
  EXPECT_EQ(accounting.at("recorded").as_int(), 6);
  EXPECT_EQ(accounting.at("dropped").as_int(), 2);
  EXPECT_EQ(accounting.at("drained").as_int(), 4);
  EXPECT_EQ(accounting.at("exported_events").as_int(), 2);
  EXPECT_EQ(accounting.at("unmatched_events").as_int(), 2);
  EXPECT_EQ(accounting.at("spans").as_int(), 0);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
}

TEST(TraceExport, EndArgIsExportedBesideTheBeginArg) {
  util::ProfilerSnapshot snapshot;
  util::ProfileEvent begin = make_profile_event(1, 1, 1000, true, "solve");
  begin.arg = 7;
  util::ProfileEvent end = make_profile_event(1, 2, 2000, false, "solve");
  end.arg = 42;
  snapshot.events = {begin, end,
                     make_profile_event(1, 3, 3000, true, "arena"),
                     make_profile_event(1, 4, 4000, false, "arena")};

  const util::Json doc = chrome_trace_json(snapshot, {});
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(doc, &error)) << error;
  const util::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].at("args").at("arg").as_int(), 7);
  EXPECT_EQ(events[1].at("args").at("end_arg").as_int(), 42);
  EXPECT_EQ(events[3].find("args"), nullptr);  // no end arg, no args
}

TEST(TraceExport, EqualTimestampsKeepRecordingOrderSoNestingSurvives) {
  // Two nested scopes whose four boundaries share one timestamp: a sort
  // that broke recording order would emit E "outer" before E "inner" and
  // fail validation.
  util::ProfilerSnapshot snapshot;
  snapshot.events.push_back(make_profile_event(1, 1, 5000, true, "outer"));
  snapshot.events.push_back(make_profile_event(1, 2, 5000, true, "inner"));
  snapshot.events.push_back(make_profile_event(1, 3, 5000, false, "inner"));
  snapshot.events.push_back(make_profile_event(1, 4, 5000, false, "outer"));
  snapshot.recorded = snapshot.drained = 4;
  snapshot.threads = 1;
  const util::Json doc = chrome_trace_json(snapshot, {});
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(doc, &error)) << error;
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 4u);
}

TEST(TraceExport, SpansBecomeCompleteSlicesOnPerTicketRows) {
  TraceSpan span;
  span.ticket = 42;
  span.job_id = "job7";
  span.trace_id = "req-1";
  span.state = "done";
  span.kernel = "scalar";
  span.e2e_ms = 2.0;
  span.end_mono_ns = 5'000'000;  // ends at 5000 us, so starts at 3000 us
  const std::vector<TraceSpan> spans{span};

  const util::Json doc = chrome_trace_json(util::ProfilerSnapshot{}, spans);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(doc, &error)) << error;
  const util::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  const util::Json& slice = events[0];
  EXPECT_EQ(slice.at("ph").as_string(), "X");
  EXPECT_EQ(slice.at("name").as_string(), "job7");
  EXPECT_EQ(slice.at("tid").as_int(), 1000042);
  EXPECT_DOUBLE_EQ(slice.at("dur").as_number(), 2000.0);
  EXPECT_DOUBLE_EQ(slice.at("ts").as_number(), 3000.0);
  EXPECT_EQ(slice.at("args").at("trace_id").as_string(), "req-1");
  EXPECT_EQ(slice.at("args").at("ticket").as_int(), 42);
  EXPECT_EQ(doc.at("elpc").at("spans").as_int(), 1);

  // A span whose duration exceeds its end anchor clamps to ts 0 rather
  // than going negative.
  TraceSpan early = span;
  early.end_mono_ns = 1'000'000;  // 1000 us end, 2000 us duration
  const std::vector<TraceSpan> clamped{early};
  const util::Json doc2 = chrome_trace_json(util::ProfilerSnapshot{}, clamped);
  EXPECT_DOUBLE_EQ(
      doc2.at("traceEvents").as_array()[0].at("ts").as_number(), 0.0);
}

// ---------------------------------------------------------------------------
// End to end: a live daemon with --profile on serves a trace document
// that validates, conserves spans, propagates trace ids, and answers
// byte-identically to an unprofiled direct solve.

class TraceDaemonTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::Profiler::set_enabled(false);
    util::Profiler::reset();
  }
};

TEST_F(TraceDaemonTest, TraceVerbServesAValidConservedTimeline) {
  SocketServerOptions options;
  options.threads = 2;
  options.start_paused = true;  // measurable queue wait => slowlog entries
  options.slow_ms = 1;
  options.profile = true;
  SocketServer server(socket_path("trace"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));

  std::vector<service::SolveJob> jobs;
  jobs.push_back(make_job("delay0", 80, service::Objective::kMinDelay));
  jobs.push_back(make_job("fps0", 81, service::Objective::kMaxFrameRate));
  jobs[0].trace_id = "req-delay0";  // explicit job-level id wins
  const Ticket t0 = client.submit(jobs[0]);
  const Ticket t1 = client.submit(jobs[1]);
  const Ticket doomed =
      client.submit(make_job("doomed", 82, service::Objective::kMinDelay));
  EXPECT_TRUE(client.cancel(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  client.resume();

  // Terminal statuses echo the job's trace id: the explicit one for t0,
  // the client's auto-generated "c<pid>-<n>" for t1.
  const util::Json done0 = client.wait(t0);
  EXPECT_EQ(done0.at("state").as_string(), "done");
  EXPECT_EQ(done0.at("trace_id").as_string(), "req-delay0");
  const util::Json done1 = client.wait(t1);
  EXPECT_EQ(done1.at("state").as_string(), "done");
  EXPECT_EQ(done1.at("trace_id").as_string().substr(0, 1), "c");

  // --- the trace verb: a validating Chrome-trace doc with sane
  // accounting and one span per terminal ticket.
  const util::Json trace = client.trace();
  EXPECT_TRUE(trace.at("profiling").as_bool());
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(trace.at("trace"), &error)) << error;
  EXPECT_GT(trace.at("recorded").as_int(), 0);
  EXPECT_GT(trace.at("events").as_int(), 0);
  // The response's own serialization records events after the drain, so
  // the accounting is conservative, never over-counting.
  EXPECT_LE(trace.at("drained").as_int() + trace.at("dropped").as_int(),
            trace.at("recorded").as_int());
  EXPECT_EQ(trace.at("spans_total").as_int(), 3);  // done, done, cancelled
  EXPECT_EQ(trace.at("spans").as_int(), 3);

  // The solve phases carry the jobs' trace ids into the timeline.
  bool saw_traced_solve = false;
  for (const util::Json& event : trace.at("trace").at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "B" ||
        event.at("name").as_string() != "solve") {
      continue;
    }
    const util::Json* args = event.find("args");
    if (args != nullptr && args->contains("trace_id") &&
        args->at("trace_id").as_string() == "req-delay0") {
      saw_traced_solve = true;
    }
  }
  EXPECT_TRUE(saw_traced_solve);

  // --- a second drain starts empty (events are consumed exactly once)
  // but spans are retained, not consumed.
  const util::Json again = client.trace();
  EXPECT_GE(again.at("drained").as_int(), trace.at("drained").as_int());
  EXPECT_EQ(again.at("spans").as_int(), 3);
  EXPECT_EQ(again.at("spans_total").as_int(), 3);

  // --- server-side slowlog filters; entries carry trace ids.
  const util::Json all = client.slowlog();
  EXPECT_GE(all.at("entries").as_array().size(), 2u);
  bool span_has_trace = false;
  for (const util::Json& entry : all.at("entries").as_array()) {
    if (entry.contains("trace_id") &&
        entry.at("trace_id").as_string() == "req-delay0") {
      span_has_trace = true;
    }
  }
  EXPECT_TRUE(span_has_trace);
  DaemonClient::SlowlogFilter done_only;
  done_only.state = "done";
  const util::Json filtered = client.slowlog(done_only);
  for (const util::Json& entry : filtered.at("entries").as_array()) {
    EXPECT_EQ(entry.at("state").as_string(), "done");
  }
  DaemonClient::SlowlogFilter nothing;
  nothing.min_ms = 1e9;
  const util::Json empty = client.slowlog(nothing);
  EXPECT_TRUE(empty.at("entries").as_array().empty());
  // `total` stays the unfiltered cumulative count.
  EXPECT_EQ(empty.at("total").as_int(), all.at("total").as_int());

  // --- profiling must not perturb answers: canonical result JSON is
  // byte-identical to a direct solve with the profiler off.
  util::Profiler::set_enabled(false);
  service::BatchEngine direct;
  direct.register_network("net", make_network(3));
  const std::vector<service::SolveResult> expected = direct.solve(jobs);
  EXPECT_EQ(done0.at("result").dump(),
            service::result_entry_to_json(expected[0]).dump());
  EXPECT_EQ(done1.at("result").dump(),
            service::result_entry_to_json(expected[1]).dump());
  // The canonical result block never carries the trace id (CI diffs
  // daemon results against batch results byte-for-byte).
  EXPECT_FALSE(done0.at("result").contains("trace_id"));

  client.shutdown_server();
  serve_thread.join();
}

}  // namespace
}  // namespace elpc::daemon
