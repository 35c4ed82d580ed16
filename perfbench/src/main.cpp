// perfbench_e2e — the repository's end-to-end serving benchmark.
//
//   perfbench_e2e --workload <small_rpc|bulk_load|large_solve|link_churn>
//                 --seed N --seconds S --trace 0|1 [--commit ID]
//   perfbench_e2e --self-test [--seed N]
//
// One run starts an in-process daemon (Unix socket plus loopback TCP),
// generates the workload's inputs from the seed, drives them closed-loop
// through the public client surfaces for S seconds, checks every answer
// against a direct solve, and prints each metric by name with its unit
// and sample count.  The last stdout line is the machine-readable
// result: {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics; --trace 1 is the separate traced run
// that reports the per-layer table instead.  perfbench/README.md has
// the definitions.

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "experiments/cli_app.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "serving.hpp"
#include "service/serialize.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

namespace s = elpc::service;
using elpc::util::Json;
using elpc::util::JsonObject;

enum class Kind { kSmallRpc, kBulkLoad, kLargeSolve, kLinkChurn };

/// A workload and its load-generator budget (threads and connections it
/// opens at once), which must fit in the CPUs available.
struct WorkloadDef {
  const char* name;
  Kind kind;
  std::size_t generator_threads;
  std::size_t connections;
};

constexpr WorkloadDef kWorkloads[] = {
    {"small_rpc", Kind::kSmallRpc, 2, 2},
    {"bulk_load", Kind::kBulkLoad, 1, 1},
    {"large_solve", Kind::kLargeSolve, 2, 2},
    {"link_churn", Kind::kLinkChurn, 1, 1},
};

/// The traced run's daemon probe opens two connections on two threads.
constexpr std::size_t kProbeThreads = 2;

/// Set-ups per untraced run.  Untimed warm-up set-ups come first (at
/// least one, more while they stay within kWarmupBudgetS): the first few
/// set-ups of a process run several times slower while threads and
/// pages are first touched.  Then at least kMinSetupReps timed set-ups,
/// and more while they stay within kSetupBudgetS, so cheap set-ups get a
/// steady median.  setup_s is the median of the timed ones.
constexpr std::size_t kMaxWarmupReps = 10;
constexpr double kWarmupBudgetS = 0.25;
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 51;
constexpr double kSetupBudgetS = 1.0;

constexpr const char* kRunDir = ".bench_run";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return args;
}

const WorkloadDef& workload_named(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return w;
    }
  }
  throw std::invalid_argument(
      "--workload must be small_rpc, bulk_load, large_solve or link_churn");
}

/// Why this binary must not measure anything ("" when it may).
std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset): not an optimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark itself is sanitizer-instrumented";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not Release or RelWithDebInfo";
  }
  if (!std::string(PERFBENCH_SANITIZE).empty()) {
    return "the library is built with -fsanitize=" +
           std::string(PERFBENCH_SANITIZE);
  }
  return "";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string socket_path(std::size_t n) {
  return std::string(kRunDir) + "/d" + std::to_string(::getpid()) + "-" +
         std::to_string(n) + ".sock";
}

/// Hands memory freed by earlier set-ups and input preparation back to
/// the kernel, so peak_rss_mb measures the daemon that is timed and not
/// which allocator arena happened to keep a previous set-up's pages.
void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// The last digit of `text`, changed: a wrong answer the gate must catch.
std::string perturbed(std::string text) {
  for (auto it = text.rbegin(); it != text.rend(); ++it) {
    if (*it >= '0' && *it <= '9') {
      *it = *it == '9' ? '0' : static_cast<char>(*it + 1);
      break;
    }
  }
  return text;
}

/// v1 wait answer carrying `entry` (the frame the client decodes).
std::string wait_answer(const std::string& entry) {
  Json frame = JsonObject{};
  frame.set("ok", true);
  frame.set("state", "done");
  frame.set("ticket", 1);
  frame.set("result", Json::parse(entry));
  return frame.dump();
}

/// Everything a run sends and checks against, generated from the seed.
struct Prepared {
  SmallInputs small;
  s::BatchSpec bulk;
  LargeInputs large;
  ChurnInputs churn;
  /// Direct-solve entries of the small and large pools.
  std::vector<std::string> small_expected;
  std::vector<std::string> large_expected;
  /// link_churn's subscription answers, as a direct solve gives them.
  std::vector<std::string> subscription_entries;
  std::string bulk_file;
  /// What `elpc batch` prints for bulk_file.
  std::string batch_doc;
  /// The workload's own wire frames (JSON parse rate).
  std::vector<std::string> frames;
};

std::string write_bulk_file(const s::BatchSpec& bulk) {
  const std::string path = std::string(kRunDir) + "/bulk-" +
                           std::to_string(::getpid()) + ".json";
  elpc::util::write_text_file(path, s::to_json(bulk).dump(2) + "\n");
  return path;
}

std::string batch_output(const std::string& job_file) {
  std::ostringstream out;
  std::ostringstream err;
  if (elpc::experiments::run_cli({"batch", "--jobs", job_file}, out, err) != 0) {
    throw std::runtime_error("elpc batch failed: " + err.str());
  }
  return out.str();
}

/// Generates what `w` needs; the traced run needs every family for its
/// layer replays.
Prepared prepare(const WorkloadDef& w, std::uint64_t seed, bool traced) {
  Prepared p;
  const bool small = traced || w.kind == Kind::kSmallRpc ||
                     w.kind == Kind::kBulkLoad;
  if (small) {
    p.small = make_small(seed);
    p.small_expected = direct_entries(p.small.networks, p.small.pool);
  }
  if (traced || w.kind == Kind::kBulkLoad) {
    p.bulk = make_bulk(seed, p.small);
  }
  if (w.kind == Kind::kBulkLoad) {
    p.bulk_file = write_bulk_file(p.bulk);
    p.batch_doc = batch_output(p.bulk_file);
  }
  if (traced || w.kind == Kind::kLargeSolve) {
    p.large = make_large(seed);
  }
  if (w.kind == Kind::kLargeSolve) {
    p.large_expected = direct_entries(p.large.networks, p.large.pool);
  }
  if (traced || w.kind == Kind::kLinkChurn) {
    p.churn = make_churn(seed);
  }
  if (w.kind == Kind::kLinkChurn) {
    NamedNetworks network;
    network.emplace_back(p.churn.network_id, p.churn.network);
    p.subscription_entries = direct_entries(network, p.churn.subscriptions);
  }
  if (!traced) {
    return p;
  }
  switch (w.kind) {
    case Kind::kSmallRpc:
    case Kind::kLargeSolve: {
      const bool is_small = w.kind == Kind::kSmallRpc;
      const auto& pool = is_small ? p.small.pool : p.large.pool;
      const auto& expected = is_small ? p.small_expected : p.large_expected;
      for (std::size_t k = 0; k < pool.size(); ++k) {
        Json frame = JsonObject{};
        frame.set("verb", "submit");
        frame.set("job", s::to_json(pool[k]));
        p.frames.push_back(frame.dump());
        p.frames.push_back(wait_answer(expected[k]));
      }
      break;
    }
    case Kind::kBulkLoad:
      p.frames.push_back(elpc::util::read_text_file(p.bulk_file));
      break;
    case Kind::kLinkChurn: {
      UpdateStream stream(p.churn.network, seed);
      Json answer = JsonObject{};
      answer.set("ok", true);
      elpc::util::JsonArray results;
      for (const std::string& entry : p.subscription_entries) {
        results.push_back(Json::parse(entry));
      }
      answer.set("results", Json(std::move(results)));
      for (int i = 0; i < 200; ++i) {
        Json frame = JsonObject{};
        frame.set("verb", "apply_link_updates");
        frame.set("network", p.churn.network_id);
        frame.set("updates", s::link_updates_to_json(stream.next()));
        p.frames.push_back(frame.dump());
        p.frames.push_back(answer.dump());
      }
      break;
    }
  }
  return p;
}

/// Daemon construction, network registration and (link_churn) the
/// subscription solves: exactly what setup_s times.
std::unique_ptr<Daemon> set_up(const WorkloadDef& w, const Prepared& p,
                               std::size_t n, Gate& gate) {
  auto daemon = std::make_unique<Daemon>(socket_path(n));
  switch (w.kind) {
    case Kind::kSmallRpc:
    case Kind::kBulkLoad:
      register_networks(*daemon, p.small.networks);
      break;
    case Kind::kLargeSolve:
      register_networks(*daemon, p.large.networks);
      break;
    case Kind::kLinkChurn: {
      register_network(*daemon, p.churn.network_id, p.churn.network);
      const std::vector<std::string> entries = subscribe(*daemon, p.churn);
      for (std::size_t j = 0; j < entries.size(); ++j) {
        gate.expect_equal("subscription", p.subscription_entries[j],
                          entries[j]);
      }
      break;
    }
  }
  return daemon;
}

/// One timed phase of the workload against `daemon`.
PhaseResult run_phase(const WorkloadDef& w, const Prepared& p, Daemon& daemon,
                      double seconds, std::uint64_t seed, bool traced,
                      UpdateStream* stream, ChurnLog& log, Gate& gate) {
  switch (w.kind) {
    case Kind::kSmallRpc:
      return drive_jobs(daemon, two_connections(), p.small.pool,
                        p.small_expected, seconds, seed, 0, traced, gate);
    case Kind::kLargeSolve:
      return drive_jobs(daemon, two_connections(), p.large.pool,
                        p.large_expected, seconds, seed, 0, traced, gate);
    case Kind::kBulkLoad:
      return drive_bulk(daemon, p.bulk_file, p.batch_doc, p.bulk.jobs.size(),
                        seconds, traced, gate);
    case Kind::kLinkChurn:
      return drive_churn(daemon, p.churn, *stream, seconds, traced, log, gate);
  }
  throw std::logic_error("unknown workload");
}

struct RunOutcome {
  std::vector<Metric> metrics;
  /// Printed in the human table only, not in the result line.
  std::vector<Metric> table_only;
  std::uint64_t attempted = 0;
  std::string kernel;
};

/// throughput_ops_s and latency_p50_ms are medians over this many equal
/// slices of the timed phase, so a burst of load from the host's other
/// tenants that covers a few slices moves neither.
constexpr std::size_t kWindows = 10;

/// Per slice of the phase: the ops done in it (each op's count spread
/// evenly over its duration, so a bulk load that straddles two slices
/// counts in both by its share) per second, and the median latency of
/// the ops whose answer arrived in it.
struct Windows {
  Samples ops_per_s;
  Samples p50_ms;
};

Windows by_window(const PhaseResult& phase) {
  const double width = phase.wall_s / static_cast<double>(kWindows);
  std::vector<double> ops(kWindows, 0.0);
  std::vector<Samples> latency(kWindows);
  for (const OpSpan& op : phase.spans) {
    const double length = op.end_s - op.start_s;
    for (std::size_t w = 0; w < kWindows && length > 0.0; ++w) {
      const double lo = static_cast<double>(w) * width;
      const double overlap =
          std::min(lo + width, op.end_s) - std::max(lo, op.start_s);
      if (overlap > 0.0) {
        ops[w] += op.ops * overlap / length;
      }
    }
    const auto w = static_cast<std::size_t>(op.end_s / width);
    latency[std::min(w, kWindows - 1)].add(length * 1e3);
  }
  Windows out;
  for (std::size_t w = 0; w < kWindows; ++w) {
    out.ops_per_s.add(ops[w] / width);
    if (latency[w].count() > 0) {
      out.p50_ms.add(latency[w].median());
    }
  }
  return out;
}

/// Throughput and median latency go in the result line, each as the
/// median over the phase's windows.  The tail percentiles go in the human
/// table only: on a shared host they follow the neighbours' load (p99 on
/// small_rpc ran 2x apart between runs of the same code), so no bound on
/// them could tell a regression from the host.
void add_phase_metrics(RunOutcome& out, const PhaseResult& phase) {
  const Samples& latency = phase.latency_ms;
  const Windows windows = by_window(phase);
  const auto whole = [](double value) {
    std::ostringstream note;
    note << "median of " << kWindows << " windows; whole run " << value;
    return note.str();
  };
  const auto tail = [&latency](double q) {
    return "beyond=" + std::to_string(latency.beyond(q)) + ", not gated";
  };
  out.metrics.push_back({"throughput_ops_s", windows.ops_per_s.median(),
                         "ops/s", phase.completed, whole(phase.ops_per_s())});
  out.metrics.push_back({"latency_p50_ms", windows.p50_ms.median(), "ms",
                         latency.count(), whole(latency.median())});
  out.table_only.push_back({"latency_p90_ms", latency.percentile(0.90), "ms",
                            latency.count(), tail(0.90)});
  out.table_only.push_back({"latency_p99_ms", latency.percentile(0.99), "ms",
                            latency.count(), tail(0.99)});
}

RunOutcome run_untraced(const WorkloadDef& w, const Args& args, Gate& gate) {
  const Prepared p = prepare(w, args.seed, false);
  std::unique_ptr<Daemon> daemon;
  std::size_t set_ups = 0;
  const auto timed_set_up = [&](Samples& into) {
    daemon.reset();  // the previous set-up's teardown is not timed
    release_free_memory();
    const auto t0 = Clock::now();
    daemon = set_up(w, p, set_ups++, gate);
    into.add(ms_between(t0, Clock::now()) / 1e3);
  };
  Samples warmup_s;
  do {
    timed_set_up(warmup_s);
  } while (warmup_s.count() < kMaxWarmupReps &&
           warmup_s.sum() < kWarmupBudgetS);
  Samples setup_s;
  do {
    timed_set_up(setup_s);
  } while (setup_s.count() < kMinSetupReps ||
           (setup_s.count() < kMaxSetupReps &&
            setup_s.sum() < kSetupBudgetS));

  std::optional<UpdateStream> stream;
  if (w.kind == Kind::kLinkChurn) {
    stream.emplace(p.churn.network, args.seed);
  }
  ChurnLog log;
  const PhaseResult phase =
      run_phase(w, p, *daemon, args.seconds, args.seed, false,
                stream ? &*stream : nullptr, log, gate);
  RunOutcome out;
  const double heap =
      heap_in_use_mb() -
      static_cast<double>(phase.record_bytes()) / (1024.0 * 1024.0);
  const double rss = peak_rss_mb();
  out.kernel = elpc::core::kernels::kind_name(daemon->server().engine().kernel());
  daemon.reset();
  if (w.kind == Kind::kLinkChurn) {
    verify_churn(p.churn, log, gate);
  }
  if (!p.bulk_file.empty()) {
    std::filesystem::remove(p.bulk_file);
  }
  out.attempted = phase.attempted;
  out.metrics.push_back({"setup_s", setup_s.median(), "s", setup_s.count(), ""});
  add_phase_metrics(out, phase);
  out.metrics.push_back({"heap_in_use_mb", heap, "MB", 1, ""});
  out.table_only.push_back({"peak_rss_mb", rss, "MB", 1, "not gated"});
  return out;
}

RunOutcome run_traced(const WorkloadDef& w, const Args& args, Gate& gate) {
  const Prepared p = prepare(w, args.seed, true);
  std::unique_ptr<Daemon> daemon = set_up(w, p, 0, gate);
  if (w.kind != Kind::kSmallRpc && w.kind != Kind::kBulkLoad) {
    register_networks(*daemon, p.small.networks);  // for the probes
  }
  std::optional<UpdateStream> stream;
  if (w.kind == Kind::kLinkChurn) {
    stream.emplace(p.churn.network, args.seed);
  }
  ChurnLog log;
  // Untraced and traced quarters alternate, so warm-up and drift fall on
  // both sides of bench.trace_overhead_pct.
  double wall_s[2] = {0.0, 0.0};
  std::uint64_t ops[2] = {0, 0};
  RunOutcome out;
  for (int quarter = 0; quarter < 4; ++quarter) {
    const bool traced = quarter % 2 == 1;
    const PhaseResult phase =
        run_phase(w, p, *daemon, args.seconds / 4, args.seed + quarter, traced,
                  stream ? &*stream : nullptr, log, gate);
    wall_s[traced] += phase.wall_s;
    ops[traced] += phase.completed;
    out.attempted += phase.attempted;
  }
  const ProbeGaps gaps = measure_daemon_layers(*daemon, p.small,
                                               p.small_expected, args.seed,
                                               gate, out.metrics);
  out.kernel = elpc::core::kernels::kind_name(daemon->server().engine().kernel());
  daemon.reset();
  if (w.kind == Kind::kLinkChurn) {
    verify_churn(p.churn, log, gate);
  }
  measure_layers(LayerInputs{p.small, p.bulk, p.large, p.churn, args.seed,
                             p.frames},
                 gaps, out.metrics);
  if (!p.bulk_file.empty()) {
    std::filesystem::remove(p.bulk_file);
  }
  const double per_op_untraced = wall_s[0] / static_cast<double>(ops[0]);
  const double per_op_traced = wall_s[1] / static_cast<double>(ops[1]);
  out.metrics.push_back({"bench.trace_overhead_pct",
                         (per_op_traced / per_op_untraced - 1.0) * 100.0, "%",
                         ops[0] + ops[1], ""});
  return out;
}

/// Proves the gate catches wrong answers on every path it guards: each
/// check runs once against the true expectation (must pass) and once
/// against a perturbed one (must fail).
int self_test(std::uint64_t seed) {
  int broken = 0;
  const auto report = [&broken](const std::string& check, bool ok) {
    std::cout << "perfbench self-test " << check << ": "
              << (ok ? "ok" : "FAILED") << "\n";
    broken += ok ? 0 : 1;
  };
  const SmallInputs small = make_small(seed);
  const std::vector<std::string> expected =
      direct_entries(small.networks, small.pool);
  std::vector<std::string> wrong;
  for (const std::string& entry : expected) {
    wrong.push_back(perturbed(entry));
  }
  const s::BatchSpec bulk = make_bulk(seed, small);
  const std::string bulk_file = write_bulk_file(bulk);
  const std::string batch_doc = batch_output(bulk_file);
  ChurnInputs churn = make_churn(seed);
  {
    Daemon daemon(socket_path(0));
    register_networks(daemon, small.networks);
    register_network(daemon, churn.network_id, churn.network);
    (void)subscribe(daemon, churn);
    const std::size_t per_conn = 16;
    for (const bool perturb : {false, true}) {
      Gate gate;
      (void)drive_jobs(daemon, two_connections(), small.pool,
                       perturb ? wrong : expected, 0.0, seed, per_conn, false,
                       gate);
      report(std::string("daemon answers vs direct solve, ") +
                 (perturb ? "perturbed" : "true"),
             gate.checked() == 2 * per_conn &&
                 gate.failures() == (perturb ? 2 * per_conn : 0));
    }
    for (const bool perturb : {false, true}) {
      Gate gate;
      (void)drive_bulk(daemon, bulk_file,
                       perturb ? perturbed(batch_doc) : batch_doc,
                       bulk.jobs.size(), 0.0, false, gate);
      report(std::string("client load vs batch output, ") +
                 (perturb ? "perturbed" : "true"),
             gate.checked() == 1 && gate.failures() == (perturb ? 1 : 0));
    }
    UpdateStream stream(churn.network, seed);
    ChurnLog log;
    Gate run_gate;
    (void)drive_churn(daemon, churn, stream, 0.2, false, log, run_gate);
    for (const bool perturb : {false, true}) {
      Gate gate;
      ChurnLog checked = log;
      if (perturb) {
        checked.answer_hashes.front() ^= 1;
        checked.last_entries.front() = perturbed(checked.last_entries.front());
      }
      verify_churn(churn, checked, gate);
      report(std::string("link_churn replay and final full solve, ") +
                 (perturb ? "perturbed" : "true"),
             run_gate.failures() == 0 && !log.batches.empty() &&
                 gate.failures() == (perturb ? 2 : 0));
    }
  }
  std::filesystem::remove(bulk_file);
  std::cout << "perfbench self-test " << (broken == 0 ? "passed" : "FAILED")
            << "\n";
  return broken == 0 ? 0 : 1;
}

void print_result(const RunOutcome& run, const Gate& gate) {
  const std::uint64_t attempted = std::max<std::uint64_t>(run.attempted, 1);
  const std::uint64_t failed = std::min(gate.failures(), attempted);
  for (const auto* table : {&run.metrics, &run.table_only}) {
    for (const Metric& m : *table) {
      std::cout << "perfbench metric " << m.name << " = " << m.value << " "
                << m.unit << " (n=" << m.samples
                << (m.note.empty() ? "" : ", " + m.note) << ")\n";
    }
  }
  std::cout << "perfbench metric error_rate = "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << " fraction (n=" << attempted << ")\n";
  std::cout << "perfbench gate checked=" << gate.checked()
            << " failed=" << gate.failures();
  if (gate.failures() > 0) {
    std::cout << " first=\"" << gate.first_failure() << "\"";
  }
  std::cout << "\n";
  Json metrics = JsonObject{};
  for (const Metric& m : run.metrics) {
    Json entry = JsonObject{};
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json result = JsonObject{};
  result.set("correct", gate.failures() == 0 && run.attempted > 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "perfbench: refusing to measure: " << refusal << "\n";
    return 2;
  }
  std::filesystem::create_directories(kRunDir);
  if (args.self_test) {
    return self_test(args.seed);
  }
  const WorkloadDef& w = workload_named(args.workload);
  const std::size_t cpus = available_cpus();
  const std::size_t threads = std::max(
      w.generator_threads, args.trace == 1 ? kProbeThreads : std::size_t{0});
  const std::size_t connections = std::max(
      w.connections, args.trace == 1 ? kProbeThreads : std::size_t{0});
  if (threads > cpus || connections > cpus) {
    std::cerr << "perfbench: load generator needs " << threads
              << " threads and " << connections << " connections but only "
              << cpus << " CPUs are available\n";
    return 2;
  }
  Gate gate;
  const RunOutcome outcome = args.trace == 1 ? run_traced(w, args, gate)
                                             : run_untraced(w, args, gate);
  Json env = JsonObject{};
  env.set("build_type", PERFBENCH_BUILD_TYPE);
  env.set("compiler", compiler());
  env.set("kernel", outcome.kernel);
  env.set("nproc", cpus);
  env.set("commit", args.commit);
  env.set("generator_threads", threads);
  env.set("connections", connections);
  env.set("workload", w.name);
  env.set("seed", static_cast<std::int64_t>(args.seed));
  env.set("seconds", args.seconds);
  env.set("trace", args.trace);
  std::cout << "perfbench env " << env.dump() << "\n";
  print_result(outcome, gate);
  return gate.failures() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
