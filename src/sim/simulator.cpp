#include "sim/simulator.hpp"

#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "mapping/evaluator.hpp"
#include "sim/event_queue.hpp"

namespace elpc::sim {

namespace {

using graph::NodeId;
using pipeline::ModuleId;

/// One queued unit of work for a processor or link transmitter.
struct FrameTask {
  std::size_t frame = 0;
  ModuleId module = 0;
};

/// Oldest frame first, earlier stage first on a tie.  A shared station
/// (a node hosting several modules, or a link carried by several
/// pipeline transitions) must not let a flood of early-stage work starve
/// later stages: serving by frame order is the fair pipelined discipline
/// and is what makes a shared node's steady-state period equal the sum
/// of its modules' service times.
struct LaterTask {
  bool operator()(const FrameTask& a, const FrameTask& b) const {
    if (a.frame != b.frame) {
      return a.frame > b.frame;
    }
    return a.module > b.module;
  }
};

/// Service station (shared by processors and links; only the service-
/// time computation differs, supplied by the driver).
struct Station {
  std::priority_queue<FrameTask, std::vector<FrameTask>, LaterTask> queue;
  bool busy = false;
};

/// Whole-simulation state bundled so the event lambdas capture one
/// pointer instead of a dozen references.
struct Engine {
  const mapping::Problem* problem = nullptr;
  const mapping::Mapping* mapping = nullptr;
  pipeline::CostModel model;
  SimConfig config;

  EventQueue events;
  std::unordered_map<NodeId, Station> processors;
  // Keyed by (from << 32 | to); only links the mapping crosses are
  // instantiated.
  std::unordered_map<std::uint64_t, Station> links;
  std::vector<double> inject_time;
  std::vector<double> complete_time;

  Engine(const mapping::Problem& p, const mapping::Mapping& m,
         const SimConfig& c)
      : problem(&p), mapping(&m), model(p.model()), config(c) {}

  [[nodiscard]] static std::uint64_t link_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) |
           static_cast<std::uint64_t>(to);
  }

  void start_processor(NodeId node);
  void start_link(NodeId from, NodeId to);
  void module_input_ready(std::size_t frame, ModuleId j);
  void module_done(std::size_t frame, ModuleId j);
};

void Engine::module_input_ready(std::size_t frame, ModuleId j) {
  Station& proc = processors[mapping->node_of(j)];
  proc.queue.push(FrameTask{frame, j});
  start_processor(mapping->node_of(j));
}

void Engine::start_processor(NodeId node) {
  Station& proc = processors[node];
  if (proc.busy || proc.queue.empty()) {
    return;
  }
  proc.busy = true;
  const FrameTask task = proc.queue.top();
  proc.queue.pop();
  const double service = model.computing_time(task.module, node);
  events.schedule_in(service, [this, node, task]() {
    processors[node].busy = false;
    module_done(task.frame, task.module);
    start_processor(node);
  });
}

void Engine::module_done(std::size_t frame, ModuleId j) {
  const std::size_t n = problem->pipeline->module_count();
  if (j + 1 == n) {
    complete_time[frame] = events.now();
    return;
  }
  const NodeId here = mapping->node_of(j);
  const NodeId next = mapping->node_of(j + 1);
  if (here == next) {
    // Co-located modules hand data over in memory (the paper treats
    // intra-group transport as negligible).
    module_input_ready(frame, j + 1);
    return;
  }
  links[link_key(here, next)].queue.push(FrameTask{frame, j + 1});
  start_link(here, next);
}

void Engine::start_link(NodeId from, NodeId to) {
  Station& link = links[link_key(from, to)];
  if (link.busy || link.queue.empty()) {
    return;
  }
  link.busy = true;
  const FrameTask task = link.queue.top();
  link.queue.pop();
  const graph::LinkAttr attr = problem->network->link(from, to);
  const double megabits = problem->pipeline->input_mb(task.module);
  const double serialization = megabits / attr.bandwidth_mbps;
  const double propagation = attr.min_delay_s;
  // The link is occupied for the serialization time only; propagation
  // delay is added on top of the release instant and does not block the
  // next message.
  events.schedule_in(serialization, [this, from, to, task, propagation]() {
    links[link_key(from, to)].busy = false;
    events.schedule_in(propagation, [this, task]() {
      module_input_ready(task.frame, task.module);
    });
    start_link(from, to);
  });
}

}  // namespace

SimReport simulate(const mapping::Problem& problem,
                   const mapping::Mapping& mapping, const SimConfig& config) {
  if (config.frames == 0) {
    throw std::invalid_argument("simulate: need at least one frame");
  }
  if (config.warmup_fraction < 0.0 || config.warmup_fraction >= 1.0) {
    throw std::invalid_argument("simulate: warmup_fraction must be in [0,1)");
  }
  const mapping::Evaluation structure =
      mapping::check_structure(problem, mapping);
  if (!structure.feasible) {
    throw std::invalid_argument("simulate: infeasible mapping: " +
                                structure.reason);
  }

  Engine engine(problem, mapping, config);
  engine.inject_time.resize(config.frames, 0.0);
  engine.complete_time.resize(config.frames, -1.0);

  for (std::size_t f = 0; f < config.frames; ++f) {
    const double when =
        static_cast<double>(f) * config.injection_interval_s;
    engine.inject_time[f] = when;
    // Module 0 is the data source: no computation, its "completion" is
    // the injection instant.
    engine.events.schedule(when,
                           [&engine, f]() { engine.module_done(f, 0); });
  }
  engine.events.run();

  SimReport report;
  report.events = engine.events.executed();
  report.latencies_s.reserve(config.frames);
  report.completions_s.reserve(config.frames);
  for (std::size_t f = 0; f < config.frames; ++f) {
    if (engine.complete_time[f] < 0.0) {
      throw std::logic_error("simulate: frame never completed");
    }
    report.completions_s.push_back(engine.complete_time[f]);
    report.latencies_s.push_back(engine.complete_time[f] -
                                 engine.inject_time[f]);
  }

  const auto skip = static_cast<std::size_t>(
      config.warmup_fraction * static_cast<double>(config.frames));
  if (config.frames - skip >= 2) {
    const double t0 = report.completions_s[skip];
    const double t1 = report.completions_s[config.frames - 1];
    if (t1 > t0) {
      report.throughput_fps =
          static_cast<double>(config.frames - 1 - skip) / (t1 - t0);
    }
  }
  return report;
}

}  // namespace elpc::sim
