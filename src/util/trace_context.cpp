#include "util/trace_context.hpp"

#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace elpc::util {

namespace {

struct InternTable {
  std::mutex mutex;
  std::unordered_map<std::string, std::uint32_t> refs;
  std::vector<std::string> names;  // names[ref - 1]
};

/// Leaked on purpose: trace contexts are read from detached handler
/// threads during teardown, so the table must outlive every static.
InternTable& intern_table() {
  static InternTable* table = new InternTable();
  return *table;
}

std::uint32_t intern(const std::string& id) {
  if (id.empty()) {
    return 0;
  }
  InternTable& table = intern_table();
  const std::lock_guard<std::mutex> lock(table.mutex);
  const auto it = table.refs.find(id);
  if (it != table.refs.end()) {
    return it->second;
  }
  if (table.names.size() >= kMaxInternedTraceIds) {
    return 0;  // capped: the id still reaches logs/spans, just not events
  }
  table.names.push_back(id);
  const auto ref = static_cast<std::uint32_t>(table.names.size());
  table.refs.emplace(id, ref);
  return ref;
}

struct ThreadContext {
  std::string id;
  std::uint32_t ref = 0;
  /// `ref` is interned lazily, on the first trace_context_ref() under
  /// this id: with the profiler off nothing asks, and a context switch
  /// then never touches the global table's mutex.
  bool ref_resolved = true;
};

ThreadContext& thread_context() {
  thread_local ThreadContext context;
  return context;
}

}  // namespace

void set_trace_context(const std::string& trace_id) {
  ThreadContext& context = thread_context();
  context.id = trace_id;
  context.ref = 0;
  context.ref_resolved = trace_id.empty();
}

void clear_trace_context() {
  ThreadContext& context = thread_context();
  context.id.clear();
  context.ref = 0;
  context.ref_resolved = true;
}

const std::string& trace_context() { return thread_context().id; }

std::uint32_t trace_context_ref() {
  ThreadContext& context = thread_context();
  if (!context.ref_resolved) {
    context.ref = intern(context.id);
    context.ref_resolved = true;
  }
  return context.ref;
}

std::string trace_ref_name(std::uint32_t ref) {
  if (ref == 0) {
    return {};
  }
  InternTable& table = intern_table();
  const std::lock_guard<std::mutex> lock(table.mutex);
  if (ref > table.names.size()) {
    return {};
  }
  return table.names[ref - 1];
}

ScopedTraceContext::ScopedTraceContext(const std::string& trace_id)
    : previous_(trace_context()) {
  set_trace_context(trace_id);
}

ScopedTraceContext::~ScopedTraceContext() { set_trace_context(previous_); }

}  // namespace elpc::util
