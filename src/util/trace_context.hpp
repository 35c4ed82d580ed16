#pragma once
// Thread-local trace context: the request-scoped id that correlates one
// client request with everything it caused — daemon log lines
// (`[trace=..]`), the ticket's TraceSpan, and the profiler's phase
// events.  The daemon sets it while handling a request and while a
// worker solves that request's job; util::log and util::Profiler read
// it implicitly, so lower layers never thread an id parameter through.
//
// Ids are interned into a process-global table so the profiler's
// lock-free event slots can carry a 32-bit ref instead of a string.
// Interning takes a mutex, so it happens lazily: at most once per
// context switch (per request / per job), on the first profiler event
// under the new id — never per event, and never with the profiler off.
// The table is capped: past
// kMaxInternedTraceIds distinct ids, new ones still reach log lines and
// spans (the thread-local string is uncapped) but profiler events carry
// ref 0 (no id) — bounded memory beats unbounded correlation.

#include <cstdint>
#include <string>

namespace elpc::util {

inline constexpr std::size_t kMaxInternedTraceIds = 1u << 16;

/// Sets the calling thread's trace id (empty = clear).
void set_trace_context(const std::string& trace_id);
void clear_trace_context();

/// The calling thread's current trace id ("" when unset).
[[nodiscard]] const std::string& trace_context();

/// Interned ref of the current id (0 when unset or the table is full).
[[nodiscard]] std::uint32_t trace_context_ref();

/// The id interned under `ref` ("" for 0 or an unknown ref).
[[nodiscard]] std::string trace_ref_name(std::uint32_t ref);

/// RAII context switch: installs `trace_id` for the scope, restores the
/// previous id on exit (nesting-safe — a daemon handler's request id
/// survives an inner solve setting the job's own).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const std::string& trace_id);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::string previous_;
};

}  // namespace elpc::util
