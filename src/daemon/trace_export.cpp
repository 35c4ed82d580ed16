#include "daemon/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

namespace elpc::daemon {

namespace {

/// One exported event, pre-JSON: kept as a struct so the whole set can
/// be stably sorted by timestamp before serialization (Perfetto accepts
/// unsorted input, but a sorted file diffs and debugs better).
struct PendingEvent {
  double ts_us = 0.0;
  util::Json json{util::JsonObject{}};
};

util::Json begin_event(const util::ProfileEvent& event) {
  util::Json doc{util::JsonObject{}};
  doc.set("ph", std::string("B"));
  doc.set("name", std::string(event.name));
  doc.set("cat", std::string(event.category));
  doc.set("ts", static_cast<double>(event.ts_ns) / 1000.0);
  doc.set("pid", 1);
  doc.set("tid", static_cast<std::int64_t>(event.tid));
  util::Json args{util::JsonObject{}};
  if (!event.trace_id.empty()) {
    args.set("trace_id", event.trace_id);
  }
  args.set("arg", static_cast<std::int64_t>(event.arg));
  doc.set("args", std::move(args));
  return doc;
}

util::Json end_event(const util::ProfileEvent& event) {
  util::Json doc{util::JsonObject{}};
  doc.set("ph", std::string("E"));
  doc.set("name", std::string(event.name));
  doc.set("cat", std::string(event.category));
  doc.set("ts", static_cast<double>(event.ts_ns) / 1000.0);
  doc.set("pid", 1);
  doc.set("tid", static_cast<std::int64_t>(event.tid));
  if (event.arg != 0) {
    // Viewers merge an end event's args into its slice, so a distinct
    // key keeps the begin arg visible beside it.
    util::Json args{util::JsonObject{}};
    args.set("end_arg", static_cast<std::int64_t>(event.arg));
    doc.set("args", std::move(args));
  }
  return doc;
}

util::Json span_event(const TraceSpan& span) {
  const double dur_us = span.e2e_ms * 1000.0;
  const double end_us = static_cast<double>(span.end_mono_ns) / 1000.0;
  util::Json doc{util::JsonObject{}};
  doc.set("ph", std::string("X"));
  doc.set("name", span.job_id);
  doc.set("cat", std::string("span"));
  doc.set("ts", std::max(0.0, end_us - dur_us));
  doc.set("dur", std::max(0.0, dur_us));
  doc.set("pid", 1);
  // A virtual row per ticket: spans of concurrent tickets overlap, which
  // B/E nesting on one row cannot represent but per-row "X" slices can.
  doc.set("tid", static_cast<std::int64_t>(1000000 + span.ticket));
  util::Json args{util::JsonObject{}};
  args.set("ticket", static_cast<std::int64_t>(span.ticket));
  if (!span.trace_id.empty()) {
    args.set("trace_id", span.trace_id);
  }
  args.set("state", span.state);
  args.set("kernel", span.kernel);
  args.set("incremental", span.incremental);
  args.set("queue_wait_ms", span.queue_wait_ms);
  args.set("solve_ms", span.solve_ms);
  args.set("dp_columns", static_cast<std::int64_t>(span.dp_columns));
  doc.set("args", std::move(args));
  return doc;
}

}  // namespace

util::Json chrome_trace_json(const util::ProfilerSnapshot& snapshot,
                             std::span<const TraceSpan> spans) {
  std::vector<PendingEvent> pending;
  pending.reserve(snapshot.events.size() + spans.size());
  // Pair begins with ends per thread, in recording order (drain() sorts
  // by (tid, seq)).  A stack of pending begin indices pairs each end
  // with the innermost open begin of the same name; halves orphaned by
  // ring eviction never pair and are not exported.
  std::size_t unmatched = 0;
  std::size_t i = 0;
  while (i < snapshot.events.size()) {
    const unsigned tid = snapshot.events[i].tid;
    std::size_t end = i;
    while (end < snapshot.events.size() && snapshot.events[end].tid == tid) {
      ++end;
    }
    std::vector<std::size_t> stack;
    std::vector<bool> matched(end - i, false);
    for (std::size_t k = i; k < end; ++k) {
      const util::ProfileEvent& event = snapshot.events[k];
      if (event.begin) {
        stack.push_back(k);
      } else if (!stack.empty() &&
                 std::string_view(snapshot.events[stack.back()].name) ==
                     event.name) {
        matched[stack.back() - i] = true;
        matched[k - i] = true;
        stack.pop_back();
      } else {
        ++unmatched;  // end whose begin was evicted (or mismatched)
      }
    }
    unmatched += stack.size();  // begins still open at drain time
    // Matched events go out in recording order: per-thread timestamps
    // never decrease in that order, so the stable sort below keeps it,
    // and recording order nests correctly by construction.
    for (std::size_t k = i; k < end; ++k) {
      if (!matched[k - i]) {
        continue;
      }
      const util::ProfileEvent& event = snapshot.events[k];
      pending.push_back({static_cast<double>(event.ts_ns) / 1000.0,
                         event.begin ? begin_event(event) : end_event(event)});
    }
    i = end;
  }
  const std::size_t paired_events = pending.size();
  for (const TraceSpan& span : spans) {
    pending.push_back({std::max(0.0, static_cast<double>(span.end_mono_ns) /
                                         1000.0 -
                                     span.e2e_ms * 1000.0),
                       span_event(span)});
  }
  // Stable: equal timestamps keep recording order, so an end never sorts
  // ahead of the begin it closes.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingEvent& a, const PendingEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  util::JsonArray events;
  events.reserve(pending.size());
  for (PendingEvent& event : pending) {
    events.push_back(std::move(event.json));
  }
  util::Json doc{util::JsonObject{}};
  doc.set("traceEvents", util::Json(std::move(events)));
  doc.set("displayTimeUnit", std::string("ms"));
  // Accounting block (ignored by viewers): lets consumers check event
  // conservation without re-deriving it from the array.
  util::Json meta{util::JsonObject{}};
  meta.set("recorded", static_cast<std::int64_t>(snapshot.recorded));
  meta.set("dropped", static_cast<std::int64_t>(snapshot.dropped));
  meta.set("drained", static_cast<std::int64_t>(snapshot.drained));
  meta.set("threads", static_cast<std::int64_t>(snapshot.threads));
  meta.set("exported_events", static_cast<std::int64_t>(paired_events));
  meta.set("unmatched_events", static_cast<std::int64_t>(unmatched));
  meta.set("spans", static_cast<std::int64_t>(spans.size()));
  doc.set("elpc", std::move(meta));
  return doc;
}

bool validate_chrome_trace(const util::Json& doc, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (!doc.is_object()) {
    return fail("trace document is not an object");
  }
  const util::Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }
  std::map<std::int64_t, double> last_ts;
  std::map<std::int64_t, std::vector<std::string>> stacks;
  std::size_t index = 0;
  for (const util::Json& event : events->as_array()) {
    const std::string where = "event " + std::to_string(index++);
    if (!event.is_object()) {
      return fail(where + ": not an object");
    }
    const util::Json* ph = event.find("ph");
    const util::Json* name = event.find("name");
    const util::Json* ts = event.find("ts");
    const util::Json* pid = event.find("pid");
    const util::Json* tid = event.find("tid");
    if (ph == nullptr || !ph->is_string()) {
      return fail(where + ": missing ph");
    }
    if (name == nullptr || !name->is_string()) {
      return fail(where + ": missing name");
    }
    if (ts == nullptr || !ts->is_number()) {
      return fail(where + ": missing ts");
    }
    if (pid == nullptr || !pid->is_number()) {
      return fail(where + ": missing pid");
    }
    if (tid == nullptr || !tid->is_number()) {
      return fail(where + ": missing tid");
    }
    const std::int64_t row = tid->as_int();
    const auto [it, fresh] = last_ts.emplace(row, ts->as_number());
    if (!fresh) {
      if (ts->as_number() < it->second) {
        return fail(where + ": ts goes backwards on tid " +
                    std::to_string(row));
      }
      it->second = ts->as_number();
    }
    const std::string& phase = ph->as_string();
    if (phase == "B") {
      stacks[row].push_back(name->as_string());
    } else if (phase == "E") {
      std::vector<std::string>& stack = stacks[row];
      if (stack.empty()) {
        return fail(where + ": E without open B on tid " +
                    std::to_string(row));
      }
      if (stack.back() != name->as_string()) {
        return fail(where + ": E '" + name->as_string() +
                    "' closes B '" + stack.back() + "' on tid " +
                    std::to_string(row));
      }
      stack.pop_back();
    } else if (phase == "X") {
      const util::Json* dur = event.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_number() < 0.0) {
        return fail(where + ": X without non-negative dur");
      }
    } else {
      return fail(where + ": unsupported ph '" + phase + "'");
    }
  }
  for (const auto& [row, stack] : stacks) {
    if (!stack.empty()) {
      return fail("unclosed B '" + stack.back() + "' on tid " +
                  std::to_string(row));
    }
  }
  return true;
}

}  // namespace elpc::daemon
