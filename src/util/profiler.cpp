#include "util/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "util/log.hpp"
#include "util/trace_context.hpp"

namespace elpc::util {

namespace {

// Process-wide steady anchor shared with the daemon's span end stamps.
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

/// One ring slot.  `seq` is the per-ring event index + 1 (0 = empty /
/// being written); the writer invalidates, fills, then publishes with a
/// release store, so a reader that sees the same nonzero seq before and
/// after copying got a consistent event.  Every field is an atomic with
/// relaxed ops — on x86 these compile to plain stores, and they keep the
/// concurrent drain data-race-free without locks.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  /// bit 0: begin; bits 1..32: interned trace ref.
  std::atomic<std::uint64_t> meta{0};
  std::atomic<std::uint64_t> arg{0};
};

struct ThreadRing {
  explicit ThreadRing(std::size_t capacity, unsigned tid_)
      : mask(capacity - 1), tid(tid_), slots(new Slot[capacity]) {}

  const std::uint64_t mask;  // capacity - 1 (power of two)
  const unsigned tid;
  std::unique_ptr<Slot[]> slots;
  /// Events ever recorded here.  Written by the owner thread only.
  std::atomic<std::uint64_t> recorded{0};
  /// Unread events evicted by ring wrap (owner thread only).
  std::atomic<std::uint64_t> dropped{0};
  /// Events handed out by drains (drainer threads, under registry mutex).
  std::atomic<std::uint64_t> drained{0};

  void record(bool begin, const char* name, const char* category,
              std::uint64_t arg) {
    const std::uint64_t idx = recorded.load(std::memory_order_relaxed);
    Slot& slot = slots[idx & mask];
    // Reclaim the slot with one exchange: either this writer wins (the
    // unread event is dropped) or a concurrent drain already consumed it
    // — never both, so recorded == drained + dropped + live always holds.
    if (slot.seq.exchange(0, std::memory_order_acq_rel) != 0) {
      dropped.fetch_add(1, std::memory_order_relaxed);
    }
    slot.ts_ns.store(monotonic_ns(), std::memory_order_relaxed);
    slot.name.store(name, std::memory_order_relaxed);
    slot.category.store(category, std::memory_order_relaxed);
    slot.meta.store((static_cast<std::uint64_t>(trace_context_ref()) << 1) |
                        (begin ? 1u : 0u),
                    std::memory_order_relaxed);
    slot.arg.store(arg, std::memory_order_relaxed);
    slot.seq.store(idx + 1, std::memory_order_release);
    recorded.store(idx + 1, std::memory_order_relaxed);
  }
};

struct Registry {
  std::mutex mutex;  // guards rings (vector growth) and drain/reset
  std::vector<ThreadRing*> rings;
  std::size_t ring_capacity = Profiler::kDefaultRingCapacity;
};

/// Leaked on purpose: worker threads may record during static teardown.
Registry& registry() {
  static Registry* instance = new Registry();
  return *instance;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// The calling thread's ring, created (and registered) on first use.
/// Rings are never destroyed — a ring outliving its thread just stops
/// receiving events, and its buffered tail stays drainable.
ThreadRing& thread_ring() {
  thread_local ThreadRing* ring = []() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    auto* created = new ThreadRing(round_up_pow2(reg.ring_capacity),
                                   thread_ordinal());
    reg.rings.push_back(created);
    return created;
  }();
  return *ring;
}

}  // namespace

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

std::atomic<bool> Profiler::enabled_{false};

void Profiler::set_ring_capacity(std::size_t capacity) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.ring_capacity = round_up_pow2(capacity);
}

void Profiler::begin(const char* name, const char* category,
                     std::uint64_t arg) {
  thread_ring().record(/*begin=*/true, name, category, arg);
}

void Profiler::end(const char* name, const char* category,
                   std::uint64_t arg) {
  thread_ring().record(/*begin=*/false, name, category, arg);
}

ProfilerSnapshot Profiler::drain() {
  ProfilerSnapshot snapshot;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  snapshot.threads = reg.rings.size();
  for (ThreadRing* ring : reg.rings) {
    const std::uint64_t capacity = ring->mask + 1;
    for (std::uint64_t i = 0; i < capacity; ++i) {
      Slot& slot = ring->slots[i];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == 0) {
        continue;
      }
      ProfileEvent event;
      event.seq = seq - 1;
      event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      event.name = slot.name.load(std::memory_order_relaxed);
      event.category = slot.category.load(std::memory_order_relaxed);
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      event.begin = (meta & 1u) != 0;
      event.trace_id =
          trace_ref_name(static_cast<std::uint32_t>(meta >> 1));
      event.arg = slot.arg.load(std::memory_order_relaxed);
      event.tid = ring->tid;
      // Consume: only if the writer has not already reclaimed the slot —
      // a lost race means the event was overwritten mid-copy, so the
      // (possibly torn) copy is discarded and the writer's `dropped`
      // bump keeps the accounting balanced.
      std::uint64_t expected = seq;
      if (!slot.seq.compare_exchange_strong(expected, 0,
                                            std::memory_order_acq_rel)) {
        continue;
      }
      snapshot.events.push_back(std::move(event));
      ring->drained.fetch_add(1, std::memory_order_relaxed);
    }
    snapshot.recorded += ring->recorded.load(std::memory_order_relaxed);
    snapshot.dropped += ring->dropped.load(std::memory_order_relaxed);
    snapshot.drained += ring->drained.load(std::memory_order_relaxed);
  }
  // Oldest first per thread; stable cross-thread order by timestamp.
  std::sort(snapshot.events.begin(), snapshot.events.end(),
            [](const ProfileEvent& a, const ProfileEvent& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.seq < b.seq;
            });
  return snapshot;
}

void Profiler::reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (ThreadRing* ring : reg.rings) {
    const std::uint64_t capacity = ring->mask + 1;
    for (std::uint64_t i = 0; i < capacity; ++i) {
      ring->slots[i].seq.store(0, std::memory_order_relaxed);
    }
    ring->recorded.store(0, std::memory_order_relaxed);
    ring->dropped.store(0, std::memory_order_relaxed);
    ring->drained.store(0, std::memory_order_relaxed);
  }
}

}  // namespace elpc::util
