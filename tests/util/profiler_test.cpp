#include "util/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/trace_context.hpp"

namespace elpc::util {
namespace {

/// The profiler is process-global state; every test starts and ends from
/// a clean, disabled slate so ordering between tests cannot matter.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::set_enabled(false);
    Profiler::set_ring_capacity(Profiler::kDefaultRingCapacity);
    Profiler::reset();
    clear_trace_context();
  }
  void TearDown() override { SetUp(); }
};

/// Runs `body` on a brand-new thread (therefore a brand-new ring, which
/// is what set_ring_capacity applies to) and joins it.
template <typename Fn>
void on_fresh_thread(Fn body) {
  std::thread worker(std::move(body));
  worker.join();
}

TEST_F(ProfilerTest, DisabledByDefaultRecordsNothing) {
  on_fresh_thread([] {
    const ProfileScope scope("solve", "engine");
    PhaseSegments segments("dp_column", "core", 2);
    for (std::size_t i = 0; i < 10; ++i) {
      segments.tick(i);
    }
  });
  const ProfilerSnapshot snapshot = Profiler::drain();
  EXPECT_TRUE(snapshot.events.empty());
  EXPECT_EQ(snapshot.recorded, 0u);
  EXPECT_EQ(snapshot.dropped, 0u);
  EXPECT_EQ(snapshot.drained, 0u);
}

TEST_F(ProfilerTest, ScopesBalanceAndCarryTheThreadTraceId) {
  Profiler::set_enabled(true);
  on_fresh_thread([] {
    const ScopedTraceContext trace("req-1");
    const ProfileScope outer("solve", "engine", 7);
    { const ProfileScope inner("arena", "core"); }
  });
  const ProfilerSnapshot snapshot = Profiler::drain();
  ASSERT_EQ(snapshot.events.size(), 4u);
  EXPECT_EQ(snapshot.recorded, 4u);
  EXPECT_EQ(snapshot.dropped, 0u);
  EXPECT_EQ(snapshot.drained, 4u);

  // drain() orders a thread's events by recording sequence, which for a
  // single thread is also non-decreasing in time.
  const std::vector<ProfileEvent>& events = snapshot.events;
  EXPECT_EQ(std::string(events[0].name), "solve");
  EXPECT_TRUE(events[0].begin);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(std::string(events[1].name), "arena");
  EXPECT_TRUE(events[1].begin);
  EXPECT_EQ(std::string(events[2].name), "arena");
  EXPECT_FALSE(events[2].begin);
  EXPECT_EQ(std::string(events[3].name), "solve");
  EXPECT_FALSE(events[3].begin);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  for (const ProfileEvent& event : events) {
    EXPECT_EQ(event.trace_id, "req-1");
    EXPECT_EQ(std::string(event.category),
              event.name == std::string("arena") ? "core" : "engine");
  }

  // Everything was consumed: a second drain returns nothing new but the
  // cumulative accounting survives.
  const ProfilerSnapshot again = Profiler::drain();
  EXPECT_TRUE(again.events.empty());
  EXPECT_EQ(again.recorded, 4u);
  EXPECT_EQ(again.drained, 4u);
}

TEST_F(ProfilerTest, EndArgRidesTheEndEvent) {
  Profiler::set_enabled(true);
  on_fresh_thread([] {
    ProfileScope counted("recompute", "dp", 3);
    counted.set_end_arg(42);
    { const ProfileScope plain("arena", "core"); }
  });
  const ProfilerSnapshot snapshot = Profiler::drain();
  ASSERT_EQ(snapshot.events.size(), 4u);
  EXPECT_EQ(snapshot.events[0].arg, 3u);   // begin "recompute"
  EXPECT_EQ(snapshot.events[2].arg, 0u);   // end "arena": never set
  EXPECT_FALSE(snapshot.events[3].begin);  // end "recompute"
  EXPECT_EQ(snapshot.events[3].arg, 42u);
}

TEST_F(ProfilerTest, RingWrapEvictsOldestAndCountsDropped) {
  Profiler::set_enabled(true);
  Profiler::set_ring_capacity(8);  // applies to the fresh thread's ring
  constexpr std::size_t kScopes = 100;
  on_fresh_thread([] {
    for (std::size_t i = 0; i < kScopes; ++i) {
      const ProfileScope scope("tiny", "test", i);
    }
  });
  const ProfilerSnapshot snapshot = Profiler::drain();
  EXPECT_EQ(snapshot.recorded, 2 * kScopes);
  EXPECT_LE(snapshot.events.size(), 8u);
  EXPECT_FALSE(snapshot.events.empty());
  // Conservation: after a full drain of an idle ring, every recorded
  // event was either drained or evicted.
  EXPECT_EQ(snapshot.recorded, snapshot.drained + snapshot.dropped);
  // Oldest-first eviction means the survivors are the LAST events: the
  // final begin in the ring belongs to the final scope (ends carry no
  // arg, so look at the begins).
  std::uint64_t last_begin_arg = 0;
  for (const ProfileEvent& event : snapshot.events) {
    if (event.begin) {
      last_begin_arg = event.arg;
    }
  }
  EXPECT_EQ(last_begin_arg, kScopes - 1);
}

TEST_F(ProfilerTest, ScopeArmedAtConstructionBalancesAFlagFlip) {
  Profiler::set_enabled(true);
  on_fresh_thread([] {
    const ProfileScope scope("flip", "test");
    Profiler::set_enabled(false);  // mid-scope flip must not orphan the begin
  });
  const ProfilerSnapshot armed = Profiler::drain();
  ASSERT_EQ(armed.events.size(), 2u);
  EXPECT_TRUE(armed.events[0].begin);
  EXPECT_FALSE(armed.events[1].begin);

  // The mirror image: constructed disabled, enabling mid-scope records
  // nothing (the scope never armed).
  Profiler::reset();
  Profiler::set_enabled(false);
  on_fresh_thread([] {
    const ProfileScope scope("flip", "test");
    Profiler::set_enabled(true);
  });
  EXPECT_TRUE(Profiler::drain().events.empty());
}

TEST_F(ProfilerTest, PhaseSegmentsOpenEveryStrideTicksAndCloseOnExit) {
  Profiler::set_enabled(true);
  on_fresh_thread([] {
    PhaseSegments segments("dp_column", "core", 4);
    for (std::size_t i = 0; i < 10; ++i) {
      segments.tick(i);
    }
  });
  const ProfilerSnapshot snapshot = Profiler::drain();
  // Segments open at ticks 0, 4, 8; each open closes the previous one
  // and the destructor closes the last: 3 begins + 3 ends.
  ASSERT_EQ(snapshot.events.size(), 6u);
  std::vector<std::uint64_t> begin_args;
  int depth = 0;
  for (const ProfileEvent& event : snapshot.events) {
    if (event.begin) {
      begin_args.push_back(event.arg);
    }
    depth += event.begin ? 1 : -1;
    ASSERT_GE(depth, 0);
    ASSERT_LE(depth, 1);  // segments never nest
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(begin_args, (std::vector<std::uint64_t>{0, 4, 8}));
}

TEST_F(ProfilerTest, DrainMergesThreadsWithDistinctTids) {
  Profiler::set_enabled(true);
  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] { const ProfileScope scope("worker", "test"); });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const ProfilerSnapshot snapshot = Profiler::drain();
  EXPECT_EQ(snapshot.events.size(), 2u * kThreads);
  EXPECT_GE(snapshot.threads, static_cast<std::size_t>(kThreads));
  std::map<unsigned, int> per_tid;
  for (const ProfileEvent& event : snapshot.events) {
    per_tid[event.tid] += 1;
  }
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, count] : per_tid) {
    EXPECT_EQ(count, 2) << "tid " << tid;
  }
}

TEST_F(ProfilerTest, ScopedTraceContextNestsAndRestores) {
  EXPECT_EQ(trace_context(), "");
  EXPECT_EQ(trace_context_ref(), 0u);
  {
    const ScopedTraceContext outer("request-9");
    EXPECT_EQ(trace_context(), "request-9");
    const std::uint32_t outer_ref = trace_context_ref();
    EXPECT_NE(outer_ref, 0u);
    EXPECT_EQ(trace_ref_name(outer_ref), "request-9");
    {
      const ScopedTraceContext inner("job-3");
      EXPECT_EQ(trace_context(), "job-3");
      EXPECT_NE(trace_context_ref(), outer_ref);
    }
    // The inner scope restored the handler's id, not emptiness.
    EXPECT_EQ(trace_context(), "request-9");
    EXPECT_EQ(trace_context_ref(), outer_ref);
  }
  EXPECT_EQ(trace_context(), "");
  EXPECT_EQ(trace_context_ref(), 0u);
  // Interning is stable: the same id maps to the same ref forever.
  set_trace_context("request-9");
  EXPECT_EQ(trace_ref_name(trace_context_ref()), "request-9");
  clear_trace_context();
}

}  // namespace
}  // namespace elpc::util
