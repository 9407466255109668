// hal::obs trace suite: span recording, ring-wrap retention, draining
// across exited threads, and the Chrome trace-viewer JSON export.
//
// The trace rings are process-global, so every test drains first to
// isolate itself from events left behind by earlier tests when the whole
// binary runs in one process (ctest runs each test in its own process,
// but a bare ./obs_trace_test must pass too).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"

namespace hal::obs {
namespace {

// Mirrors the ring capacity in trace.cc; the wrap test pins the contract.
constexpr std::size_t kRingCapacity = 4096;

TEST(Trace, SpanRecordsOneEvent) {
  (void)drain_trace_events();  // isolate from earlier tests' events
  { Span span("unit.span"); }
  const auto events = drain_trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "unit.span");
  EXPECT_GE(events[0].start_us, 0.0);
  EXPECT_GE(events[0].duration_us, 0.0);
}

TEST(Trace, DrainSortsByStartAndClears) {
  (void)drain_trace_events();  // isolate from earlier tests' events
  record_trace_event("late", 30.0, 1.0);
  record_trace_event("early", 10.0, 1.0);
  record_trace_event("mid", 20.0, 1.0);
  const auto events = drain_trace_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_STREQ(events[2].name, "late");
  EXPECT_TRUE(drain_trace_events().empty());  // drain resets the rings
}

TEST(Trace, RingWrapKeepsTheNewestEvents) {
  (void)drain_trace_events();  // isolate from earlier tests' events
  const std::size_t total = kRingCapacity + 1000;
  for (std::size_t i = 0; i < total; ++i) {
    record_trace_event("wrap", static_cast<double>(i), 1.0);
  }
  const auto events = drain_trace_events();
  ASSERT_EQ(events.size(), kRingCapacity);
  // The oldest (total - capacity) events were overwritten; the survivors
  // are the newest, still in order.
  EXPECT_DOUBLE_EQ(events.front().start_us,
                   static_cast<double>(total - kRingCapacity));
  EXPECT_DOUBLE_EQ(events.back().start_us, static_cast<double>(total - 1));
}

TEST(Trace, DrainCollectsEventsOfExitedThreads) {
  (void)drain_trace_events();  // isolate from earlier tests' events
  constexpr int kThreads = 3;
  constexpr int kPerThread = 5;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        Span span("worker.unit");
      }
    });
  }
  for (auto& t : threads) t.join();  // rings outlive their threads
  record_trace_event("main.marker", trace_now_us(), 0.0);

  const auto events = drain_trace_events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread) + 1);
  std::set<std::uint32_t> worker_ids;
  for (const auto& e : events) {
    if (std::string(e.name) == "worker.unit") worker_ids.insert(e.thread_id);
  }
  EXPECT_EQ(worker_ids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Trace, JsonIsChromeTraceShapedAndLints) {
  (void)drain_trace_events();  // isolate from earlier tests' events
  {
    Span outer("epoch");
    Span inner("batch");
  }
  const auto events = drain_trace_events();
  const std::string json = trace_to_json(events);
  EXPECT_TRUE(json_lint(json));
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
}

TEST(Trace, EmptyEventListSerializesToEmptyArray) {
  const std::string json = trace_to_json({});
  EXPECT_TRUE(json_lint(json));
  EXPECT_EQ(json.find('{'), std::string::npos);
}

}  // namespace
}  // namespace hal::obs
