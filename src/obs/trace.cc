#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace hal::obs {

namespace {

constexpr std::size_t kRingCapacity = 4096;

struct TraceRing {
  explicit TraceRing(std::uint32_t id) : thread_id(id) {
    events.resize(kRingCapacity);
  }

  std::mutex mu;
  std::vector<TraceEvent> events;
  std::size_t next = 0;       // write cursor
  std::size_t recorded = 0;   // total writes since last drain
  std::uint32_t thread_id;
};

struct TraceState {
  std::mutex mu;
  // Rings are never removed: a thread's events must survive its exit so
  // the harness can drain them. Bounded by the number of threads ever
  // started, which the engines keep small.
  std::vector<std::shared_ptr<TraceRing>> rings;
  std::uint32_t next_thread_id = 0;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: outlives all threads
  return *s;
}

TraceRing& local_ring() {
  thread_local std::shared_ptr<TraceRing> ring = [] {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto r = std::make_shared<TraceRing>(s.next_thread_id++);
    s.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

double trace_now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - state().epoch)
      .count();
}

void record_trace_event(const char* name, double start_us,
                        double duration_us) {
  TraceRing& ring = local_ring();
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.events[ring.next] = {name, start_us, duration_us, ring.thread_id};
  ring.next = (ring.next + 1) % kRingCapacity;
  ++ring.recorded;
}

std::vector<TraceEvent> drain_trace_events() {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    rings = s.rings;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    const std::size_t kept = std::min(ring->recorded, kRingCapacity);
    // Oldest surviving event sits at `next` once the ring has wrapped.
    const std::size_t start =
        ring->recorded > kRingCapacity ? ring->next : 0;
    for (std::size_t i = 0; i < kept; ++i) {
      out.push_back(ring->events[(start + i) % kRingCapacity]);
    }
    ring->next = 0;
    ring->recorded = 0;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_us < b.start_us;
                   });
  return out;
}

std::string trace_to_json(const std::vector<TraceEvent>& events) {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 0, \"tid\": %u}",
                  i == 0 ? "" : ",", e.name, e.start_us, e.duration_us,
                  e.thread_id);
    out += buf;
  }
  out += "\n]";
  return out;
}

}  // namespace hal::obs
