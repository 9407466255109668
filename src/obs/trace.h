// hal::obs tracing — lightweight span/event recording.
//
// Each thread owns a fixed-capacity ring buffer of trace events; recording
// a span costs one uncontended mutex acquire plus a ring write, cheap
// enough for per-batch / per-epoch scopes (it is NOT meant for per-tuple
// hot loops — counters cover those). Rings are registered globally on
// first use and outlive their threads, so a harness can drain everything
// at exit — including spans recorded by engine worker threads that have
// already joined. When a ring wraps, the oldest events are overwritten
// (the tail of a run is what benches care about).
//
// Spans record wall-clock timestamps (steady clock, µs since process
// trace-epoch), so all trace data is Stability::kRuntime by nature and is
// never part of the deterministic snapshot comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hal::obs {

struct TraceEvent {
  // Static-storage name (string literal); the ring stores the pointer.
  const char* name = "";
  double start_us = 0.0;
  double duration_us = 0.0;
  std::uint32_t thread_id = 0;  // registration-order id, not an OS tid
};

// Records one completed event into the calling thread's ring.
void record_trace_event(const char* name, double start_us,
                        double duration_us);

// Microseconds since the process trace-epoch (first use).
[[nodiscard]] double trace_now_us();

// Collects every ring's events (all threads, including exited ones),
// clears the rings, and returns the events sorted by start time.
[[nodiscard]] std::vector<TraceEvent> drain_trace_events();

// RAII span: records [construction, destruction) under `name`.
class Span {
 public:
  explicit Span(const char* name) : name_(name), start_us_(trace_now_us()) {}
  ~Span() { record_trace_event(name_, start_us_, trace_now_us() - start_us_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double start_us_;
};

// Chrome trace-viewer compatible JSON array ("displayTimeUnit": µs
// semantics: ts/dur fields are in microseconds). An empty event list
// serializes to an empty array.
[[nodiscard]] std::string trace_to_json(const std::vector<TraceEvent>& events);

}  // namespace hal::obs
