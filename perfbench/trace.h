// Span recorder for the benchmark's traced run.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public entry points; nothing inside src/ is instrumented. Each
// span holds its name, start, end, parent span and batch id. Spans stay in
// memory and are written out once, when the run ends. A layer's self time
// is its span's duration minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   // string literal: one of the layer span names
  double start_us = 0.0;   // since the tracer was created
  double end_us = 0.0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
  std::int64_t batch = -1;   // input batch id, -1 when not batch-scoped
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> durations_us;  // one per span, recording order
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  // Opens a span as a child of the innermost open span; returns its id.
  std::int32_t begin(const char* name, std::int64_t batch = -1);
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  // Per-name totals; self time subtracts the direct children's durations.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  // Writes every span as one JSON object per line under a small header.
  // Returns false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span that records nothing when the tracer is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t batch = -1)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, batch) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
