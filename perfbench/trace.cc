#include "trace.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

std::int32_t Tracer::begin(const char* name, std::int64_t batch) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.batch = batch;
  s.start_us = now_us();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Scopes close in LIFO order, so the span being closed is the innermost.
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_us - spans_[i].start_us;
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_us += d;
    t.self_us += d - child_us[i];
    t.durations_us.push_back(d);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << std::fixed << std::setprecision(3);
  f << "{\"format\": \"perfbench-spans\", \"fields\": "
       "[\"id\", \"name\", \"start_us\", \"end_us\", \"parent\", \"batch\"], "
       "\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "[" << i << ", \"" << s.name << "\", " << s.start_us << ", "
      << s.end_us << ", " << s.parent << ", " << s.batch << "]"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
