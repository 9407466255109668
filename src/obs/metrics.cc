#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace hal::obs {

std::vector<double> exponential_buckets(double first_upper, double factor,
                                        std::size_t count) {
  HAL_CHECK(first_upper > 0.0 && factor > 1.0 && count >= 1,
            "exponential_buckets needs first_upper > 0, factor > 1, "
            "count >= 1");
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = first_upper;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

double HistogramSnapshot::percentile(double p) const {
  HAL_ASSERT(p >= 0.0 && p <= 100.0);
  if (count == 0) return 0.0;
  // Rank of the target sample, 1-based, rounded up (nearest-rank method).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= upper_bounds.size()) {
      // Overflow bucket: no upper edge to interpolate toward; report the
      // ladder's top edge clamped to the exact max.
      return upper_bounds.empty() ? max
                                  : std::min(max, upper_bounds.back());
    }
    const double hi = upper_bounds[i];
    const double lo = i == 0 ? std::min(min, hi) : upper_bounds[i - 1];
    const double frac = in_bucket == 0
                            ? 1.0
                            : static_cast<double>(target - cumulative) /
                                  static_cast<double>(in_bucket);
    return lo + (hi - lo) * frac;
  }
  return max;
}

const MetricSnapshot* ObsSnapshot::find(std::string_view name) const {
  const auto it =
      std::lower_bound(metrics.begin(), metrics.end(), name,
                       [](const MetricSnapshot& m, std::string_view n) {
                         return m.name < n;
                       });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1) {
  for (std::size_t i = 1; i < upper_bounds_.size(); ++i) {
    HAL_CHECK(upper_bounds_[i - 1] < upper_bounds_[i],
              "histogram bounds must be strictly increasing");
  }
}

void Histogram::add_to_extrema(double lo, double hi) noexcept {
  double cur = min_.load(std::memory_order_relaxed);
  while (lo < cur &&
         !min_.compare_exchange_weak(cur, lo, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (hi > cur &&
         !max_.compare_exchange_weak(cur, hi, std::memory_order_relaxed)) {
  }
}

void Histogram::record(double v) noexcept {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v);
  const auto idx =
      static_cast<std::size_t>(it - upper_bounds_.begin());  // overflow ok
  add_to_extrema(v, v);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v,
                                     std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_relaxed);
}

void Histogram::merge(const Histogram& other) { merge(other.snapshot()); }

void Histogram::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  HAL_CHECK(other.upper_bounds == upper_bounds_,
            "histogram merge requires identical bucket ladders");
  add_to_extrema(other.min, other.max);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(other.counts[i], std::memory_order_relaxed);
  }
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + other.sum,
                                     std::memory_order_relaxed)) {
  }
  count_.fetch_add(other.count, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.upper_bounds = upper_bounds_;
  s.counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    s.counts.push_back(b.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
  s.max = s.count > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  return s;
}

MetricRegistry::Entry& MetricRegistry::entry(std::string_view name,
                                             Kind kind,
                                             Stability stability) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{kind, stability, {}, {}, {}})
             .first;
  } else {
    HAL_CHECK(it->second.kind == kind,
              "metric re-registered with a different kind");
    HAL_CHECK(it->second.stability == stability,
              "metric re-registered with a different stability class");
  }
  return it->second;
}

Counter& MetricRegistry::counter(std::string_view name, Stability stability) {
  Entry& e = entry(name, Kind::kCounter, stability);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricRegistry::gauge(std::string_view name, Stability stability) {
  Entry& e = entry(name, Kind::kGauge, stability);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::vector<double> upper_bounds,
                                     Stability stability) {
  Entry& e = entry(name, Kind::kHistogram, stability);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  } else {
    HAL_CHECK(e.histogram->upper_bounds() == upper_bounds,
              "histogram re-registered with a different bucket ladder");
  }
  return *e.histogram;
}

ObsSnapshot MetricRegistry::snapshot(std::string label) const {
  ObsSnapshot out;
  out.label = std::move(label);
  std::lock_guard<std::mutex> lock(mu_);
  out.metrics.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {  // std::map: sorted by name
    MetricSnapshot m;
    m.name = name;
    m.kind = e.kind;
    m.stability = e.stability;
    switch (e.kind) {
      case Kind::kCounter: m.counter_value = e.counter->value(); break;
      case Kind::kGauge: m.gauge_value = e.gauge->value(); break;
      case Kind::kHistogram: m.histogram = e.histogram->snapshot(); break;
    }
    out.metrics.push_back(std::move(m));
  }
  return out;
}

std::size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace hal::obs
