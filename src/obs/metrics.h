// hal::obs — unified metrics layer shared by every engine realization.
//
// The paper's whole exercise (Figs. 14-17) is comparing throughput,
// latency and power across hardware and software realizations of the same
// operator; this registry is the common substrate those comparisons flow
// through. Engines record into three primitive kinds:
//
//   Counter   — monotonically increasing u64 (tuples routed, matches,
//               stall spins). Lock-free; safe from any thread.
//   Gauge     — last-written double (queue high-water, F_max, power).
//   Histogram — fixed-bucket distribution with p50/p99/max (latency
//               samples, batch fill). Per-thread instances merge
//               order-independently.
//
// Every metric carries a `Stability` class: kDeterministic values must be
// byte-identical across runs with the same seed and config (cycle counts,
// match counts), while kRuntime values may vary (wall times, thread-race
// dependent queue depths). Exporters can filter on it, which is what the
// determinism snapshot tests compare.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.h"

namespace hal::obs {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
enum class Stability : std::uint8_t { kDeterministic, kRuntime };

[[nodiscard]] constexpr const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(Stability s) noexcept {
  return s == Stability::kDeterministic ? "deterministic" : "runtime";
}

// Latency-style bucket ladders (upper bounds; an implicit +inf bucket
// catches overflow). Exponential, so one ladder spans sub-µs FPGA results
// and multi-ms software tails.
[[nodiscard]] std::vector<double> exponential_buckets(double first_upper,
                                                      double factor,
                                                      std::size_t count);

// Point-in-time copy of one histogram, used by snapshots and by merge
// order-independence tests.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;   // sorted, strictly increasing
  std::vector<std::uint64_t> counts;  // upper_bounds.size() + 1 (overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // exact observed extrema (0 when empty)
  double max = 0.0;

  // Interpolated quantile from the bucket counts; the overflow bucket
  // reports its lower edge (we cannot interpolate past the ladder).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }
};

struct MetricSnapshot {
  std::string name;
  Kind kind = Kind::kCounter;
  Stability stability = Stability::kDeterministic;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::optional<HistogramSnapshot> histogram;
};

// One run's worth of metrics, sorted by name. This is the unit the
// harness emits per run and the exporters serialize.
struct ObsSnapshot {
  std::string label;
  std::vector<MetricSnapshot> metrics;

  [[nodiscard]] const MetricSnapshot* find(std::string_view name) const;
};

class Counter {
 public:
  void inc() noexcept { add(1); }
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  // Fold-in of an externally tracked total (engine-internal u64 counters
  // published at collection time).
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  // Monotone high-water update.
  void set_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  // `upper_bounds` must be sorted and strictly increasing; values above
  // the last bound land in the overflow bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double v) noexcept;
  // Adds `other`'s buckets into this histogram. Bucket ladders must match
  // (HAL_CHECKed). Addition commutes, so merging per-thread histograms in
  // any order yields the same snapshot.
  void merge(const Histogram& other);
  void merge(const HistogramSnapshot& other);

  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return upper_bounds_;
  }

 private:
  void add_to_extrema(double lo, double hi) noexcept;

  std::vector<double> upper_bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +/-inf sentinels make the extrema updates pure CAS loops (no racy
  // first-sample initialization); snapshot() maps empty back to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Named metric store. Creation takes a mutex (cold path); updates through
// the returned references are lock-free. References stay valid for the
// registry's lifetime. Re-requesting a name returns the same instance and
// HAL_CHECKs that kind and stability agree.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(std::string_view name,
                   Stability stability = Stability::kDeterministic);
  Gauge& gauge(std::string_view name,
               Stability stability = Stability::kRuntime);
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds,
                       Stability stability = Stability::kRuntime);

  // Fold-in conveniences for engines that keep raw integral counters.
  void set_counter(std::string_view name, std::uint64_t value,
                   Stability stability = Stability::kDeterministic) {
    counter(name, stability).set(value);
  }
  void set_gauge(std::string_view name, double value,
                 Stability stability = Stability::kRuntime) {
    gauge(name, stability).set(value);
  }

  [[nodiscard]] ObsSnapshot snapshot(std::string label = {}) const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  struct Entry {
    Kind kind;
    Stability stability;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, Kind kind, Stability stability);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace hal::obs
