// hal::guard — SLO-bounded admission control with exact shed accounting.
//
// The runtime's only native answer to sustained overload is backpressure:
// bounded queues stall the producer, latency grows without bound, and a
// *real-time* result (the paper's whole premise) arrives too late to be
// worth computing. hal::guard turns that failure mode into a contract:
//
//   * A per-stage queue-delay estimate (EWMA of observed service time,
//     scaled by the pending tuple count) is compared against a watermark
//     pair derived from the SLO. Crossing the high watermark latches the
//     stage into shedding; the latch releases only below the low
//     watermark, so the guard cannot flap on a noisy boundary.
//   * While latched, a deterministic seeded policy sheds arriving tuples
//     BEFORE they reach any window: tail-drop (drop everything until the
//     backlog drains) or per-key probabilistic sampling (a seeded hash
//     sheds a fixed fraction of the key domain — both streams of a shed
//     key vanish together, so surviving keys keep exact join results).
//   * Every shed tuple is appended to a ShedLog. Because shedding happens
//     before window insertion, the guarded engine's output is *exactly*
//     the reference join of (input − shed log), whatever the timing that
//     produced the shed set. That identity — not any statistical bound —
//     is what the differential tests assert across every backend and
//     transport.
//
// A disabled guard (GuardConfig::enabled false) costs one branch per
// epoch.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "stream/tuple.h"

namespace hal::guard {

enum class ShedPolicy : std::uint8_t {
  kOff,        // never shed; watermarks/stats still tracked (observe mode)
  kTailDrop,   // while latched, shed every arriving tuple
  kKeySample,  // while latched, shed a seeded fixed fraction of keys
};

[[nodiscard]] const char* to_string(ShedPolicy p) noexcept;

// Slow-shard detector tuning (guard/detector.h). Lives here so one
// GuardConfig carries the whole guard layer's knobs through the facade.
struct DetectorConfig {
  // EWMA smoothing factor for per-shard service time (µs/tuple).
  double alpha = 0.3;
  // A shard is "slow this epoch" when its EWMA exceeds slow_ratio × the
  // median of its peers' EWMAs.
  double slow_ratio = 3.0;
  // Phi-accrual-style suspicion: add per slow epoch, decay per healthy
  // epoch, suspect at the threshold. With the defaults a shard must be
  // slow ≥ 3 consecutive epochs (or 3-of-4, ...) before quarantine, so a
  // single GC-like stutter never triggers a migration.
  double suspicion_add = 1.0;
  double suspicion_decay = 0.5;
  double suspicion_threshold = 3.0;
  // Epochs of data required per shard before it can be judged.
  std::uint32_t min_epochs = 2;
};

struct GuardConfig {
  // Master runtime switch; everything below is inert while false.
  bool enabled = false;

  // --- Admission -------------------------------------------------------
  ShedPolicy policy = ShedPolicy::kTailDrop;
  // Seed for the per-key sampling hash (kKeySample). Deterministic: the
  // same (seed, drop_permille) sheds the same key set on every backend.
  std::uint64_t seed = 1;
  // kKeySample: fraction of the key domain shed while latched, in ‰.
  std::uint32_t drop_permille = 500;
  // The latency bound: estimated queue delay a tuple may experience at
  // this stage before its result is considered late.
  double slo_delay_us = 5000.0;
  // Hysteresis watermarks on the delay estimate. 0 derives them from the
  // SLO (high = slo, low = slo/2).
  double high_watermark_us = 0.0;
  double low_watermark_us = 0.0;
  // EWMA smoothing for the per-tuple service-time estimate.
  double service_alpha = 0.2;
  // Test hook: hold the overload latch closed regardless of the measured
  // delay, making the shed *set* (not just the accounting) reproducible.
  bool force_overload = false;

  // --- Gray-failure detection / mitigation (cluster only) --------------
  // Feed per-shard service times into the SlowShardDetector and surface
  // ShardHealth in ClusterReport/obs.
  bool detect = true;
  DetectorConfig detector;

  [[nodiscard]] double high_us() const noexcept {
    return high_watermark_us > 0.0 ? high_watermark_us : slo_delay_us;
  }
  [[nodiscard]] double low_us() const noexcept {
    return low_watermark_us > 0.0 ? low_watermark_us : slo_delay_us * 0.5;
  }
};

// One shed tuple. `seq` is the global arrival index — the identity the
// differential contract subtracts from the oracle input.
struct ShedRecord {
  std::uint64_t seq = 0;
  std::uint32_t key = 0;
  stream::StreamId origin = stream::StreamId::R;

  friend bool operator==(const ShedRecord&, const ShedRecord&) = default;
};

// Exact accounting of everything the guard dropped, in shed order.
class ShedLog {
 public:
  void append(const stream::Tuple& t) {
    records_.push_back(ShedRecord{t.seq, t.key, t.origin});
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] const std::vector<ShedRecord>& records() const noexcept {
    return records_;
  }
  void clear() { records_.clear(); }

  // Seq set for minus_shed; rebuilt on demand.
  [[nodiscard]] std::unordered_set<std::uint64_t> seq_set() const;

 private:
  std::vector<ShedRecord> records_;
};

// The differential contract's left-hand side: the input stream with every
// logged tuple removed. guarded_output == ReferenceJoin(minus_shed(input))
// must hold exactly, on every backend, whatever timing produced the log.
[[nodiscard]] std::vector<stream::Tuple> minus_shed(
    const std::vector<stream::Tuple>& input, const ShedLog& log);

struct GuardStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t observations = 0;        // observe_delay_us() calls
  std::uint64_t overload_observations = 0;  // observations while latched
  std::uint64_t latch_transitions = 0;   // off→on edges
  [[nodiscard]] std::uint64_t offered() const noexcept {
    return admitted + shed;
  }
};

// Stateless per-key shed decision (kKeySample): a seeded SplitMix64 hash
// maps the key into [0, 1000) and sheds it below drop_permille. Exposed so
// tests can predict the shed key set independently of the guard.
[[nodiscard]] bool key_sheds(std::uint32_t key, std::uint64_t seed,
                             std::uint32_t drop_permille) noexcept;

// Per-stage admission guard: watermark hysteresis latch + shedding policy
// + exact shed log. Single-threaded — each stage owns its own instance
// (the facade's GuardedEngine, the cluster router's ingress).
class AdmissionGuard {
 public:
  explicit AdmissionGuard(const GuardConfig& cfg) : cfg_(cfg) {}

  // Feed the stage's current queue-delay estimate (µs); updates the
  // hysteresis latch. Call once per batch/epoch before admitting it.
  void observe_delay_us(double delay_us);

  // Convenience: estimated delay for `pending` tuples at the smoothed
  // service rate. Returns 0 until the first update_service_rate() call.
  [[nodiscard]] double estimate_delay_us(std::size_t pending) const noexcept {
    return ewma_us_per_tuple_ * static_cast<double>(pending);
  }
  // Feed a measured (busy µs, tuples) sample into the service-rate EWMA.
  void update_service_rate(double busy_us, std::uint64_t tuples);

  [[nodiscard]] bool overloaded() const noexcept {
    return cfg_.enabled && (cfg_.force_overload || latched_);
  }

  // Per-tuple admission. False ⇒ the tuple was appended to the shed log
  // and must not reach any window or router.
  bool admit(const stream::Tuple& t);

  // Filters a span: admitted tuples are appended to `out` (not cleared).
  void filter(const std::vector<stream::Tuple>& in,
              std::vector<stream::Tuple>& out);

  [[nodiscard]] const GuardConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const ShedLog& log() const noexcept { return log_; }
  [[nodiscard]] ShedLog& log() noexcept { return log_; }
  [[nodiscard]] const GuardStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double ewma_us_per_tuple() const noexcept {
    return ewma_us_per_tuple_;
  }
  [[nodiscard]] double last_delay_us() const noexcept {
    return last_delay_us_;
  }

 private:
  GuardConfig cfg_;
  bool latched_ = false;
  bool have_rate_ = false;
  double ewma_us_per_tuple_ = 0.0;
  double last_delay_us_ = 0.0;
  ShedLog log_;
  GuardStats stats_;
};

}  // namespace hal::guard
