// Measurement harness used by the benchmark binaries and integration
// tests: runs a hardware engine to steady state and combines the cycle
// measurements with the device models into the quantities the paper
// reports (tuples/s at the operating clock, latency in cycles and µs,
// F_max, resource fit, power).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/stream_join.h"
#include "hw/biflow/engine.h"
#include "hw/model/device.h"
#include "hw/model/power_model.h"
#include "hw/model/resource_model.h"
#include "hw/model/timing_model.h"
#include "hw/uniflow/engine.h"
#include "obs/metrics.h"

namespace hal::core {

struct HwThroughput {
  bool fits = false;
  double fmax_mhz = 0.0;
  double clock_mhz = 0.0;  // operating point used for the time conversion
  std::uint64_t tuples = 0;
  std::uint64_t cycles = 0;
  std::uint64_t results = 0;
  hw::ResourceUsage usage;
  double power_mw = 0.0;

  [[nodiscard]] double tuples_per_cycle() const noexcept {
    return cycles > 0 ? static_cast<double>(tuples) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  [[nodiscard]] double mtuples_per_sec() const noexcept {
    return tuples_per_cycle() * clock_mhz;  // MHz · t/cycle = Mt/s
  }
};

struct HwLatency {
  bool fits = false;
  double fmax_mhz = 0.0;
  double clock_mhz = 0.0;
  std::uint64_t cycles_to_last_result = 0;
  std::uint64_t cycles_to_quiescent = 0;

  [[nodiscard]] double microseconds() const noexcept {
    return clock_mhz > 0.0
               ? static_cast<double>(cycles_to_last_result) / clock_mhz
               : 0.0;
  }
};

struct MeasureOptions {
  // Tuples streamed for the throughput measurement after the windows have
  // been pre-filled to steady state.
  std::size_t num_tuples = 512;
  std::uint64_t seed = 42;
  // Requested clock; the operating clock is min(requested, modeled F_max),
  // mirroring the paper's fixed 100 MHz (V5) / 300 MHz (V7) choices.
  double requested_mhz = 100.0;
  // Key domain of the uniform workload; sized so equi-join selectivity is
  // low (result traffic does not bottleneck the gathering network, as in
  // the paper's throughput runs).
  std::uint32_t key_domain = 1u << 20;

  // Software/cluster measurements only: dispatch granularity of the
  // batched data path. 0 keeps the EngineConfig's own dispatch_batch
  // (default tuple-at-a-time); n overrides it for this measurement, so
  // batch-size sweeps reuse one config.
  std::size_t dispatch_batch = 0;

  // Hardware measurements only: host threads for the simulation kernel.
  // 0 keeps the engine config's own sim.threads; n overrides it for this
  // measurement. Purely host-side — simulated results and cycle counts are
  // byte-identical across values (the two-phase determinism contract).
  std::uint32_t sim_threads = 0;

  // When set, the measurement publishes the engine's internal metrics
  // (under "<obs_prefix>engine.") and its own outputs (under
  // "<obs_prefix>run.") into this registry.
  obs::MetricRegistry* registry = nullptr;
  std::string obs_prefix;
};

// Steady-state input throughput of a uni-flow hardware design on `device`.
[[nodiscard]] HwThroughput measure_uniflow_throughput(
    const hw::UniflowConfig& cfg, const hw::FpgaDevice& device,
    const MeasureOptions& opts);

// Same for a bi-flow design.
[[nodiscard]] HwThroughput measure_biflow_throughput(
    const hw::BiflowConfig& cfg, const hw::FpgaDevice& device,
    const MeasureOptions& opts);

// Latency of one tuple inserted into a quiescent design with full windows
// containing exactly one matching partner (§V: "the time it takes to
// process and emit all results for a newly inserted tuple").
[[nodiscard]] HwLatency measure_uniflow_latency(const hw::UniflowConfig& cfg,
                                                const hw::FpgaDevice& device,
                                                const MeasureOptions& opts);

// Wall-clock throughput of a software or cluster backend at steady state:
// windows are warmed to 2·W tuples first (prefilled, or streamed for
// backends without state injection), then `num_tuples` fresh tuples are
// timed end to end through the path selected by dispatch_batch.
struct SwMeasurement {
  std::uint64_t tuples = 0;
  std::uint64_t results = 0;
  double elapsed_seconds = 0.0;

  [[nodiscard]] double tuples_per_sec() const noexcept {
    return elapsed_seconds > 0.0
               ? static_cast<double>(tuples) / elapsed_seconds
               : 0.0;
  }
};
[[nodiscard]] SwMeasurement measure_sw_throughput(const EngineConfig& cfg,
                                                  const MeasureOptions& opts);

// Model-only evaluation (fit, F_max, power) for sweeps that do not need a
// simulation run, e.g. Fig. 17.
struct HwModelPoint {
  bool fits = false;
  double fmax_mhz = 0.0;
  hw::ResourceUsage usage;
  double power_mw_at_fmax = 0.0;
};
[[nodiscard]] HwModelPoint evaluate_design(const hw::DesignStats& stats,
                                           const hw::FpgaDevice& device);

}  // namespace hal::core
