#include "core/stream_join.h"

#include <algorithm>

#include "cluster/cluster_engine.h"
#include "common/assert.h"
#include "guard/guarded_engine.h"
#include "hw/biflow/engine.h"
#include "hw/uniflow/engine.h"
#include "sw/batch_join.h"
#include "sw/handshake_join.h"
#include "sw/splitjoin.h"

namespace hal::core {

namespace {

using stream::ResultTuple;
using stream::Tuple;

// Generous default: benches/tests that need tighter control use the
// engines directly.
constexpr std::uint64_t kMaxCyclesPerBatchTuple = 1u << 22;

// The hw engines' results past `taken`, which then covers them all.
std::vector<ResultTuple> take_since(const std::vector<hw::TimedResult>& all,
                                    std::size_t& taken) {
  std::vector<ResultTuple> fresh;
  fresh.reserve(all.size() - taken);
  for (std::size_t i = taken; i < all.size(); ++i) {
    fresh.push_back(all[i].result);
  }
  taken = all.size();
  return fresh;
}

hw::UniflowConfig uniflow_config(const EngineConfig& cfg) {
  hw::UniflowConfig hw_cfg;
  hw_cfg.num_cores = cfg.num_cores;
  hw_cfg.window_size = cfg.window_size;
  hw_cfg.distribution = cfg.distribution;
  hw_cfg.gathering = cfg.gathering;
  return hw_cfg;
}

hw::BiflowConfig biflow_config(const EngineConfig& cfg) {
  hw::BiflowConfig hw_cfg;
  hw_cfg.num_cores = cfg.num_cores;
  hw_cfg.window_size = cfg.window_size;
  hw_cfg.gathering = cfg.gathering;
  return hw_cfg;
}

// A cycle-sim engine behind the facade: each process() runs its batch to
// quiescence, and the engine keeps every result it ever emitted.
template <typename HwEngine, Backend kBackend>
class HwAdapter final : public StreamJoinEngine {
 public:
  template <typename HwConfig>
  HwAdapter(const EngineConfig& cfg, const HwConfig& hw_cfg)
      : clock_mhz_(cfg.clock_mhz), engine_(hw_cfg) {
    engine_.set_record_injections(false);
    engine_.program(cfg.spec);
  }

  RunReport process(const std::vector<Tuple>& tuples) override {
    const std::uint64_t start = engine_.cycle();
    const std::size_t results_before = engine_.results().size();
    engine_.offer(tuples);
    engine_.run_to_quiescence(kMaxCyclesPerBatchTuple *
                              std::max<std::uint64_t>(tuples.size(), 1));
    RunReport report;
    report.tuples_processed = tuples.size();
    report.cycles = engine_.cycle() - start;
    report.elapsed_seconds =
        static_cast<double>(*report.cycles) / (clock_mhz_ * 1e6);
    report.results_emitted = engine_.results().size() - results_before;
    return report;
  }

  void prefill(const std::vector<Tuple>& tuples) override {
    engine_.prefill(tuples);
  }

  void program(const stream::JoinSpec& spec) override {
    engine_.program(spec);
  }

  std::vector<ResultTuple> take_results() override {
    return take_since(engine_.results(), taken_);
  }

  [[nodiscard]] Backend backend() const noexcept override { return kBackend; }
  [[nodiscard]] std::optional<hw::DesignStats> design_stats() const override {
    return engine_.design_stats();
  }
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const override {
    engine_.collect_metrics(registry, prefix);
  }

 private:
  double clock_mhz_;
  HwEngine engine_;
  std::size_t taken_ = 0;
};

class SwSplitJoinAdapter final : public StreamJoinEngine {
 public:
  explicit SwSplitJoinAdapter(const EngineConfig& cfg)
      : spec_(cfg.spec), dispatch_batch_(cfg.dispatch_batch) {
    sw::SplitJoinConfig sw_cfg;
    sw_cfg.num_cores = cfg.num_cores;
    sw_cfg.window_size = cfg.window_size;
    sw_cfg.collect_results = cfg.collect_results;
    sw_cfg.probe = cfg.probe;
    engine_ = std::make_unique<sw::SplitJoinEngine>(sw_cfg, spec_);
  }

  RunReport process(const std::vector<Tuple>& tuples) override {
    const sw::SwRunReport r =
        dispatch_batch_ > 0 ? engine_->process_batched(tuples, dispatch_batch_)
                            : engine_->process(tuples);
    RunReport report;
    report.tuples_processed = r.tuples_processed;
    report.results_emitted = r.results_emitted - last_emitted_;
    last_emitted_ = r.results_emitted;
    report.elapsed_seconds = r.elapsed_seconds;
    return report;
  }

  void prefill(const std::vector<Tuple>& tuples) override {
    engine_->prefill(tuples);
  }

  void program(const stream::JoinSpec& spec) override {
    // The software engine binds the spec at construction (each probe reads
    // it); rebuild preserving nothing — reprogramming software SplitJoin
    // mid-stream is out of the paper's scope.
    HAL_CHECK(false,
              "kSwSplitJoin does not support runtime re-programming; "
              "construct a new engine");
    (void)spec;
  }

  std::vector<ResultTuple> take_results() override {
    return engine_->take_results();
  }

  bool snapshot(WindowImage& out) override {
    out = WindowImage{};
    engine_->snapshot_state(out);
    out.backend = Backend::kSwSplitJoin;
    return true;
  }
  bool restore(const WindowImage& image) override {
    if (image.backend != Backend::kSwSplitJoin) return false;
    return engine_->restore_state(image);
  }

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kSwSplitJoin;
  }
  [[nodiscard]] std::optional<hw::DesignStats> design_stats() const override {
    return std::nullopt;
  }
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const override {
    engine_->collect_metrics(registry, prefix);
  }

 private:
  stream::JoinSpec spec_;
  std::size_t dispatch_batch_ = 0;
  std::unique_ptr<sw::SplitJoinEngine> engine_;
  std::uint64_t last_emitted_ = 0;
};

class SwHandshakeAdapter final : public StreamJoinEngine {
 public:
  explicit SwHandshakeAdapter(const EngineConfig& cfg)
      : dispatch_batch_(cfg.dispatch_batch) {
    sw::HandshakeJoinConfig sw_cfg;
    sw_cfg.num_cores = cfg.num_cores;
    sw_cfg.window_size = cfg.window_size;
    sw_cfg.probe = cfg.probe;
    engine_ = std::make_unique<sw::HandshakeJoinEngine>(sw_cfg, cfg.spec);
  }

  RunReport process(const std::vector<Tuple>& tuples) override {
    const sw::SwRunReport r =
        dispatch_batch_ > 0 ? engine_->process_batched(tuples, dispatch_batch_)
                            : engine_->process(tuples);
    RunReport report;
    report.tuples_processed = r.tuples_processed;
    report.results_emitted = r.results_emitted - last_emitted_;
    last_emitted_ = r.results_emitted;
    report.elapsed_seconds = r.elapsed_seconds;
    return report;
  }

  void prefill(const std::vector<Tuple>& tuples) override {
    HAL_CHECK(tuples.empty(),
              "kSwHandshake does not support prefill (chain layout is "
              "flow-dependent); stream the warmup instead");
  }

  void program(const stream::JoinSpec& spec) override {
    HAL_CHECK(false,
              "kSwHandshake does not support runtime re-programming; "
              "construct a new engine");
    (void)spec;
  }

  std::vector<ResultTuple> take_results() override {
    return engine_->results_since(taken_);
  }

  bool snapshot(WindowImage& out) override {
    out = WindowImage{};
    engine_->snapshot_state(out);
    out.backend = Backend::kSwHandshake;
    return true;
  }
  bool restore(const WindowImage& image) override {
    if (image.backend != Backend::kSwHandshake) return false;
    return engine_->restore_state(image);
  }

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kSwHandshake;
  }
  [[nodiscard]] std::optional<hw::DesignStats> design_stats() const override {
    return std::nullopt;
  }
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const override {
    engine_->collect_metrics(registry, prefix);
  }

 private:
  std::size_t dispatch_batch_ = 0;
  std::unique_ptr<sw::HandshakeJoinEngine> engine_;
  std::vector<std::size_t> taken_;  // per core: results already taken
  std::uint64_t last_emitted_ = 0;
};

class SwBatchAdapter final : public StreamJoinEngine {
 public:
  explicit SwBatchAdapter(const EngineConfig& cfg) {
    sw::BatchJoinConfig sw_cfg;
    sw_cfg.num_workers = cfg.num_cores;
    sw_cfg.window_size = cfg.window_size;
    sw_cfg.batch_size = std::min(cfg.batch_size, cfg.window_size);
    sw_cfg.probe = cfg.probe;
    // The kernel engine is batched by construction; dispatch_batch just
    // overrides the per-call granularity (capped by the window).
    dispatch_batch_ = std::min(cfg.dispatch_batch, cfg.window_size);
    engine_ = std::make_unique<sw::BatchJoinEngine>(sw_cfg, cfg.spec);
  }

  RunReport process(const std::vector<Tuple>& tuples) override {
    const sw::SwRunReport r =
        dispatch_batch_ > 0 ? engine_->process_batched(tuples, dispatch_batch_)
                            : engine_->process(tuples);
    RunReport report;
    report.tuples_processed = r.tuples_processed;
    report.results_emitted = r.results_emitted;
    report.elapsed_seconds = r.elapsed_seconds;
    return report;
  }

  void prefill(const std::vector<Tuple>& tuples) override {
    // The batch engine warms up by streaming: batching makes the fill
    // cheap enough that no state-injection shortcut is needed.
    (void)engine_->process(tuples);
    engine_->clear_results();
  }

  void program(const stream::JoinSpec& spec) override {
    HAL_CHECK(false,
              "kSwBatch does not support runtime re-programming; construct "
              "a new engine");
    (void)spec;
  }

  std::vector<ResultTuple> take_results() override {
    return engine_->take_results();
  }

  bool snapshot(WindowImage& out) override {
    out = WindowImage{};
    engine_->snapshot_state(out);
    out.backend = Backend::kSwBatch;
    return true;
  }
  bool restore(const WindowImage& image) override {
    if (image.backend != Backend::kSwBatch) return false;
    return engine_->restore_state(image);
  }

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kSwBatch;
  }
  [[nodiscard]] std::optional<hw::DesignStats> design_stats() const override {
    return std::nullopt;
  }
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const override {
    engine_->collect_metrics(registry, prefix);
  }

 private:
  std::size_t dispatch_batch_ = 0;
  std::unique_ptr<sw::BatchJoinEngine> engine_;
};

// Maps the flat facade config onto a cluster: key-hash sharding when the
// operator pins the key, otherwise the near-square split grid (rows×cols
// closest to square with rows·cols == shards).
std::unique_ptr<StreamJoinEngine> make_cluster_from_facade(
    const EngineConfig& cfg) {
  cluster::ClusterConfig ccfg;
  ccfg.window_size = cfg.window_size;
  ccfg.spec = cfg.spec;
  // dispatch_batch, when set, governs the shard transport granularity too:
  // one ingress batch = one Link message = one wire frame = one batched
  // worker dispatch.
  const std::size_t wire_batch =
      cfg.dispatch_batch > 0 ? cfg.dispatch_batch : cfg.batch_size;
  ccfg.transport.batch_size =
      std::max<std::size_t>(1, std::min<std::size_t>(wire_batch, 256));
  ccfg.worker = cfg;
  ccfg.worker.backend = cfg.cluster_worker_backend;
  // The cluster guards once, at its router ingress; per-worker guards
  // would double-shed, so the workers' template runs unguarded.
  ccfg.guard = cfg.guard;
  ccfg.worker.guard = guard::GuardConfig{};
  ccfg.elastic.track_key_load = cfg.cluster_track_key_load;
  if (cluster::key_hashable(cfg.spec)) {
    ccfg.partitioning = cluster::Partitioning::kKeyHash;
    ccfg.shards = cfg.cluster_shards;
  } else {
    ccfg.partitioning = cluster::Partitioning::kSplitGrid;
    std::uint32_t rows = 1;
    for (std::uint32_t d = 1; d * d <= cfg.cluster_shards; ++d) {
      if (cfg.cluster_shards % d == 0) rows = d;
    }
    ccfg.grid_rows = rows;
    ccfg.grid_cols = cfg.cluster_shards / rows;
  }
  return cluster::make_cluster_engine(ccfg);
}

}  // namespace

const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::kHwUniflow: return "hw-uniflow";
    case Backend::kHwBiflow: return "hw-biflow";
    case Backend::kSwSplitJoin: return "sw-splitjoin";
    case Backend::kSwHandshake: return "sw-handshake";
    case Backend::kSwBatch: return "sw-batch";
    case Backend::kCluster: return "cluster";
  }
  return "?";
}

obs::ObsSnapshot snapshot_run(const StreamJoinEngine& engine,
                              const RunReport& report, std::string label) {
  obs::MetricRegistry registry;
  engine.collect_metrics(registry, "engine.");

  // Result multisets are reproducible everywhere except the threaded
  // handshake chain (window semantics there depend on crossing/arrival
  // interleaving, so even the count races run to run).
  const obs::Stability result_stability =
      engine.backend() == Backend::kSwHandshake ? obs::Stability::kRuntime
                                                : obs::Stability::kDeterministic;
  registry.set_counter("run.tuples_processed", report.tuples_processed);
  registry.set_counter("run.results_emitted", report.results_emitted,
                       result_stability);
  if (report.cycles.has_value()) {
    registry.set_counter("run.cycles", *report.cycles);
    // Cycle-derived time is as reproducible as the cycle count itself.
    registry.set_gauge("run.elapsed_seconds", report.elapsed_seconds,
                       obs::Stability::kDeterministic);
  } else {
    registry.set_gauge("run.elapsed_seconds", report.elapsed_seconds,
                       obs::Stability::kRuntime);
  }

  if (label.empty()) label = to_string(engine.backend());
  return registry.snapshot(std::move(label));
}

std::unique_ptr<StreamJoinEngine> make_engine(const EngineConfig& config) {
  // Software backends get a guarded ingress (guard/guarded_engine.h) iff
  // the guard is compiled in and enabled — a disabled guard never even
  // constructs the decorator. The cluster guards at its own router
  // ingress; hardware backends are cycle-accurate models where admission
  // control would falsify the measured design, so they stay unguarded.
  const auto maybe_guard = [&config](std::unique_ptr<StreamJoinEngine> e)
      -> std::unique_ptr<StreamJoinEngine> {
    if (config.guard.enabled) {
      return std::make_unique<guard::GuardedEngine>(std::move(e),
                                                    config.guard);
    }
    return e;
  };
  switch (config.backend) {
    case Backend::kHwUniflow:
      return std::make_unique<
          HwAdapter<hw::UniflowEngine, Backend::kHwUniflow>>(
          config, uniflow_config(config));
    case Backend::kHwBiflow:
      return std::make_unique<HwAdapter<hw::BiflowEngine, Backend::kHwBiflow>>(
          config, biflow_config(config));
    case Backend::kSwSplitJoin:
      return maybe_guard(std::make_unique<SwSplitJoinAdapter>(config));
    case Backend::kSwHandshake:
      return maybe_guard(std::make_unique<SwHandshakeAdapter>(config));
    case Backend::kSwBatch:
      return maybe_guard(std::make_unique<SwBatchAdapter>(config));
    case Backend::kCluster:
      return make_cluster_from_facade(config);
  }
  HAL_ASSERT_MSG(false, "unknown backend");
  return nullptr;
}

}  // namespace hal::core
