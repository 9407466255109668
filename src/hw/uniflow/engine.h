// Top-level uni-flow parallel stream join (Fig. 9): distribution network →
// join cores → result gathering network, assembled over the cycle
// simulator.
//
// The engine owns every module and the Simulator; callers interact through
// tuples in / results out plus cycle-level observers, and the model layer
// consumes `design_stats()` for frequency / resource / power estimates.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/common/drivers.h"
#include "hw/common/word.h"
#include "hw/model/design_stats.h"
#include "hw/uniflow/dnode.h"
#include "hw/uniflow/gnode.h"
#include "hw/uniflow/hash_join_core.h"
#include "hw/uniflow/join_core.h"
#include "obs/metrics.h"
#include "sim/fifo.h"
#include "sim/simulator.h"
#include "stream/join_spec.h"
#include "stream/tuple.h"

namespace hal::hw {

struct UniflowConfig {
  std::uint32_t num_cores = 4;
  // Per-stream sliding window size, summed across all join cores. Must be
  // a multiple of num_cores.
  std::size_t window_size = 1024;
  NetworkKind distribution = NetworkKind::kScalable;
  NetworkKind gathering = NetworkKind::kScalable;
  std::uint32_t fanout = 2;     // DNode fan-out in the scalable tree
  std::size_t link_depth = 2;   // pipeline buffer depth of every link
  // kHash accelerates pure key equi-joins (O(1+matches) per tuple instead
  // of O(W/N)) at the cost of an index memory bank per sub-window.
  JoinAlgorithm algorithm = JoinAlgorithm::kNestedLoop;
  // Simulation-kernel knobs (host-side execution only; never changes the
  // simulated design or any cycle count). threads=1 is the serial kernel.
  sim::SimConfig sim;
};

class UniflowEngine {
 public:
  explicit UniflowEngine(UniflowConfig cfg);

  // Enqueues the two-segment operator instruction (runtime programming;
  // takes effect in stream order relative to offered tuples).
  void program(const stream::JoinSpec& spec);

  void offer(const stream::Tuple& t);
  void offer(const std::vector<stream::Tuple>& tuples);

  // Warm-start: loads `tuples` into the sliding windows (round-robin
  // storage, arrival order preserved) as if they had streamed through a
  // quiescent design, without spending simulation cycles. Benches use this
  // to reach the steady state the paper measures in (full windows) for
  // window sizes where simulating the fill would take hundreds of millions
  // of cycles. Requires a programmed, quiescent engine.
  void prefill(const std::vector<stream::Tuple>& tuples);

  // Advance the clock.
  void step(std::uint64_t cycles = 1);

  // Run until the design is quiescent (input drained, controllers idle,
  // all pipeline buffers empty) or `max_cycles` elapse. Returns the number
  // of cycles stepped; asserts on timeout if `require_quiescent`.
  std::uint64_t run_to_quiescence(std::uint64_t max_cycles,
                                  bool require_quiescent = true);

  [[nodiscard]] bool quiescent() const;

  // -- observers -----------------------------------------------------------
  [[nodiscard]] std::uint64_t cycle() const { return sim_.cycle(); }
  [[nodiscard]] std::size_t module_count() const {
    return sim_.module_count();
  }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] const std::vector<TimedResult>& results() const {
    return sink_->collected();
  }
  void clear_results() { sink_->clear(); }
  [[nodiscard]] std::vector<stream::ResultTuple> result_tuples() const;

  [[nodiscard]] bool input_drained() const { return driver_->done(); }
  [[nodiscard]] std::uint64_t last_injection_cycle() const {
    return driver_->last_push_cycle();
  }
  [[nodiscard]] std::uint64_t injection_cycle(std::uint64_t seq) const {
    return driver_->injection_cycle(seq);
  }
  void set_record_injections(bool on) { driver_->set_record_injections(on); }
  [[nodiscard]] std::uint64_t last_result_cycle() const {
    return sink_->last_result_cycle();
  }

  [[nodiscard]] const UniflowConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] DesignStats design_stats() const noexcept { return stats_; }
  [[nodiscard]] const IUniflowCore& core(std::size_t i) const {
    return *cores_.at(i);
  }
  [[nodiscard]] std::uint64_t total_probes() const;

  // Publishes cycle counts, per-core probe/match counters, network
  // stall cycles and per-FIFO occupancy high-water under `prefix`. All
  // values are deterministic (cycle-accurate simulation).
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

 private:
  sim::Fifo<HwWord>& new_word_fifo(std::string name);
  sim::Fifo<stream::ResultTuple>& new_result_fifo(std::string name);

  UniflowConfig cfg_;
  DesignStats stats_;
  sim::Simulator sim_;

  // Ownership: modules are appended in construction order; the Simulator
  // holds non-owning pointers.
  std::vector<std::unique_ptr<sim::Fifo<HwWord>>> word_fifos_;
  std::vector<std::unique_ptr<sim::Fifo<stream::ResultTuple>>> result_fifos_;
  std::vector<std::unique_ptr<DNode>> dnodes_;
  std::vector<std::unique_ptr<GNode>> gnodes_;
  std::vector<std::unique_ptr<IUniflowCore>> cores_;
  std::unique_ptr<WordDriver> driver_;
  std::unique_ptr<ResultSink> sink_;
};

}  // namespace hal::hw
