// OP-Chain pipeline engine: runtime-programmable selection cores in series
// ahead of a parallel uni-flow join stage, all on the cycle simulator.
//
// This is the hardware realization of an FQP query shape like Fig. 7's
// σ(Customer) ⋈ Product: selections execute at line rate on the data path
// (dropping tuples before they reach the window scans), the join stage is
// the Fig. 9 architecture. Selection pushdown multiplies the join stage's
// effective capacity by 1/selectivity — the cycle-accurate counterpart of
// the co-placement argument in hal::dist.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/common/drivers.h"
#include "hw/common/word.h"
#include "hw/model/design_stats.h"
#include "hw/opchain/select_core.h"
#include "hw/uniflow/dnode.h"
#include "hw/uniflow/gnode.h"
#include "hw/uniflow/hash_join_core.h"
#include "hw/uniflow/join_core.h"
#include "sim/simulator.h"

namespace hal::hw {

struct OpChainConfig {
  std::uint32_t num_select_cores = 1;
  // The join stage (cores, window, networks, algorithm).
  struct {
    std::uint32_t num_cores = 4;
    std::size_t window_size = 1024;
    NetworkKind distribution = NetworkKind::kScalable;
    NetworkKind gathering = NetworkKind::kScalable;
    std::uint32_t fanout = 2;
    JoinAlgorithm algorithm = JoinAlgorithm::kNestedLoop;
  } join;
  std::size_t link_depth = 2;
  // Simulation-kernel knobs (host-side execution only; never changes the
  // simulated design or any cycle count). threads=1 is the serial kernel.
  sim::SimConfig sim;
};

class OpChainEngine {
 public:
  explicit OpChainEngine(OpChainConfig cfg);

  // Programs selection core `core_id` (0 = first on the path). Takes
  // effect in stream order relative to offered tuples.
  void program_select(std::uint32_t core_id, const SelectSpec& spec);
  // Programs the join operator on every join core (broadcast target).
  void program_join(const stream::JoinSpec& spec);

  void offer(const stream::Tuple& t) { driver_->enqueue(make_tuple_word(t)); }
  void offer(const std::vector<stream::Tuple>& tuples) {
    for (const auto& t : tuples) offer(t);
  }

  void step(std::uint64_t cycles = 1);
  std::uint64_t run_to_quiescence(std::uint64_t max_cycles,
                                  bool require_quiescent = true);
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] std::uint64_t cycle() const { return sim_.cycle(); }
  [[nodiscard]] std::size_t module_count() const {
    return sim_.module_count();
  }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] const std::vector<TimedResult>& results() const {
    return sink_->collected();
  }
  [[nodiscard]] std::vector<stream::ResultTuple> result_tuples() const;
  [[nodiscard]] bool input_drained() const { return driver_->done(); }
  [[nodiscard]] std::uint64_t last_injection_cycle() const {
    return driver_->last_push_cycle();
  }
  void set_record_injections(bool on) { driver_->set_record_injections(on); }

  [[nodiscard]] const OpChainConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] DesignStats design_stats() const noexcept { return stats_; }
  [[nodiscard]] const SelectCore& select_core(std::size_t i) const {
    return *select_cores_.at(i);
  }
  [[nodiscard]] const IUniflowCore& join_core(std::size_t i) const {
    return *join_cores_.at(i);
  }

 private:
  sim::Fifo<HwWord>& new_word_fifo(std::string name);
  sim::Fifo<stream::ResultTuple>& new_result_fifo(std::string name);

  OpChainConfig cfg_;
  DesignStats stats_;
  sim::Simulator sim_;

  std::vector<std::unique_ptr<sim::Fifo<HwWord>>> word_fifos_;
  std::vector<std::unique_ptr<sim::Fifo<stream::ResultTuple>>> result_fifos_;
  std::vector<std::unique_ptr<SelectCore>> select_cores_;
  std::vector<std::unique_ptr<DNode>> dnodes_;
  std::vector<std::unique_ptr<GNode>> gnodes_;
  std::vector<std::unique_ptr<IUniflowCore>> join_cores_;
  std::unique_ptr<WordDriver> driver_;
  std::unique_ptr<ResultSink> sink_;
};

}  // namespace hal::hw
