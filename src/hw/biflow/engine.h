// Top-level bi-flow parallel stream join: a linear chain of handshake-join
// cores (Fig. 8a) with R entering from the left, S from the right, and a
// result gathering network identical to the uni-flow engine's.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hw/biflow/biflow_core.h"
#include "hw/biflow/handshake_channel.h"
#include "hw/common/drivers.h"
#include "hw/model/design_stats.h"
#include "hw/uniflow/gnode.h"
#include "obs/metrics.h"
#include "sim/fifo.h"
#include "sim/simulator.h"
#include "stream/join_spec.h"
#include "stream/tuple.h"

namespace hal::hw {

struct BiflowConfig {
  std::uint32_t num_cores = 4;
  // Per-stream sliding window size summed across cores; multiple of
  // num_cores.
  std::size_t window_size = 1024;
  NetworkKind gathering = NetworkKind::kLightweight;
  BiflowCosts costs;
  std::size_t link_depth = 2;        // result links
  std::size_t outgoing_capacity = 16;  // eviction buffer per direction
  // Simulation-kernel knobs (host-side execution only; never changes the
  // simulated design or any cycle count). threads=1 is the serial kernel.
  sim::SimConfig sim;
};

// Feeds one chain end with the tuples of one stream, one per cycle when
// the entry port is free.
class TupleDriver final : public sim::Module {
 public:
  TupleDriver(std::string name, const sim::Simulator& sim,
              sim::Fifo<stream::Tuple>& out)
      : Module(std::move(name)), sim_(sim), out_(out) {}

  void enqueue(const stream::Tuple& t) { pending_.push_back(t); }

  void eval() override {
    if (pending_.empty() || !out_.can_push()) return;
    if (record_injections_) {
      injection_cycles_[pending_.front().seq] = sim_.cycle();
    }
    last_push_cycle_ = sim_.cycle();
    out_.push(pending_.front());
    pending_.pop_front();
  }

  [[nodiscard]] bool done() const noexcept { return pending_.empty(); }
  [[nodiscard]] std::uint64_t last_push_cycle() const noexcept {
    return last_push_cycle_;
  }
  void set_record_injections(bool on) noexcept { record_injections_ = on; }
  [[nodiscard]] bool has_injection_cycle(std::uint64_t seq) const {
    return injection_cycles_.contains(seq);
  }
  [[nodiscard]] std::uint64_t injection_cycle(std::uint64_t seq) const {
    return injection_cycles_.at(seq);
  }

 private:
  const sim::Simulator& sim_;
  sim::Fifo<stream::Tuple>& out_;
  std::deque<stream::Tuple> pending_;
  std::unordered_map<std::uint64_t, std::uint64_t> injection_cycles_;
  bool record_injections_ = true;
  std::uint64_t last_push_cycle_ = 0;
};

class BiflowEngine {
 public:
  explicit BiflowEngine(BiflowConfig cfg);

  // Programs the join operator on every core. The chain must be quiescent
  // (bi-flow reprogramming requires draining — exactly the §I pain point
  // of static hardware designs that FQP's dynamic model addresses).
  void program(const stream::JoinSpec& spec);

  void offer(const stream::Tuple& t);
  void offer(const std::vector<stream::Tuple>& tuples);

  // Warm-start: loads the newest `window_size` tuples of each stream into
  // the chain's sub-windows with the correct age layout (newest R at core
  // 0, newest S at core N-1), as if they had flowed through. Requires a
  // quiescent engine with no tuples streamed yet.
  void prefill(const std::vector<stream::Tuple>& tuples);

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
  [[nodiscard]] bool input_drained() const {
    return r_driver_->done() && s_driver_->done();
  }
  [[nodiscard]] std::uint64_t last_injection_cycle() const;
  [[nodiscard]] std::uint64_t injection_cycle(std::uint64_t seq) const;
  void set_record_injections(bool on);
  [[nodiscard]] std::uint64_t last_result_cycle() const {
    return sink_->last_result_cycle();
  }

  [[nodiscard]] const BiflowConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] DesignStats design_stats() const noexcept { return stats_; }
  [[nodiscard]] const BiflowJoinCore& core(std::size_t i) const {
    return *cores_.at(i);
  }
  [[nodiscard]] BiflowJoinCore& mutable_core(std::size_t i) {
    return *cores_.at(i);
  }
  [[nodiscard]] std::uint64_t total_probes() const;

  // Publishes cycle counts, per-core probe/match/expiry counters, channel
  // crossings and per-FIFO occupancy high-water under `prefix`. All
  // values are deterministic (cycle-accurate simulation).
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

 private:
  sim::Fifo<stream::Tuple>& new_tuple_fifo(std::string name,
                                           std::size_t capacity);
  sim::Fifo<stream::ResultTuple>& new_result_fifo(std::string name);

  BiflowConfig cfg_;
  DesignStats stats_;
  sim::Simulator sim_;
  bool programmed_ = false;

  std::vector<std::unique_ptr<sim::Fifo<stream::Tuple>>> tuple_fifos_;
  std::vector<std::unique_ptr<sim::Fifo<stream::ResultTuple>>> result_fifos_;
  std::vector<std::unique_ptr<BiflowJoinCore>> cores_;
  std::vector<std::unique_ptr<HandshakeChannel>> channels_;
  std::vector<std::unique_ptr<GNode>> gnodes_;
  std::unique_ptr<TupleDriver> r_driver_;
  std::unique_ptr<TupleDriver> s_driver_;
  std::unique_ptr<ResultSink> sink_;
};

}  // namespace hal::hw
