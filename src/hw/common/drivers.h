// Input driver and result sink: the simulated test bench around an engine.
//
// The WordDriver models the stream source feeding the design's input port
// (one word per cycle when the input buffer has room); the ResultSink
// models the consumer draining the design's output port. Both timestamp
// their transfers so engines can report injection-to-emission latency and
// input-side throughput, which is what the paper measures (§V: "input
// throughput", "time it takes to process and emit all results for a newly
// inserted tuple").
//
// Both sleep (sim/module.h) while they have nothing to move: the driver
// until enqueue() or a slot in its port, the sink until a result arrives.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "hw/common/word.h"
#include "sim/fifo.h"
#include "sim/module.h"
#include "sim/simulator.h"
#include "stream/tuple.h"

namespace hal::hw {

class WordDriver final : public sim::Module {
 public:
  WordDriver(std::string name, const sim::Simulator& sim,
             sim::Fifo<HwWord>& out)
      : Module(std::move(name)), sim_(sim), out_(out) {
    watch(out_);
  }

  void enqueue(HwWord w) {
    pending_.push_back(std::move(w));
    wake();
  }

  void eval() override {
    if (pending_.empty() || !out_.can_push()) {
      sleep();
      return;
    }
    const HwWord& w = pending_.front();
    if (record_injections_ && w.is_tuple()) {
      injection_cycles_[w.tuple.seq] = sim_.cycle();
    }
    last_push_cycle_ = sim_.cycle();
    ++words_pushed_;
    out_.push(w);
    pending_.pop_front();
  }

  [[nodiscard]] bool done() const noexcept { return pending_.empty(); }
  [[nodiscard]] std::uint64_t last_push_cycle() const noexcept {
    return last_push_cycle_;
  }
  [[nodiscard]] std::uint64_t words_pushed() const noexcept {
    return words_pushed_;
  }

  // Per-tuple injection timestamps (enabled by default; disable for large
  // throughput runs to save memory).
  void set_record_injections(bool on) noexcept { record_injections_ = on; }
  [[nodiscard]] bool has_injection_cycle(std::uint64_t seq) const {
    return injection_cycles_.contains(seq);
  }
  [[nodiscard]] std::uint64_t injection_cycle(std::uint64_t seq) const {
    return injection_cycles_.at(seq);
  }

 private:
  const sim::Simulator& sim_;
  sim::Fifo<HwWord>& out_;
  std::deque<HwWord> pending_;
  std::unordered_map<std::uint64_t, std::uint64_t> injection_cycles_;
  bool record_injections_ = true;
  std::uint64_t last_push_cycle_ = 0;
  std::uint64_t words_pushed_ = 0;
};

struct TimedResult {
  stream::ResultTuple result;
  std::uint64_t cycle = 0;
};

class ResultSink final : public sim::Module {
 public:
  ResultSink(std::string name, const sim::Simulator& sim,
             sim::Fifo<stream::ResultTuple>& in)
      : Module(std::move(name)), sim_(sim), in_(in) {
    watch(in_);
  }

  void eval() override {
    if (!in_.can_pop()) {
      sleep();
      return;
    }
    collected_.push_back(TimedResult{in_.pop(), sim_.cycle()});
  }

  [[nodiscard]] const std::vector<TimedResult>& collected() const noexcept {
    return collected_;
  }
  [[nodiscard]] std::uint64_t last_result_cycle() const noexcept {
    return collected_.empty() ? 0 : collected_.back().cycle;
  }
  void clear() noexcept { collected_.clear(); }

 private:
  const sim::Simulator& sim_;
  sim::Fifo<stream::ResultTuple>& in_;
  std::vector<TimedResult> collected_;
};

}  // namespace hal::hw
