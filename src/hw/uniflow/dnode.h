// DNode: the building block of the distribution network (§IV, Fig. 9).
//
// "DNode receives a tuple in its input port and broadcasts it to all its
// output ports. ... DNodes store incoming tuples as long as their internal
// buffer is not full. As output, each DNode sends out the stored tuples,
// one tuple in each clock cycle, provided the next DNodes are not full."
//
// The internal buffer is the input Fifo (depth 2 sustains one word per
// cycle). A word advances only when *all* downstream buffers can accept it,
// which is exactly the broadcast backpressure of the hardware design. The
// same class with fan-out N and a single level realizes the *lightweight*
// distribution network; a cascade with fan-out k realizes the *scalable*
// one.
//
// A DNode sleeps (sim/module.h) while its input is empty or its broadcast
// is stalled, and watches its input and every output, since a change to
// any of them can end either wait. The stall cycles it sleeps through are
// caught up from the clock.
#pragma once

#include <vector>

#include "common/assert.h"
#include "hw/common/word.h"
#include "sim/fifo.h"
#include "sim/module.h"

namespace hal::hw {

class DNode final : public sim::Module {
 public:
  DNode(std::string name, sim::Fifo<HwWord>& in,
        std::vector<sim::Fifo<HwWord>*> outs)
      : Module(std::move(name)), in_(in), outs_(std::move(outs)) {
    HAL_CHECK(!outs_.empty(), "DNode needs at least one output");
    watch(in_);
    for (auto* out : outs_) watch(*out);
  }

  void eval() override {
    stall_cycles_ += slept_stalls();
    stalled_ = false;
    if (!in_.can_pop()) {
      sleep();
      return;
    }
    for (const auto* out : outs_) {
      if (!out->can_push()) {  // broadcast backpressure
        ++stall_cycles_;
        stalled_ = true;
        stalled_at_ = now();
        sleep();
        return;
      }
    }
    const HwWord w = in_.pop();
    for (auto* out : outs_) out->push(w);
    ++forwarded_;
  }

  [[nodiscard]] std::size_t fan_out() const noexcept { return outs_.size(); }
  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  // Cycles a word was ready but a downstream buffer was full.
  [[nodiscard]] std::uint64_t stall_cycles() const noexcept {
    return stall_cycles_ + slept_stalls();
  }

 private:
  // Cycles slept since the last eval stalled: each would have stalled too.
  [[nodiscard]] std::uint64_t slept_stalls() const noexcept {
    return stalled_ ? now() - stalled_at_ - 1 : 0;
  }

  sim::Fifo<HwWord>& in_;
  std::vector<sim::Fifo<HwWord>*> outs_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t stall_cycles_ = 0;
  bool stalled_ = false;
  std::uint64_t stalled_at_ = 0;
};

}  // namespace hal::hw
