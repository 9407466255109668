// GNode: the building block of the result gathering network (§IV, Fig. 9).
//
// "Each GNode collects resulting tuples from two sources connected to its
// two upper ports using a Toggle Grant mechanism that toggles the
// collection permission for its previous nodes in each clock cycle. ...
// The destination (next) GNode simply toggles this permission each cycle
// without the need for any special control unit."
//
// With two inputs this is exactly the paper's toggle grant (each source
// drains once every two cycles). Instantiated with N inputs it realizes
// the *lightweight* gathering network's round-robin collection "from join
// cores, one after another", whose O(N) polling latency the paper reports
// as the dominant cost at large core counts. The grant pointer advances
// every cycle unconditionally — there is deliberately no handshake — so it
// is the clock modulo the fan-in, which lets a GNode sleep (sim/module.h)
// while every input is empty.
#pragma once

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "sim/fifo.h"
#include "sim/module.h"
#include "stream/tuple.h"

namespace hal::hw {

class GNode final : public sim::Module {
 public:
  GNode(std::string name, std::vector<sim::Fifo<stream::ResultTuple>*> ins,
        sim::Fifo<stream::ResultTuple>& out)
      : Module(std::move(name)), ins_(std::move(ins)), out_(out) {
    HAL_CHECK(!ins_.empty(), "GNode needs at least one input");
    for (auto* in : ins_) watch(*in);
  }

  void eval() override {
    auto* granted = ins_[now() % ins_.size()];
    if (granted->can_pop()) {
      if (out_.can_push()) {
        out_.push(granted->pop());
        ++forwarded_;
      } else {
        ++stall_cycles_;  // granted source ready, downstream full
      }
    } else if (std::none_of(ins_.begin(), ins_.end(),
                            [](const auto* in) { return in->can_pop(); })) {
      sleep();
    }
  }

  [[nodiscard]] std::size_t fan_in() const noexcept { return ins_.size(); }
  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  // Cycles the granted input held a result but the downstream link was
  // full.
  [[nodiscard]] std::uint64_t stall_cycles() const noexcept {
    return stall_cycles_;
  }

 private:
  std::vector<sim::Fifo<stream::ResultTuple>*> ins_;
  sim::Fifo<stream::ResultTuple>& out_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t stall_cycles_ = 0;
};

}  // namespace hal::hw
