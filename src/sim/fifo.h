// Registered single-producer/single-consumer FIFO link between modules.
//
// Models the ready/valid-handshaked pipeline buffers of the hardware design
// (e.g., a DNode's internal buffer, a join core's Fetcher). Occupancy
// checks (`can_push`, `can_pop`) always reflect the state at the start of
// the cycle, exactly like a synchronous FIFO whose `full`/`empty` flags are
// registered. Consequences that mirror real hardware:
//
//   * A capacity-1 FIFO can only sustain one transfer every two cycles
//     (full flag clears a cycle after the pop).
//   * A capacity-2 FIFO (a "skid buffer") sustains one transfer per cycle —
//     this is why DNodes/GNodes use depth-2 buffers (§IV: "DNodes store
//     incoming tuples as long as their internal buffer is not full",
//     one tuple out per clock cycle).
//
// At most one push and one pop may be staged per cycle (SPSC, as in the
// modeled hardware where each link has one driver).
//
// A Fifo is a Channel (module.h): push() and pop() queue it for the serial
// kernel's commit phase, and a commit that applies either wakes the modules
// that watch it. A FIFO has nothing to evaluate, so it sleeps for good on
// its first eval(). Pushes and commits from outside the kernel (tests,
// bench harnesses) take the same path, so they wake watchers too.
#pragma once

#include <deque>
#include <optional>

#include "common/assert.h"
#include "sim/module.h"

namespace hal::sim {

template <typename T>
class Fifo final : public Channel {
 public:
  Fifo(std::string name, std::size_t capacity)
      : Channel(std::move(name)), capacity_(capacity) {
    HAL_CHECK(capacity_ > 0, "fifo capacity must be positive");
  }

  // -- producer interface (eval phase) --
  [[nodiscard]] bool can_push() const noexcept {
    return data_.size() < capacity_;
  }
  void push(T value) {
    HAL_ASSERT_MSG(can_push(), "push on full fifo");
    HAL_ASSERT_MSG(!staged_push_.has_value(), "double push in one cycle");
    staged_push_ = std::move(value);
    stage();
  }

  // -- consumer interface (eval phase) --
  [[nodiscard]] bool can_pop() const noexcept { return !data_.empty(); }
  [[nodiscard]] const T& front() const {
    HAL_ASSERT_MSG(can_pop(), "front on empty fifo");
    return data_.front();
  }
  T pop() {
    HAL_ASSERT_MSG(can_pop(), "pop on empty fifo");
    HAL_ASSERT_MSG(!staged_pop_, "double pop in one cycle");
    staged_pop_ = true;
    stage();
    return data_.front();
  }

  // -- observers --
  // Committed content at offset i from the front (0 = next to pop). Used
  // where the modeled hardware exposes a buffer's contents to a scan (the
  // bi-flow outgoing buffers are part of the window memory bank).
  [[nodiscard]] const T& peek(std::size_t i) const {
    HAL_ASSERT(i < data_.size());
    return data_[i];
  }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  // Maximum committed occupancy observed since construction. Deterministic
  // (a function of the cycle-accurate schedule).
  [[nodiscard]] std::size_t high_water() const noexcept {
    return high_water_;
  }

  void eval() override { sleep(); }

  void commit() override {
    if (!staged_pop_ && !staged_push_.has_value()) return;
    if (staged_pop_) {
      data_.pop_front();
      staged_pop_ = false;
    }
    if (staged_push_.has_value()) {
      data_.push_back(std::move(*staged_push_));
      staged_push_.reset();
      HAL_ASSERT(data_.size() <= capacity_);
      if (data_.size() > high_water_) high_water_ = data_.size();
    }
    changed();
  }

 private:
  std::size_t capacity_;
  std::deque<T> data_;
  std::optional<T> staged_push_;
  bool staged_pop_ = false;
  std::size_t high_water_ = 0;
};

}  // namespace hal::sim
