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
//
// Storage is a fixed ring of `capacity` slots (head + size), allocated once:
// a staged push writes the free slot behind the committed entries, which no
// observer reads before the commit that counts it, and a commit only moves
// indices. A fabric commits a few FIFOs every simulated cycle, so this path
// allocates nothing and never divides.
#pragma once

#include <vector>

#include "common/assert.h"
#include "sim/module.h"

namespace hal::sim {

template <typename T>
class Fifo final : public Channel {
 public:
  Fifo(std::string name, std::size_t capacity)
      : Channel(std::move(name)), ring_(capacity) {
    HAL_CHECK(capacity > 0, "fifo capacity must be positive");
  }

  // -- producer interface (eval phase) --
  [[nodiscard]] bool can_push() const noexcept {
    return size_ < ring_.size();
  }
  void push(T value) {
    HAL_ASSERT_MSG(can_push(), "push on full fifo");
    HAL_ASSERT_MSG(!staged_push_, "double push in one cycle");
    ring_[slot(size_)] = std::move(value);
    staged_push_ = true;
    stage();
  }

  // -- consumer interface (eval phase) --
  [[nodiscard]] bool can_pop() const noexcept { return size_ > 0; }
  [[nodiscard]] const T& front() const {
    HAL_ASSERT_MSG(can_pop(), "front on empty fifo");
    return ring_[head_];
  }
  T pop() {
    HAL_ASSERT_MSG(can_pop(), "pop on empty fifo");
    HAL_ASSERT_MSG(!staged_pop_, "double pop in one cycle");
    staged_pop_ = true;
    stage();
    return ring_[head_];
  }

  // -- observers --
  // Committed content at offset i from the front (0 = next to pop). Used
  // where the modeled hardware exposes a buffer's contents to a scan (the
  // bi-flow outgoing buffers are part of the window memory bank).
  [[nodiscard]] const T& peek(std::size_t i) const {
    HAL_ASSERT(i < size_);
    return ring_[slot(i)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  // Maximum committed occupancy observed since construction. Deterministic
  // (a function of the cycle-accurate schedule).
  [[nodiscard]] std::size_t high_water() const noexcept {
    return high_water_;
  }

  void eval() override { sleep(); }

  void commit() override {
    if (!staged_pop_ && !staged_push_) return;
    if (staged_pop_) {
      if (++head_ == ring_.size()) head_ = 0;
      --size_;
      staged_pop_ = false;
    }
    if (staged_push_) {
      ++size_;
      staged_push_ = false;
      HAL_ASSERT(size_ <= ring_.size());
      if (size_ > high_water_) high_water_ = size_;
    }
    changed();
  }

 private:
  // Ring slot at offset i < capacity from the front; offset size() is the
  // free slot a push writes.
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    const std::size_t s = head_ + i;
    return s < ring_.size() ? s : s - ring_.size();
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool staged_push_ = false;
  bool staged_pop_ = false;
  std::size_t high_water_ = 0;
};

}  // namespace hal::sim
