// Sub-window storage: the BRAM-backed circular buffer inside a join core.
//
// Each join core owns one sub-window per stream (Figs. 10/11). Insertion
// overwrites the oldest entry once full (count-based sliding window); the
// processing core reads one slot per clock cycle (the FSM enforces the
// single-port access rate, this class only provides the storage).
//
// The cores read it on the simulator's per-cycle path, so no access
// divides: ring positions wrap by compare-and-subtract.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "stream/tuple.h"

namespace hal::hw {

class SubWindow {
 public:
  explicit SubWindow(std::size_t capacity) : slots_(capacity) {
    HAL_CHECK(capacity > 0, "sub-window capacity must be positive");
  }

  void insert(const stream::Tuple& t) noexcept {
    slots_[write_pos_] = t;
    if (++write_pos_ == slots_.size()) write_pos_ = 0;
    if (size_ < slots_.size()) ++size_;
  }

  // Logical index 0 = oldest resident tuple.
  [[nodiscard]] const stream::Tuple& at(std::size_t i) const noexcept {
    HAL_ASSERT(i < size_);
    return slots_[slot(i)];
  }

  // The first logical index in [from, last) whose tuple satisfies `pred`,
  // or `last` if none does: one pass over the ring.
  template <typename Pred>
  [[nodiscard]] std::size_t find_if(std::size_t from, std::size_t last,
                                    Pred pred) const {
    HAL_ASSERT(from <= last && last <= size_);
    std::size_t s = slot(from);
    for (std::size_t i = from; i < last; ++i) {
      if (pred(slots_[s])) return i;
      if (++s == slots_.size()) s = 0;
    }
    return last;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  void clear() noexcept {
    size_ = 0;
    write_pos_ = 0;
  }

 private:
  // Ring slot of logical index i (< capacity): the oldest entry sits at
  // write_pos_ once the ring is full, at 0 before.
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    const std::size_t s = (size_ < slots_.size() ? 0 : write_pos_) + i;
    return s < slots_.size() ? s : s - slots_.size();
  }

  std::vector<stream::Tuple> slots_;
  std::size_t write_pos_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hal::hw
