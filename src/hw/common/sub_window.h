// Sub-window storage: the BRAM-backed circular buffer inside a join core.
//
// Each join core owns one sub-window per stream (Figs. 10/11). Insertion
// overwrites the oldest entry once full (count-based sliding window); the
// processing core reads one slot per clock cycle (the FSM enforces the
// single-port access rate, this class only provides the storage).
//
// The cores read it on the simulator's per-cycle path, so no access
// divides: ring positions wrap by compare-and-subtract.
//
// Beside the slots, insert() keeps a dense key lane (one uint32_t per slot,
// the layout of the software engines' SoA windows), so an equi-join core's
// skip-ahead search (find_key) asks simd::probe_count whether a stretch of
// the ring holds its key and searches only a stretch that does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "simd/probe.h"
#include "stream/tuple.h"

namespace hal::hw {

class SubWindow {
 public:
  explicit SubWindow(std::size_t capacity)
      : slots_(capacity), keys_(capacity) {
    HAL_CHECK(capacity > 0, "sub-window capacity must be positive");
  }

  void insert(const stream::Tuple& t) noexcept {
    slots_[write_pos_] = t;
    keys_[write_pos_] = t.key;
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

  // find_if for `tuple.key == key`, on the key lane. [from, last) covers
  // at most two contiguous runs of the ring; each is gated in blocks of
  // kGateKeys by simd::probe_count, and only a block that holds the key is
  // searched. The blocks bound a call's work by the distance to the match
  // plus one block, however many matches follow it.
  [[nodiscard]] std::size_t find_key(std::size_t from, std::size_t last,
                                     std::uint32_t key) const {
    HAL_ASSERT(from <= last && last <= size_);
    const std::size_t start = slot(from);
    const std::size_t n = last - from;
    const std::size_t first = std::min(n, keys_.size() - start);
    const std::size_t hit = find_in_run(start, first, key);
    if (hit < first) return from + hit;
    return from + first + find_in_run(0, n - first, key);
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

  static constexpr std::size_t kGateKeys = 256;

  // Offset of the first `key` in keys_[begin, begin + n), or n.
  [[nodiscard]] std::size_t find_in_run(std::size_t begin, std::size_t n,
                                        std::uint32_t key) const {
    const std::uint32_t* run = keys_.data() + begin;
    for (std::size_t off = 0; off < n; off += kGateKeys) {
      const std::size_t len = std::min(kGateKeys, n - off);
      if (simd::probe_count(run + off, len, key) != 0) {
        return static_cast<std::size_t>(
            std::find(run + off, run + off + len, key) - run);
      }
    }
    return n;
  }

  std::vector<stream::Tuple> slots_;
  std::vector<std::uint32_t> keys_;
  std::size_t write_pos_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hal::hw
