// Indexed structure-of-arrays sub-window: SoaWindow's storage and API
// with a hash-partitioned key index (KeyBucketIndex) layered on top and
// the probe loops routed through the hal::simd kernels.
//
// Two batched equi-probe paths, selected per window at construction
// (ProbePath, threaded down from the engine configs):
//   kIndexed — probe only the bucket the key hashes to: O(bucket+matches)
//     per probe instead of O(W). Matches are emitted in bucket order,
//     not storage order; windowed equi-join results are order-free
//     multisets and the deterministic obs tallies are sums, so this is
//     observationally identical (the differential suite pins it).
//   kScan    — full dense-lane scan through simd::probe_* (the PR-4 loop
//     shape, now explicitly vectorized); emission stays in storage order.
// The `*_scan_oracle` variants always run the plain scalar scan loop
// regardless of path or active ISA — the ground truth for property and
// fuzz tests.
//
// Not thread-safe (each join core owns its windows); the const probe
// methods reuse a mutable scratch buffer, so even concurrent reads of
// one window are not allowed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "simd/probe.h"
#include "stream/tuple.h"
#include "sw/key_bucket_index.h"
#include "sw/probe_path.h"

namespace hal::sw {

class IndexedSoaWindow {
 public:
  explicit IndexedSoaWindow(std::size_t capacity,
                            ProbePath path = ProbePath::kIndexed)
      : slots_(capacity),
        keys_(capacity, 0),
        index_(capacity),
        scratch_(capacity, 0),
        path_(path) {
    HAL_CHECK(capacity > 0, "sub-window capacity must be positive");
  }

  void insert(const stream::Tuple& t) {
    const std::uint32_t slot = static_cast<std::uint32_t>(write_pos_);
    if (size_ == slots_.size()) {
      // Overwriting the oldest resident: unhook its key first.
      index_.remove(keys_[write_pos_], slot);
    }
    slots_[write_pos_] = t;
    keys_[write_pos_] = t.key;
    index_.add(t.key, slot);
    write_pos_ = (write_pos_ + 1) % slots_.size();
    if (size_ < slots_.size()) ++size_;
  }

  // Logical index 0 = oldest resident tuple (age order, like SoaWindow).
  [[nodiscard]] const stream::Tuple& at(std::size_t i) const noexcept {
    HAL_ASSERT(i < size_);
    const std::size_t oldest = size_ < slots_.size() ? 0 : write_pos_;
    return slots_[(oldest + i) % slots_.size()];
  }

  [[nodiscard]] const stream::Tuple& oldest() const noexcept { return at(0); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] ProbePath path() const noexcept { return path_; }

  void clear() noexcept {
    size_ = 0;
    write_pos_ = 0;
    index_.clear();
  }

  // Bulk (re)load from an age-ordered tuple sequence — the batched path
  // of the recovery/elastic rebuild loops. Equivalent to clear() plus
  // insert() of every tuple in order (tuples beyond the capacity evict
  // the oldest, exactly like the circular store), but fills the dense
  // lanes first and rebuilds the bucket index in one exact-reserve pass
  // instead of hooking/unhooking per insert.
  void load(const stream::Tuple* tuples, std::size_t n) {
    const std::size_t keep = n < slots_.size() ? n : slots_.size();
    const stream::Tuple* src = tuples + (n - keep);
    for (std::size_t i = 0; i < keep; ++i) {
      slots_[i] = src[i];
      keys_[i] = src[i].key;
    }
    size_ = keep;
    write_pos_ = keep % slots_.size();
    index_.rebuild(keys_.data(), keep);
  }

  // Prefetch hint for a probe of `key` a few iterations ahead (kIndexed
  // bucket lanes; the kScan dense lane streams linearly and needs none).
  void prefetch_equal(std::uint32_t key) const noexcept {
    if (path_ == ProbePath::kIndexed) index_.prefetch(key);
  }

  // Storage-order access (slots [0, size) are all resident).
  [[nodiscard]] const std::uint32_t* keys() const noexcept {
    return keys_.data();
  }
  [[nodiscard]] const stream::Tuple& slot(std::size_t i) const noexcept {
    HAL_ASSERT(i < size_);
    return slots_[i];
  }

  [[nodiscard]] std::size_t count_equal(std::uint32_t key) const noexcept {
    if (path_ == ProbePath::kIndexed) {
      const std::size_t b = index_.bucket_of(key);
      return simd::probe_count(index_.bucket_keys(b), index_.bucket_size(b),
                               key);
    }
    return simd::probe_count(keys_.data(), size_, key);
  }

  // Equi-probe with materialization. kIndexed gathers the bucket's match
  // positions and emits via the slot ids; kScan gathers over the dense
  // lane (storage order). Returns the match count.
  template <typename Emit>
  std::size_t collect_equal(std::uint32_t key, Emit&& emit) const {
    if (path_ == ProbePath::kIndexed) {
      const std::size_t b = index_.bucket_of(key);
      const std::size_t hits =
          simd::probe_collect(index_.bucket_keys(b), index_.bucket_size(b),
                              key, scratch_.data());
      const std::uint32_t* bucket_slots = index_.bucket_slots(b);
      for (std::size_t j = 0; j < hits; ++j) {
        emit(slots_[bucket_slots[scratch_[j]]]);
      }
      return hits;
    }
    const std::size_t hits =
        simd::probe_collect(keys_.data(), size_, key, scratch_.data());
    for (std::size_t j = 0; j < hits; ++j) emit(slots_[scratch_[j]]);
    return hits;
  }

  // Generic-predicate scan in storage order (non-equi specs; identical to
  // SoaWindow::collect_matching — the index cannot help here).
  template <typename Pred, typename Emit>
  std::size_t collect_matching(Pred&& pred, Emit&& emit) const {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const stream::Tuple& candidate = slots_[i];
      if (pred(candidate)) {
        ++hits;
        emit(candidate);
      }
    }
    return hits;
  }

  // Scan oracles: the plain scalar loops of SoaWindow, untouched by
  // ProbePath and ISA dispatch. Property/fuzz tests compare against these.
  [[nodiscard]] std::size_t count_equal_scan_oracle(
      std::uint32_t key) const noexcept {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      hits += static_cast<std::size_t>(keys_[i] == key);
    }
    return hits;
  }

  template <typename Emit>
  std::size_t collect_equal_scan_oracle(std::uint32_t key,
                                        Emit&& emit) const {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (keys_[i] == key) {
        ++hits;
        emit(slots_[i]);
      }
    }
    return hits;
  }

 private:
  std::vector<stream::Tuple> slots_;
  std::vector<std::uint32_t> keys_;  // keys_[i] mirrors slots_[i].key
  KeyBucketIndex index_;
  mutable std::vector<std::uint32_t> scratch_;  // probe_collect landing pad
  std::size_t write_pos_ = 0;
  std::size_t size_ = 0;
  ProbePath path_;
};

}  // namespace hal::sw
