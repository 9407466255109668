// Indexed sliding window over fqp::Records — the runtime state unit of
// hal::serve's SharedWindowStore.
//
// Mirrors sw::IndexedSoaWindow (circular slot store + dense uint32 key
// lane + KeyBucketIndex, probes through the hal::simd kernels) but holds
// multi-attribute FQP records keyed by one schema field: the join field
// of the queries sharing the window. All queries over the same (input
// sub-plan, join field, window size) triple probe this one window instead
// of N private copies — the state-sharing half of the Rete-like global
// plan (plan-time sharing is fqp::share_common_subplans).
//
// Probe paths match sw/probe_path.h: kIndexed emits matches in bucket
// order, kScan in age order. Windowed equi-join outputs are order-free
// multisets, so both are observationally identical; collect_equal_scan_
// oracle is the plain scalar loop the serve differential tests compare
// against. Not thread-safe (the serve engine is single-threaded by
// design, like the topology interpreter it replaces).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "fqp/record.h"
#include "simd/probe.h"
#include "sw/key_bucket_index.h"
#include "sw/probe_path.h"

namespace hal::serve {

class RecordWindow {
 public:
  RecordWindow(std::size_t capacity, std::size_t key_field,
               sw::ProbePath path = sw::ProbePath::kIndexed)
      : slots_(capacity),
        keys_(capacity, 0),
        index_(capacity),
        scratch_(capacity, 0),
        key_field_(key_field),
        path_(path) {
    HAL_CHECK(capacity > 0, "record window capacity must be positive");
  }

  void insert(const fqp::Record& r) {
    const std::uint32_t key = r.at(key_field_);
    const std::uint32_t slot = static_cast<std::uint32_t>(write_pos_);
    if (size_ == slots_.size()) {
      index_.remove(keys_[write_pos_], slot);
    }
    slots_[write_pos_] = r;
    keys_[write_pos_] = key;
    index_.add(key, slot);
    write_pos_ = (write_pos_ + 1) % slots_.size();
    if (size_ < slots_.size()) ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t key_field() const noexcept { return key_field_; }
  [[nodiscard]] sw::ProbePath path() const noexcept { return path_; }

  // Prefetch hint for a probe of `key` a few arrivals ahead (bucket
  // lanes; no-op on the kScan path).
  void prefetch_equal(std::uint32_t key) const noexcept {
    if (path_ == sw::ProbePath::kIndexed) index_.prefetch(key);
  }

  // Once-per-arrival insert gate for windows shared by several join
  // nodes: the first consumer to evaluate claims the arrival (tick > 0,
  // strictly increasing) and performs the inserts; later consumers see
  // false and skip — their producing child's output is identical, so the
  // inserts already happened.
  bool claim_arrival(std::uint64_t tick) noexcept {
    if (tick == last_arrival_tick_) return false;
    last_arrival_tick_ = tick;
    return true;
  }

  // Equi-probe: emit(record) for every resident whose key field equals
  // `key`. Returns the match count.
  template <typename Emit>
  std::size_t collect_equal(std::uint32_t key, Emit&& emit) const {
    if (path_ == sw::ProbePath::kIndexed) {
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

  // Scalar scan ground truth, untouched by ProbePath and ISA dispatch.
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
  std::vector<fqp::Record> slots_;
  std::vector<std::uint32_t> keys_;  // keys_[i] = slots_[i].at(key_field_)
  sw::KeyBucketIndex index_;
  mutable std::vector<std::uint32_t> scratch_;
  std::size_t key_field_;
  std::size_t write_pos_ = 0;
  std::size_t size_ = 0;
  std::uint64_t last_arrival_tick_ = 0;
  sw::ProbePath path_;
};

}  // namespace hal::serve
