// Hash-partitioned key index over a circular slot store (PanJoin-style
// sub-window indexing, PAPERS.md).
//
// The index maintains, per hash bucket, a dense `uint32_t` key lane plus
// the parallel slot ids — the same SoA shape the probe kernels want, just
// restricted to one bucket. An equi-probe then runs `simd::probe_*` over
// ~W/B keys instead of W. Buckets are assigned with the Fibonacci hash
// the cluster keyspace uses, masked to a power-of-two bucket count.
//
// Removal (a slot being overwritten by the circular window) is O(1):
// `pos_of_slot_` remembers where each resident slot sits inside its
// bucket, and removal swaps with the bucket's last element.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "simd/probe.h"

namespace hal::sw {

class KeyBucketIndex {
 public:
  // `capacity` = number of slots in the window this index mirrors.
  // Bucket count ≈ capacity / kTargetFill, clamped to a power of two, so
  // a full uniform window keeps ~kTargetFill residents per bucket.
  explicit KeyBucketIndex(std::size_t capacity)
      : bucket_mask_(bucket_count_for(capacity) - 1),
        buckets_(bucket_mask_ + 1),
        pos_of_slot_(capacity, 0) {
    HAL_CHECK(capacity > 0, "index capacity must be positive");
    // Reserve 2× the uniform fill up front so steady-state inserts stay
    // allocation-free (skewed keys may still grow individual buckets).
    const std::size_t reserve_per_bucket =
        2 * kTargetFill + 2;
    for (Bucket& b : buckets_) {
      b.keys.reserve(reserve_per_bucket);
      b.slots.reserve(reserve_per_bucket);
    }
  }

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bucket_mask_ + 1;
  }

  [[nodiscard]] std::size_t bucket_of(std::uint32_t key) const noexcept {
    const std::uint32_t h = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(key) * 2654435761ULL) >> 16);
    return h & bucket_mask_;
  }

  void add(std::uint32_t key, std::uint32_t slot) {
    Bucket& b = buckets_[bucket_of(key)];
    HAL_ASSERT(slot < pos_of_slot_.size());
    pos_of_slot_[slot] = static_cast<std::uint32_t>(b.keys.size());
    b.keys.push_back(key);
    b.slots.push_back(slot);
  }

  // Removes the (old_key, slot) pairing before the slot is overwritten.
  void remove(std::uint32_t old_key, std::uint32_t slot) noexcept {
    Bucket& b = buckets_[bucket_of(old_key)];
    const std::uint32_t pos = pos_of_slot_[slot];
    HAL_ASSERT(pos < b.slots.size() && b.slots[pos] == slot);
    const std::uint32_t last = static_cast<std::uint32_t>(b.slots.size() - 1);
    if (pos != last) {
      b.keys[pos] = b.keys[last];
      b.slots[pos] = b.slots[last];
      pos_of_slot_[b.slots[pos]] = pos;
    }
    b.keys.pop_back();
    b.slots.pop_back();
  }

  void clear() noexcept {
    for (Bucket& b : buckets_) {
      b.keys.clear();
      b.slots.clear();
    }
  }

  // Bulk (re)build from a dense key lane: keys[i] is the resident key of
  // slot i, for i < count. Equivalent to clear() followed by add(keys[i],
  // i) for every i, but sizes each bucket exactly first, so a rebuild of
  // a skewed window performs no incremental growth and no per-insert
  // unhooking — the batched path of the recovery/elastic rebuild loops.
  void rebuild(const std::uint32_t* keys, std::size_t count) {
    HAL_ASSERT(count <= pos_of_slot_.size());
    for (Bucket& b : buckets_) {
      b.keys.clear();
      b.slots.clear();
    }
    std::vector<std::uint32_t> fill(buckets_.size(), 0);
    for (std::size_t i = 0; i < count; ++i) ++fill[bucket_of(keys[i])];
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      if (fill[b] > buckets_[b].keys.capacity()) {
        buckets_[b].keys.reserve(fill[b]);
        buckets_[b].slots.reserve(fill[b]);
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      Bucket& b = buckets_[bucket_of(keys[i])];
      pos_of_slot_[i] = static_cast<std::uint32_t>(b.keys.size());
      b.keys.push_back(keys[i]);
      b.slots.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Software prefetch of the lanes `key` hashes to, for a probe a few
  // iterations ahead (the bucket header plus the front of both lanes —
  // short buckets, the kTargetFill design point, fit the first lines).
  void prefetch(std::uint32_t key) const noexcept {
    const Bucket& b = buckets_[bucket_of(key)];
    __builtin_prefetch(b.keys.data(), 0, 1);
    __builtin_prefetch(b.slots.data(), 0, 1);
  }

  // Dense lanes of the bucket `key` hashes to, for the probe kernels.
  // keys()[i] pairs with slots()[i]; entries appear in insertion order
  // (oldest first within the bucket, since removal preserves no order —
  // callers must not rely on any particular order).
  [[nodiscard]] const std::uint32_t* bucket_keys(std::size_t b) const noexcept {
    return buckets_[b].keys.data();
  }
  [[nodiscard]] const std::uint32_t* bucket_slots(
      std::size_t b) const noexcept {
    return buckets_[b].slots.data();
  }
  [[nodiscard]] std::size_t bucket_size(std::size_t b) const noexcept {
    return buckets_[b].keys.size();
  }

 private:
  static constexpr std::size_t kTargetFill = 8;

  struct Bucket {
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> slots;
  };

  static std::size_t bucket_count_for(std::size_t capacity) noexcept {
    std::size_t want = capacity / kTargetFill;
    std::size_t buckets = 1;
    while (buckets < want) buckets <<= 1;
    return buckets;
  }

  std::size_t bucket_mask_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> pos_of_slot_;  // position inside its bucket
};

}  // namespace hal::sw
