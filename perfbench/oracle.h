// Correctness oracles of the benchmark.
//
// Every run is checked twice: the full result multiset of a prefix of
// batches against stream::ReferenceJoin, and the result count of every
// batch of the run against CountingOracle. ReferenceJoin scans the whole
// opposite window per tuple, which is too slow for a whole run at the
// benchmark's window sizes; the counting oracle is O(1) per tuple and is
// pinned to ReferenceJoin by self_test().
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/tuple.h"

namespace perfbench {

// Per-tuple match counts of the count-based equi-on-key window join with
// probe-then-insert semantics and `window` tuples per stream — the
// semantics of ReferenceJoin under JoinSpec::equi_on_key().
class CountingOracle {
 public:
  explicit CountingOracle(std::size_t window);

  // Matches the tuple makes against the opposite stream's window; then
  // inserts it into its own stream's window.
  std::uint64_t process(const hal::stream::Tuple& t);

 private:
  struct Side {
    std::vector<std::uint32_t> ring;  // the window's keys, oldest at head
    std::size_t head = 0;
    std::size_t size = 0;
    // Windowed tuples per key. A map, not a key-indexed array, so the
    // oracle's footprint tracks the window and not the key domain: the
    // benchmark's peak RSS should be the engine's.
    std::unordered_map<std::uint32_t, std::uint32_t> count;
  };

  std::size_t window_;
  Side side_[2];
};

// Compares CountingOracle with ReferenceJoin, tuple by tuple, on seeded
// uniform and zipf streams at several window sizes. Returns an empty
// string on agreement, otherwise a description of the first mismatch.
[[nodiscard]] std::string self_test();

}  // namespace perfbench
