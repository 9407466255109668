#include "cluster/router.h"

#include <algorithm>

namespace hal::cluster {

Router::Router(Partitioning partitioning, std::uint32_t rows,
               std::uint32_t cols)
    : partitioning_(partitioning), rows_(rows), cols_(cols) {
  HAL_CHECK(rows_ >= 1 && cols_ >= 1, "grid must have at least one worker");
  if (partitioning_ == Partitioning::kKeyHash) {
    HAL_CHECK(rows_ == 1, "key-hash partitioning is a flat 1×N layout");
    map_ = KeyspaceMap::uniform(cols_);
  }
}

void Router::set_keyspace(KeyspaceMap map) {
  HAL_CHECK(partitioning_ == Partitioning::kKeyHash,
            "the keyspace map only exists under key-hash partitioning");
  HAL_CHECK(map.valid(), "refusing to install a malformed keyspace map");
  HAL_CHECK(map.version() == map_.version() + 1,
            "keyspace revisions must install in order, one at a time");
  map_ = std::move(map);
}

std::uint64_t check_arrival_order(std::span<const stream::Tuple> tuples,
                                  std::uint64_t next_seq) {
  for (const stream::Tuple& t : tuples) {
    HAL_CHECK(t.seq >= next_seq,
              "tuple seqs must strictly increase across the run (seq is the "
              "global arrival index)");
    next_seq = t.seq + 1;
  }
  return next_seq;
}

bool probes_in_epoch(std::span<const stream::ResultTuple> results,
                     std::uint64_t epoch_first_seq) {
  return std::all_of(results.begin(), results.end(),
                     [epoch_first_seq](const stream::ResultTuple& rt) {
                       return probe_seq(rt) >= epoch_first_seq;
                     });
}

void StaleFilter::observe(std::span<const stream::Tuple> tuples,
                          std::span<const std::uint64_t> stamps) {
  HAL_ASSERT(stamps.empty() || stamps.size() == tuples.size());
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    epoch_.push_back({tuples[i].seq, stamps[i]});
  }
}

std::uint64_t StaleFilter::stamp_of(std::uint64_t seq) const {
  const auto it = std::partition_point(
      epoch_.begin(), epoch_.end(),
      [seq](const Stamped& a) { return a.seq < seq; });
  return it != epoch_.end() && it->seq == seq ? it->stamp : 0;
}

std::uint64_t StaleFilter::keep_in_window(
    std::span<const stream::ResultTuple> fresh,
    std::vector<stream::ResultTuple>& out) const {
  std::uint64_t dropped = 0;
  // An engine emits a probe's pairs together, so one lookup serves a run.
  std::uint64_t probe = 0;
  std::uint64_t stamp = 0;
  bool known = false;
  for (const stream::ResultTuple& rt : fresh) {
    if (!known || probe_seq(rt) != probe) {
      probe = probe_seq(rt);
      stamp = stamp_of(probe);
      known = true;
    }
    if (std::min(rt.r.seq, rt.s.seq) < stamp) {
      ++dropped;
    } else {
      out.push_back(rt);
    }
  }
  return dropped;
}

}  // namespace hal::cluster
