#include "cluster/router.h"

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

void Router::route(const stream::Tuple& t,
                   std::vector<std::uint32_t>& slots_out) {
  slots_out.clear();
  if (partitioning_ == Partitioning::kKeyHash) {
    route_hashed(t, [&](const stream::Tuple&, std::uint32_t slot) {
      slots_out.push_back(slot);
    });
    return;
  }
  // kSplitGrid: slot index = row * cols + col. R owns a row (replicated
  // across its columns), S owns a column (replicated down its rows).
  if (t.origin == stream::StreamId::R) {
    const auto row = static_cast<std::uint32_t>(count_r_++ % rows_);
    for (std::uint32_t col = 0; col < cols_; ++col) {
      slots_out.push_back(row * cols_ + col);
    }
  } else {
    const auto col = static_cast<std::uint32_t>(count_s_++ % cols_);
    for (std::uint32_t row = 0; row < rows_; ++row) {
      slots_out.push_back(row * cols_ + col);
    }
  }
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

}  // namespace hal::cluster
