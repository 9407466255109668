// Router property suite: the join-matrix invariants of both partitioning
// schemes, checked exhaustively over generated workloads.
//
// kSplitGrid — every R tuple is replicated across exactly one full row,
// every S tuple down exactly one full column, so each (r, s) pair meets
// at exactly one worker (|row ∩ column| == 1) and the round-robin
// assignment keeps the row/column load balanced. kKeyHash — every tuple
// is stored on exactly one shard and equal keys co-locate. Both
// invariants must survive replica failover: with a dropped primary the
// replica takes over the same slot, and the cluster's results stay
// byte-identical to the single-node oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "cluster/cluster_engine.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::cluster {
namespace {

using core::Backend;
using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::StreamId;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed,
                            std::uint32_t key_domain = 32) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

// Each tuple's destination slots, in emission order, as routed by
// route_span over the whole workload in spans of `span` tuples — the
// function the cluster ingress runs, SIMD keyslot fast path included.
std::vector<std::vector<std::uint32_t>> route_all(
    Router& router, const std::vector<Tuple>& tuples, std::size_t span = 37) {
  std::vector<std::vector<std::uint32_t>> slots(tuples.size());
  for (std::size_t at = 0; at < tuples.size(); at += span) {
    const std::size_t n = std::min(span, tuples.size() - at);
    router.route_span(std::span<const Tuple>(tuples.data() + at, n),
                      [&](const Tuple& t, std::uint32_t slot) {
                        slots[static_cast<std::size_t>(&t - tuples.data())]
                            .push_back(slot);
                      });
  }
  return slots;
}

TEST(RouterProperty, SplitGridPairsMeetAtExactlyOneWorker) {
  constexpr std::uint32_t kRows = 3;
  constexpr std::uint32_t kCols = 4;
  Router router(Partitioning::kSplitGrid, kRows, kCols);
  ASSERT_EQ(router.num_slots(), kRows * kCols);

  const auto tuples = workload(600, 71, 16);
  const auto routed = route_all(router, tuples);
  std::vector<std::set<std::uint32_t>> r_sets;  // slots per R tuple
  std::vector<std::set<std::uint32_t>> s_sets;  // slots per S tuple
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    const std::vector<std::uint32_t>& slots = routed[i];
    std::set<std::uint32_t> unique(slots.begin(), slots.end());
    ASSERT_EQ(unique.size(), slots.size());  // no duplicate slots
    for (const std::uint32_t s : unique) ASSERT_LT(s, router.num_slots());
    if (t.origin == StreamId::R) {
      // Replicated across one full row: one slot per column.
      ASSERT_EQ(unique.size(), kCols);
      r_sets.push_back(std::move(unique));
    } else {
      ASSERT_EQ(unique.size(), kRows);
      s_sets.push_back(std::move(unique));
    }
  }
  ASSERT_FALSE(r_sets.empty());
  ASSERT_FALSE(s_sets.empty());

  // Join-matrix invariant: every (r, s) pair meets at exactly one worker.
  std::vector<std::uint32_t> meet;
  for (const auto& r : r_sets) {
    for (const auto& s : s_sets) {
      meet.clear();
      std::set_intersection(r.begin(), r.end(), s.begin(), s.end(),
                            std::back_inserter(meet));
      ASSERT_EQ(meet.size(), 1u);
    }
  }
}

TEST(RouterProperty, SplitGridRoundRobinBalancesRowsAndColumns) {
  constexpr std::uint32_t kRows = 2;
  constexpr std::uint32_t kCols = 3;
  Router router(Partitioning::kSplitGrid, kRows, kCols);

  const auto tuples = workload(500, 73, 16);
  // Distinct slot-sets identify rows (for R) / columns (for S); the
  // round-robin turn counters must spread each stream evenly over them.
  std::map<std::set<std::uint32_t>, std::size_t> row_use, col_use;
  std::size_t n_r = 0;
  std::size_t n_s = 0;
  const auto routed = route_all(router, tuples);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    std::set<std::uint32_t> unique(routed[i].begin(), routed[i].end());
    if (t.origin == StreamId::R) {
      ++row_use[unique];
      ++n_r;
    } else {
      ++col_use[unique];
      ++n_s;
    }
  }
  ASSERT_EQ(row_use.size(), kRows);
  ASSERT_EQ(col_use.size(), kCols);
  for (const auto& [row, uses] : row_use) {
    EXPECT_LE(uses, (n_r + kRows - 1) / kRows);  // within one turn of even
  }
  for (const auto& [col, uses] : col_use) {
    EXPECT_LE(uses, (n_s + kCols - 1) / kCols);
  }
  // Every grid slot is covered by exactly one row and one column.
  std::multiset<std::uint32_t> covered;
  for (const auto& [row, uses] : row_use) {
    covered.insert(row.begin(), row.end());
  }
  EXPECT_EQ(covered.size(), router.num_slots());
  for (std::uint32_t s = 0; s < router.num_slots(); ++s) {
    EXPECT_EQ(covered.count(s), 1u);
  }
}

TEST(RouterProperty, KeyHashStoresOnExactlyOneShardAndColocatesKeys) {
  constexpr std::uint32_t kShards = 4;
  Router router(Partitioning::kKeyHash, 1, kShards);
  ASSERT_EQ(router.num_slots(), kShards);

  const auto tuples = workload(800, 79, 64);
  std::map<std::uint64_t, std::uint32_t> key_owner;
  std::set<std::uint32_t> used;
  const auto routed = route_all(router, tuples);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    const std::vector<std::uint32_t>& slots = routed[i];
    ASSERT_EQ(slots.size(), 1u);  // stored on exactly one shard
    ASSERT_LT(slots[0], kShards);
    used.insert(slots[0]);
    const auto [it, inserted] = key_owner.emplace(t.key, slots[0]);
    if (!inserted) {
      // Same key (either stream) must land on the same shard, or the
      // equi-join would miss cross-shard matches.
      EXPECT_EQ(it->second, slots[0]) << "key " << t.key;
    }
  }
  // 64 keys over 4 shards: the hash must actually spread the load.
  EXPECT_GT(used.size(), 1u);
}

TEST(RouterProperty, GridFailoverPreservesJoinMatrixExactness) {
  // Replica takes over a dropped grid worker mid-run; every pair must
  // still meet exactly once, which byte-identity to the single-node
  // oracle certifies (a missed meeting loses results, a double meeting
  // duplicates them).
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kSplitGrid;
  cfg.grid_rows = 2;
  cfg.grid_cols = 2;
  cfg.window_size = 48;
  cfg.spec = JoinSpec::band_on_key(2);  // non-equi: the grid's home turf
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 16;
  cfg.replicas = 2;
  // Kill slot 0's primary after 2 batches (epoch 0: whole-run counting).
  cfg.faults.events.push_back(FaultEvent{
      .kind = FaultKind::kKillWorker, .worker = 0, .after_batches = 2});
  ClusterEngine engine(cfg);

  const auto tuples = workload(500, 83);
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));

  const ClusterReport rep = engine.report();
  EXPECT_TRUE(rep.workers[0].dropped);
  EXPECT_GE(rep.failovers, 1u);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.lost_tuples, 0u);
}

TEST(RouterProperty, KeyHashFailoverKeepsShardOwnershipExact) {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 3;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 16;
  cfg.replicas = 2;
  // Flat index slot*replicas: kill slot 1's primary after 3 batches.
  cfg.faults.events.push_back(FaultEvent{
      .kind = FaultKind::kKillWorker, .worker = 2, .after_batches = 3});
  ClusterEngine engine(cfg);

  const auto tuples = workload(600, 89);
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.failovers, 1u);
  EXPECT_EQ(rep.lost_tuples, 0u);
}

}  // namespace
}  // namespace hal::cluster
