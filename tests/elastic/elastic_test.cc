// hal::elastic suite: KeyspaceMap unit invariants, then differential
// tests that drive live topology changes — shard add/remove, hot-key
// split/unsplit, skew-driven rebalance — under continuous ingest and
// assert the cluster's output stays byte-identical to a fixed-topology
// single-node oracle over the whole stream. Exactness is the product
// here: a migration that drops or double-counts even one in-flight
// tuple shows up as a normalize() mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

#include "cluster/cluster_engine.h"
#include "common/assert.h"
#include "elastic/controller.h"
#include "obs/metrics.h"
#include "stream/generator.h"
#include "stream/reference_join.h"
#include "sw/indexed_window.h"

namespace hal::elastic {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEngine;
using cluster::ClusterReport;
using cluster::FaultEvent;
using cluster::FaultKind;
using cluster::KeyspaceMap;
using cluster::Partitioning;
using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed,
                            std::uint32_t key_domain = 32) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

std::vector<Tuple> zipf_workload(std::size_t n, std::uint64_t seed,
                                 std::uint32_t key_domain, double theta) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  wl.deterministic_interleave = false;
  wl.distribution = stream::KeyDistribution::kZipf;
  wl.zipf_theta = theta;
  return stream::WorkloadGenerator(wl).take(n);
}

// Splits one generated stream into `chunks` contiguous process() calls
// (epochs) without re-seeding, so the oracle can consume the exact same
// tuple sequence in one pass.
std::vector<std::vector<Tuple>> chunked(const std::vector<Tuple>& all,
                                        std::size_t chunks) {
  std::vector<std::vector<Tuple>> out(chunks);
  const std::size_t per = all.size() / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = c + 1 == chunks ? all.size() : lo + per;
    out[c].assign(all.begin() + static_cast<std::ptrdiff_t>(lo),
                  all.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

ClusterConfig base_config(std::uint32_t shards) {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = shards;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = core::Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 16;
  return cfg;
}

// --- KeyspaceMap units ---------------------------------------------------

TEST(KeyspaceMap, UniformReproducesStaticHashLayout) {
  // For every shard count dividing kKeyslots, the version-1 uniform map
  // must route exactly like the pre-elastic static hash(key) % shards.
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u, 16u}) {
    const KeyspaceMap map = KeyspaceMap::uniform(shards);
    EXPECT_EQ(map.version(), 1u);
    EXPECT_TRUE(map.valid());
    for (std::uint32_t key = 0; key < 512; ++key) {
      EXPECT_EQ(map.shard_of_key(key), KeyspaceMap::hash_key(key) % shards)
          << "shards=" << shards << " key=" << key;
    }
  }
}

TEST(KeyspaceMap, BuildersVersioningAndReferencedShards) {
  KeyspaceMap map = KeyspaceMap::uniform(2);
  EXPECT_EQ(map.referenced_shards(), (std::vector<std::uint32_t>{0, 1}));

  map.set_owner(5, 7);
  map.split(42, {1, 3});
  map.bump_version();
  EXPECT_EQ(map.version(), 2u);
  EXPECT_TRUE(map.valid());
  EXPECT_EQ(map.owner(5), 7u);
  ASSERT_NE(map.split_group(42), nullptr);
  EXPECT_EQ(*map.split_group(42), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(map.split_group(41), nullptr);
  // owners {0,1,7} ∪ split members {1,3}, sorted + deduplicated.
  EXPECT_EQ(map.referenced_shards(), (std::vector<std::uint32_t>{0, 1, 3, 7}));

  map.unsplit(42);
  EXPECT_EQ(map.split_group(42), nullptr);
  EXPECT_EQ(map.splits().size(), 0u);
}

TEST(KeyspaceMap, DefaultConstructedIsNotInstallable) {
  const KeyspaceMap map;
  EXPECT_EQ(map.version(), 0u);
  EXPECT_FALSE(map.valid());
}

// --- Live rescale differential, parameterized over the link fabric ------

struct RescaleCase {
  net::TransportKind link;  // cluster router/merger links
  net::TransportKind ship;  // controller's migration-image channel
  std::uint64_t seed;       // of the workload
};

const char* camel_name(net::TransportKind kind) {
  switch (kind) {
    case net::TransportKind::kInProcess: return "InProcess";
    case net::TransportKind::kLoopback: return "Loopback";
    case net::TransportKind::kUnix: return "Unix";
    case net::TransportKind::kTcp: return "Tcp";
  }
  return "?";
}

class ElasticRescaleTest : public ::testing::TestWithParam<RescaleCase> {};

// Grow 2→4, then shrink 4→3, under continuous ingest. Every tuple of the
// stream must appear in exactly one output pairing — identical to a
// never-reconfigured oracle.
TEST_P(ElasticRescaleTest, LiveGrowAndShrinkMatchOracle) {
  const RescaleCase& c = GetParam();
  ClusterConfig cfg = base_config(2);
  cfg.transport.link_transport = c.link;

  ClusterEngine engine(cfg);
  ElasticConfig ecfg;
  ecfg.ship_transport = c.ship;
  Controller ctl(engine, ecfg);

  const auto all = workload(900, c.seed);
  const auto chunks = chunked(all, 6);
  std::vector<stream::ResultTuple> got;
  std::vector<MigrationReport> reps;

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    (void)engine.process(chunks[i]);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    if (i == 1) reps.push_back(ctl.add_shards(2));   // 2 → 4
    if (i == 3) reps.push_back(ctl.remove_shards(1));  // 4 → 3
  }

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  const ClusterReport rep = engine.report();
  EXPECT_EQ(rep.input_tuples, all.size());
  EXPECT_EQ(rep.active_shards, 3u);
  EXPECT_EQ(rep.keyspace_version, 3u);  // uniform v1 + two revisions
  EXPECT_EQ(engine.slot_count(), 4u);
  EXPECT_TRUE(engine.slot_retired(3));  // shrink retires the highest id
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.lost_tuples, 0u);

  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].shards_before, 2u);
  EXPECT_EQ(reps[0].shards_after, 4u);
  EXPECT_EQ(reps[1].shards_before, 4u);
  EXPECT_EQ(reps[1].shards_after, 3u);
  for (const MigrationReport& m : reps) {
    EXPECT_EQ(m.to_version, m.from_version + 1);
    EXPECT_GT(m.moved_keyslots, 0u);
    EXPECT_GT(m.rebuilt_slots, 0u);
    EXPECT_GT(m.image_bytes, 0u);
    EXPECT_GT(m.shipped_frames, 0u);  // ship_images defaults on
    EXPECT_EQ(m.lost_sources, 0u);
    EXPECT_GE(m.pause_seconds, 0.0);
  }
}

// gtest prints each case's bytes into its test name: pointer-free, in
// static storage (zeroed padding), the names stay the same across builds.
constexpr RescaleCase kRescaleCases[] = {
    {net::TransportKind::kInProcess, net::TransportKind::kLoopback, 11},
    {net::TransportKind::kLoopback, net::TransportKind::kLoopback, 11},
    {net::TransportKind::kTcp, net::TransportKind::kTcp, 11},
};

INSTANTIATE_TEST_SUITE_P(
    Transports, ElasticRescaleTest, ::testing::ValuesIn(kRescaleCases),
    [](const ::testing::TestParamInfo<RescaleCase>& info) {
      return std::string(camel_name(info.param.link)) + "Links" +
             camel_name(info.param.ship) + "Ship";
    });

// Migration without the wire hop: images move by direct buffer handoff.
TEST(Elastic, RescaleWithoutShippingMatchesOracle) {
  ClusterConfig cfg = base_config(2);
  ClusterEngine engine(cfg);
  ElasticConfig ecfg;
  ecfg.ship_images = false;
  Controller ctl(engine, ecfg);

  const auto all = workload(600, 23);
  const auto chunks = chunked(all, 4);
  std::vector<stream::ResultTuple> got;
  MigrationReport rep;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    (void)engine.process(chunks[i]);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    if (i == 1) rep = ctl.add_shards(1);
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));
  EXPECT_EQ(rep.shipped_frames, 0u);
  EXPECT_GT(rep.image_bytes, 0u);
}

// A shard added but not yet referenced by any keyspace revision must sit
// idle: the router never addresses it until a revision maps keyslots in.
TEST(Elastic, AddedSlotIsIdleUntilReferenced) {
  ClusterConfig cfg = base_config(2);
  ClusterEngine engine(cfg);
  const std::uint32_t slot = engine.add_slot();
  EXPECT_EQ(slot, 2u);
  EXPECT_EQ(engine.active_slot_count(), 3u);

  (void)engine.process(workload(200, 3));
  (void)engine.take_results();
  const ClusterReport rep = engine.report();
  for (const auto& w : rep.workers) {
    if (w.slot == slot) {
      EXPECT_EQ(w.tuples_in, 0u);
    }
  }
  // Still retirable, exactly because nothing references it.
  engine.retire_slot(slot);
  EXPECT_TRUE(engine.slot_retired(slot));
}

// --- Migration under faults ----------------------------------------------

// Supervised kills in the epochs surrounding the migration barriers: one
// in the epoch before the grow (the migration sources freshly restarted
// state), one in the epoch right after (the rebuilt window plus its
// refreshed checkpoint must carry the restart). Results must still be
// byte-identical to the oracle.
TEST(Elastic, KillsAroundMigrationStayExact) {
  ClusterConfig cfg = base_config(2);
  cfg.recovery.supervise = true;
  cfg.recovery.checkpoint_interval_epochs = 1;
  cfg.faults.events.push_back(
      FaultEvent{.kind = FaultKind::kKillWorker, .worker = 0, .epoch = 2,
                 .after_batches = 1});
  cfg.faults.events.push_back(
      FaultEvent{.kind = FaultKind::kKillWorker, .worker = 1, .epoch = 3,
                 .after_batches = 0});
  ClusterEngine engine(cfg);
  Controller ctl(engine);

  const auto all = workload(750, 31);
  const auto chunks = chunked(all, 5);
  std::vector<stream::ResultTuple> got;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    (void)engine.process(chunks[i]);  // chunk i is epoch i+1
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    if (i == 1) (void)ctl.add_shards(1);    // barrier after the first kill
    if (i == 3) (void)ctl.remove_shards(1);
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.recovery.restarts, 2u);
  EXPECT_EQ(rep.recovery.unrecoverable, 0u);
  EXPECT_FALSE(rep.degraded);
}

// Same protocol fed from checkpoint + replay-delta reconstruction instead
// of live snapshots. With a 2-epoch checkpoint interval the migration at
// epoch 3 must replay at least the epoch-3 delta on top of the epoch-2
// image.
TEST(Elastic, CheckpointDeltaSourceMatchesOracle) {
  ClusterConfig cfg = base_config(2);
  cfg.recovery.supervise = true;
  cfg.recovery.checkpoint_interval_epochs = 2;
  ClusterEngine engine(cfg);
  ElasticConfig ecfg;
  ecfg.prefer_checkpoint_delta = true;
  Controller ctl(engine, ecfg);

  const auto all = workload(750, 41);
  const auto chunks = chunked(all, 5);
  std::vector<stream::ResultTuple> got;
  MigrationReport rep;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    (void)engine.process(chunks[i]);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    if (i == 2) rep = ctl.add_shards(2);
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));
  EXPECT_GT(rep.replayed_batches, 0u);
  EXPECT_EQ(rep.lost_sources, 0u);
}

// --- Skew-aware routing --------------------------------------------------

std::uint32_t hottest_key(const std::vector<Tuple>& tuples) {
  std::map<std::uint32_t, std::size_t> counts;
  for (const Tuple& t : tuples) ++counts[t.key];
  std::uint32_t best = 0;
  std::size_t best_n = 0;
  for (const auto& [key, n] : counts) {
    if (n > best_n) {
      best = key;
      best_n = n;
    }
  }
  return best;
}

// Splitting the hottest key replicates its R side across the group (so
// routed > input) and must stay exact through both the split and the
// later unsplit migration.
TEST(Elastic, HotKeySplitAndUnsplitStayExact) {
  ClusterConfig cfg = base_config(4);
  ClusterEngine engine(cfg);
  Controller ctl(engine);

  const auto all = zipf_workload(800, 53, /*key_domain=*/16, /*theta=*/1.2);
  const auto chunks = chunked(all, 4);
  const std::uint32_t hot = hottest_key(all);

  std::vector<stream::ResultTuple> got;
  MigrationReport split_rep;
  MigrationReport unsplit_rep;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    (void)engine.process(chunks[i]);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    if (i == 0) split_rep = ctl.split_key(hot, 3);
    if (i == 2) unsplit_rep = ctl.unsplit_key(hot);
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  EXPECT_EQ(split_rep.splits_created, 1u);
  EXPECT_EQ(unsplit_rep.splits_removed, 1u);
  // The split key's R tuples fan out to all three members while it is
  // active, so total routed sends exceed total input tuples.
  const ClusterReport rep = engine.report();
  EXPECT_GT(rep.routed_tuples, rep.input_tuples);
  EXPECT_EQ(engine.keyspace().splits().size(), 0u);
}

// Measured-load rebalance on a zipfian stream: tracking is on, so after
// a warmup rebalance() must install at least one revision (the hottest
// key exceeds its fair share at theta 1.2) — and stay exact through it.
TEST(Elastic, ZipfRebalanceInstallsRevisionAndStaysExact) {
  ClusterConfig cfg = base_config(4);
  cfg.elastic.track_key_load = true;
  ClusterEngine engine(cfg);
  Controller ctl(engine);

  const auto all = zipf_workload(1000, 67, /*key_domain=*/32, /*theta=*/1.2);
  const auto chunks = chunked(all, 4);
  std::vector<stream::ResultTuple> got;
  std::vector<MigrationReport> reps;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    (void)engine.process(chunks[i]);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    if (i == 1) {
      reps = ctl.rebalance();
      // Re-running on the exact same measured loads must find nothing
      // left to fix — the plan converges rather than oscillating.
      EXPECT_TRUE(ctl.rebalance().empty());
    }
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  ASSERT_FALSE(reps.empty());
  EXPECT_GE(engine.keyspace().version(), 2u);
  EXPECT_FALSE(engine.keyspace().splits().empty());
}

// --- Guard rails & observability -----------------------------------------

TEST(Elastic, PreconditionViolationsThrow) {
  ClusterConfig cfg = base_config(2);
  ClusterEngine engine(cfg);
  Controller ctl(engine);

  // Keyspace versioning: only exactly current+1 installs.
  KeyspaceMap skipped = engine.keyspace();
  skipped.bump_version();
  skipped.bump_version();
  EXPECT_THROW(engine.apply_keyspace(std::move(skipped)), PreconditionError);

  // A revision may only reference live slots.
  KeyspaceMap dangling = engine.keyspace();
  dangling.set_owner(0, 9);
  dangling.bump_version();
  EXPECT_THROW(engine.apply_keyspace(std::move(dangling)), PreconditionError);

  // A slot the installed map references cannot retire.
  EXPECT_THROW(engine.retire_slot(0), PreconditionError);

  // Controller-level misuse.
  EXPECT_THROW(ctl.remove_shards(2), PreconditionError);  // must leave >= 1
  EXPECT_THROW(ctl.split_key(7, 1), PreconditionError);   // ways < 2
  EXPECT_THROW(ctl.split_key(7, 3), PreconditionError);   // ways > live
  EXPECT_THROW(ctl.unsplit_key(7), PreconditionError);    // not split
}

TEST(Elastic, ControllerMetricsExport) {
  ClusterConfig cfg = base_config(2);
  ClusterEngine engine(cfg);
  Controller ctl(engine);

  // Both epochs come from one generator: seq is the run's arrival index.
  const auto epochs = chunked(workload(600, 77), 2);
  (void)engine.process(epochs[0]);
  (void)engine.take_results();
  (void)ctl.add_shards(1);
  (void)engine.process(epochs[1]);
  (void)engine.take_results();

  obs::MetricRegistry reg;
  ctl.collect_metrics(reg, "elastic.");
  engine.collect_metrics(reg, "cluster.");
  const obs::ObsSnapshot snap = reg.snapshot("elastic-test");
  const auto* migrations = snap.find("elastic.migrations");
  ASSERT_NE(migrations, nullptr);
  EXPECT_EQ(migrations->counter_value, 1u);
  const auto* moved = snap.find("elastic.moved_keyslots");
  ASSERT_NE(moved, nullptr);
  EXPECT_GT(moved->counter_value, 0u);
  const auto* shards = snap.find("cluster.elastic.active_shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->counter_value, 3u);
}

// The migration rebuild loop reloads every affected slot's windows
// through the batched IndexedSoaWindow::load path (dense-lane fill plus
// one exact-reserve index rebuild) instead of per-tuple insert. Guard
// its throughput with a floor generous enough for sanitizer builds —
// the release path runs orders of magnitude above it — so a regression
// back to per-insert hooking shows up as a hard failure, and prove the
// batched load leaves the window probe-equivalent to the insert loop.
TEST(Elastic, BatchedWindowRebuildMeetsThroughputFloor) {
  constexpr std::size_t kCapacity = 4096;
  constexpr std::size_t kRounds = 64;
  const auto tuples = workload(kCapacity + 128, 91, 1 << 10);

  sw::IndexedSoaWindow batched(kCapacity);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    batched.load(tuples.data(), tuples.size());
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double rate =
      static_cast<double>(kRounds * tuples.size()) / std::max(secs, 1e-9);
  EXPECT_GT(rate, 2e5) << "batched rebuild regressed to " << rate
                       << " tuples/s";

  sw::IndexedSoaWindow inserted(kCapacity);
  for (const Tuple& t : tuples) inserted.insert(t);
  ASSERT_EQ(batched.size(), inserted.size());
  for (std::uint32_t key = 0; key < (1u << 10); ++key) {
    std::vector<std::uint64_t> a, b;
    batched.collect_equal(key, [&](const stream::Tuple& t) {
      a.push_back(t.seq);
    });
    inserted.collect_equal(key, [&](const stream::Tuple& t) {
      b.push_back(t.seq);
    });
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "probe divergence on key " << key;
  }
}

}  // namespace
}  // namespace hal::elastic
