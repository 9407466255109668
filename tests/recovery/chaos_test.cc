// hal::recovery chaos suite: seeded plans are reproducible and compose
// cluster faults with wire faults; a supervised cluster driven through a
// generated schedule — kills, injected errors, link delays, corrupted
// frames, a short partition — still matches the fault-free single-node
// oracle byte for byte. Also pinned here: the generalized FaultPlan event
// list preserves the legacy single-fault invariants (failovers with
// replicas, accounted loss without), with the expected loss computed from
// the router itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "cluster/router.h"
#include "recovery/chaos.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::recovery {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEngine;
using cluster::ClusterReport;
using cluster::FaultEvent;
using cluster::FaultKind;
using cluster::Partitioning;
using core::Backend;
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

ClusterConfig chaos_config(net::TransportKind transport) {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 2;
  cfg.transport.batch_size = 16;
  cfg.transport.link_transport = transport;
  cfg.recovery.supervise = true;
  return cfg;
}

void run_epochs(ClusterEngine& engine, const std::vector<Tuple>& tuples,
                std::size_t epochs) {
  const std::size_t per_epoch = tuples.size() / epochs;
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto first =
        tuples.begin() + static_cast<std::ptrdiff_t>(e * per_epoch);
    const auto last = e + 1 == epochs
                          ? tuples.end()
                          : first + static_cast<std::ptrdiff_t>(per_epoch);
    engine.process(std::vector<Tuple>(first, last));
  }
}

TEST(ChaosPlan, SameSeedSameSchedule) {
  ChaosOptions opts;
  opts.workers = 4;
  opts.epochs = 6;
  opts.kills = 3;
  opts.errors = 2;
  opts.link_delays = 2;
  opts.wire_corrupt = true;
  const ChaosPlan a = ChaosPlan::generate(20170605, opts);
  const ChaosPlan b = ChaosPlan::generate(20170605, opts);
  EXPECT_EQ(a.describe(), b.describe());
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_EQ(a.events().size(), 3u + 2u + 2u + 1u);
}

TEST(ChaosPlan, DifferentSeedsDiverge) {
  ChaosOptions opts;
  opts.workers = 8;
  opts.epochs = 16;
  opts.batches_per_epoch = 32;
  opts.kills = 4;
  EXPECT_NE(ChaosPlan::generate(1, opts).describe(),
            ChaosPlan::generate(2, opts).describe());
}

TEST(ChaosPlan, InstallComposesClusterAndNetPlans) {
  ChaosOptions opts;
  opts.workers = 2;
  opts.kills = 2;
  opts.errors = 1;
  opts.link_delays = 1;
  opts.wire_corrupt = true;
  opts.wire_partition = true;
  const ChaosPlan plan = ChaosPlan::generate(99, opts);

  ClusterConfig cfg = chaos_config(net::TransportKind::kInProcess);
  plan.install(cfg);
  EXPECT_EQ(cfg.faults.events.size(), 4u);  // kills + errors + delays
  EXPECT_NE(cfg.transport.net_fault.corrupt_every, 0u);
  EXPECT_NE(cfg.transport.net_fault.partition_after_frames, 0u);
  std::size_t kills = 0;
  for (const FaultEvent& ev : cfg.faults.events) {
    if (ev.kind == FaultKind::kKillWorker) ++kills;
    if (ev.kind != FaultKind::kDelayLink) {
      EXPECT_GE(ev.epoch, 1u);
      EXPECT_LE(ev.epoch, opts.epochs);
      EXPECT_LT(ev.worker, opts.workers);
    }
  }
  EXPECT_EQ(kills, 2u);
}

// The differential chaos contract, over modeled SPSC links.
TEST(ChaosSuite, SeededScheduleIsFailureTransparentOverSpsc) {
  ChaosOptions opts;
  opts.workers = 2;
  opts.epochs = 5;
  opts.batches_per_epoch = 6;
  opts.kills = 2;
  opts.errors = 1;
  opts.link_delays = 1;
  opts.max_delay_us = 100.0;
  const ChaosPlan plan = ChaosPlan::generate(20170605, opts);

  ClusterConfig cfg = chaos_config(net::TransportKind::kInProcess);
  plan.install(cfg);
  ClusterEngine engine(cfg);
  const auto tuples = workload(1000, 83);
  run_epochs(engine, tuples, opts.epochs);

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)))
      << plan.describe();
  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.recovery.restarts, 1u) << plan.describe();
  EXPECT_EQ(rep.lost_tuples, 0u) << plan.describe();
  EXPECT_FALSE(rep.degraded) << plan.describe();
}

// Same contract over real sockets, with wire corruption and a short
// partition layered on top (the net layer heals those; the supervisor
// heals the kills — composition must still be exact).
class ChaosWireTest : public testing::TestWithParam<net::TransportKind> {};

TEST_P(ChaosWireTest, ScheduleWithWireFaultsIsFailureTransparent) {
  ChaosOptions opts;
  opts.workers = 2;
  opts.epochs = 4;
  opts.batches_per_epoch = 6;
  opts.kills = 1;
  opts.wire_corrupt = true;
  opts.wire_partition = GetParam() == net::TransportKind::kTcp;
  const ChaosPlan plan = ChaosPlan::generate(424242, opts);

  ClusterConfig cfg = chaos_config(GetParam());
  plan.install(cfg);
  ClusterEngine engine(cfg);
  const auto tuples = workload(800, 89);
  run_epochs(engine, tuples, opts.epochs);

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)))
      << plan.describe();
  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.recovery.restarts, 1u) << plan.describe();
  EXPECT_EQ(rep.lost_tuples, 0u) << plan.describe();
}

INSTANTIATE_TEST_SUITE_P(Transports, ChaosWireTest,
                         testing::Values(net::TransportKind::kLoopback,
                                         net::TransportKind::kTcp),
                         [](const auto& info) {
                           return std::string(net::to_string(info.param));
                         });

// --- Generalized FaultPlan invariants ------------------------------------

// The event list is the only fault interface; epoch == 0 keeps the old
// whole-run trigger counting. Failover must be batch-count driven, not
// scheduling driven: two runs of the same plan agree on results and on
// every deterministic counter.
TEST(GeneralizedFaultPlan, WholeRunKillIsDeterministic) {
  const auto tuples = workload(600, 97);
  auto run = [&]() {
    ClusterConfig cfg = chaos_config(net::TransportKind::kInProcess);
    cfg.recovery.supervise = false;  // pre-recovery behavior
    cfg.replicas = 2;
    FaultEvent ev;
    ev.kind = FaultKind::kKillWorker;
    ev.worker = 0;
    ev.after_batches = 2;  // epoch 0: whole-run counting
    cfg.faults.events.push_back(ev);
    ClusterEngine engine(cfg);
    engine.process(tuples);
    auto results = normalize(engine.take_results());
    return std::make_pair(std::move(results), engine.report());
  };
  const auto [first_results, first_rep] = run();
  const auto [second_results, second_rep] = run();
  EXPECT_EQ(first_results, second_results);
  EXPECT_EQ(first_rep.failovers, second_rep.failovers);
  EXPECT_EQ(first_rep.lost_tuples, second_rep.lost_tuples);
  EXPECT_EQ(first_rep.routed_tuples, second_rep.routed_tuples);
  EXPECT_TRUE(first_rep.workers[0].dropped);
  EXPECT_GE(first_rep.failovers, 1u);
  EXPECT_EQ(first_rep.lost_tuples, 0u);
}

TEST(GeneralizedFaultPlan, UnsupervisedKillLosesExactlyTheRoutedTuples) {
  ClusterConfig cfg = chaos_config(net::TransportKind::kInProcess);
  cfg.recovery.supervise = false;
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.worker = 1;
  kill.epoch = 2;
  kill.after_batches = 0;  // dies at its first batch of epoch 2
  cfg.faults.events.push_back(kill);
  ClusterEngine engine(cfg);

  const auto tuples = workload(600, 101);
  const std::size_t epochs = 3;
  const std::size_t per_epoch = tuples.size() / epochs;
  // Expected loss, computed from the router: every tuple the key-hash
  // router sends to the dead slot in epochs >= 2 (partial epochs are
  // discarded wholesale).
  cluster::Router router(Partitioning::kKeyHash, 1, cfg.shards);
  std::uint64_t expected_lost = 0;
  router.route_span(std::span<const Tuple>(tuples).subspan(per_epoch),
                    [&](const Tuple&, std::uint32_t slot) {
                      if (slot == 1) ++expected_lost;
                    });
  run_epochs(engine, tuples, epochs);
  const ClusterReport rep = engine.report();
  EXPECT_TRUE(rep.degraded);
  EXPECT_EQ(rep.lost_tuples, expected_lost);
  EXPECT_EQ(rep.routed_tuples, tuples.size());  // key-hash: no replication
  EXPECT_EQ(rep.failovers, 0u);  // no replica to fail over to
}

TEST(GeneralizedFaultPlan, DelayEventOnlyStretchesTheRun) {
  ClusterConfig cfg = chaos_config(net::TransportKind::kInProcess);
  cfg.recovery.supervise = false;
  FaultEvent delay;
  delay.kind = FaultKind::kDelayLink;
  delay.worker = 0;
  delay.extra_delay_us = 300.0;
  cfg.faults.events.push_back(delay);
  ClusterEngine engine(cfg);

  const auto tuples = workload(400, 103);
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  const ClusterReport rep = engine.report();
  EXPECT_EQ(rep.lost_tuples, 0u);
  EXPECT_EQ(rep.failovers, 0u);
  EXPECT_FALSE(rep.degraded);
}

}  // namespace
}  // namespace hal::recovery
