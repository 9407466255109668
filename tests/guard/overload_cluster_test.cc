// hal::guard cluster robustness suite: gray-failure injection and the
// two mitigation loops.
//
//   * kSlowWorker keeps a shard alive-but-slow; its output must stay
//     byte-identical (only latency changes — that is what makes the
//     failure gray) while the report records the degradation.
//   * GuardController closes the detect→quarantine→re-route loop: the
//     slow shard is drained onto the healthy peers via the elastic
//     migration protocol and the stream stays exact end to end.
//   * A partitioned ingress wire trips the link's send budget / circuit
//     breaker, and the cluster fails over to the shard's replica instead
//     of stalling the epoch forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "cluster/cluster_engine.h"
#include "elastic/controller.h"
#include "guard/controller.h"
#include "obs/metrics.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::guard {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEngine;
using cluster::ClusterReport;
using cluster::FaultEvent;
using cluster::FaultKind;
using cluster::Partitioning;
using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = 48;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

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

// --- Gray failure: output-invariant slowness ------------------------------

TEST(GrayFailure, SlowWorkerChangesLatencyNotResults) {
  ClusterConfig cfg = base_config(3);
  // Worker 1 turns slow from epoch 1 for the rest of the run: +10 ms on
  // every batch, inside the busy section so service-time accounting
  // (busy_seconds) sees it — exactly like a thermal throttle would look.
  // (Far above real service time so a preempted healthy peer on a loaded
  // CI machine still cannot out-slow it.)
  cfg.faults.events.push_back(
      FaultEvent{.kind = FaultKind::kSlowWorker, .worker = 1, .epoch = 1,
                 .after_batches = 0, .extra_delay_us = 10000.0,
                 .duration_batches = 0, .period = 1});

  const auto all = workload(450, 19);
  ClusterEngine engine(cfg);
  std::vector<stream::ResultTuple> got;
  for (const auto& chunk : chunked(all, 3)) {
    (void)engine.process(chunk);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  const ClusterReport rep = engine.report();
  EXPECT_FALSE(rep.degraded);
  std::uint64_t slow_batches = 0;
  double slow_busy = 0.0;
  double peer_busy_max = 0.0;
  for (const auto& w : rep.workers) {
    slow_batches += w.slow_batches;
    if (w.index == 1) {
      EXPECT_GT(w.slow_batches, 0u);
      slow_busy = w.busy_seconds;
    } else {
      EXPECT_EQ(w.slow_batches, 0u);
      if (w.busy_seconds > peer_busy_max) peer_busy_max = w.busy_seconds;
    }
  }
  EXPECT_GT(slow_batches, 0u);
  // The injected delay dominates real service time by orders of
  // magnitude, so the gray shard's busy time towers over its peers'.
  EXPECT_GT(slow_busy, peer_busy_max);
}

TEST(GrayFailure, StutterDelaysOnlyEveryPeriodthBatch) {
  ClusterConfig cfg = base_config(2);
  cfg.faults.events.push_back(
      FaultEvent{.kind = FaultKind::kSlowWorker, .worker = 0, .epoch = 1,
                 .after_batches = 0, .extra_delay_us = 1000.0,
                 .duration_batches = 0, .period = 4});

  const auto all = workload(512, 29);
  ClusterEngine engine(cfg);
  std::vector<stream::ResultTuple> got;
  for (const auto& chunk : chunked(all, 2)) {
    (void)engine.process(chunk);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  const ClusterReport rep = engine.report();
  std::uint64_t batches_in = 0;
  std::uint64_t slow = 0;
  for (const auto& w : rep.workers) {
    if (w.index == 0) {
      batches_in = w.data_batches_in;
      slow = w.slow_batches;
    }
  }
  EXPECT_GT(slow, 0u);
  // Every 4th batch: strictly fewer delayed than consumed.
  EXPECT_LT(slow, batches_in);
}

// --- Detect → quarantine → re-route ---------------------------------------

TEST(GuardControllerLoop, QuarantinesTheSlowShardAndStaysExact) {
  ClusterConfig cfg = base_config(3);
  // Slot 2 (worker 2, replicas = 1) turns gray-slow from the first epoch:
  // +20 ms per batch, forever. The margin is deliberately huge: detection
  // compares measured wall service time, and a loaded CI machine can
  // deschedule a healthy worker for whole milliseconds mid-batch — the
  // injected delay must dwarf that noise, not just real service time.
  cfg.faults.events.push_back(
      FaultEvent{.kind = FaultKind::kSlowWorker, .worker = 2, .epoch = 1,
                 .after_batches = 0, .extra_delay_us = 20000.0,
                 .duration_batches = 0, .period = 1});

  ClusterEngine engine(cfg);
  elastic::Controller elastic(engine);
  GuardControllerConfig gcfg;
  // Evidence tuned for a short test run: judge after one epoch of data,
  // suspect after two slow epochs. The injected delay dwarfs both real
  // service time and scheduler noise, so an 8× ratio bar cannot frame a
  // healthy shard yet always convicts the gray one.
  gcfg.detector.min_epochs = 1;
  gcfg.detector.slow_ratio = 8.0;
  gcfg.detector.suspicion_add = 1.0;
  gcfg.detector.suspicion_threshold = 2.0;
  gcfg.min_live_slots = 2;
  gcfg.max_quarantines = 1;
  GuardController guard_ctl(engine, elastic, gcfg);

  const auto all = workload(900, 37);
  std::vector<stream::ResultTuple> got;
  std::vector<std::uint32_t> quarantined;
  for (const auto& chunk : chunked(all, 6)) {
    (void)engine.process(chunk);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    const auto q = guard_ctl.step();
    quarantined.insert(quarantined.end(), q.begin(), q.end());
  }

  // The loop closed: exactly the gray shard was drained, its keyslots
  // now live on the healthy peers, and not one tuple was lost or
  // double-counted through the migration.
  ASSERT_EQ(quarantined, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(engine.active_slot_count(), 2u);
  EXPECT_TRUE(engine.slot_retired(2));
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  ASSERT_EQ(guard_ctl.quarantines().size(), 1u);
  const QuarantineEvent& ev = guard_ctl.quarantines()[0];
  EXPECT_EQ(ev.slot, 2u);
  EXPECT_GE(ev.suspicion, gcfg.detector.suspicion_threshold);
  EXPECT_GT(ev.moved_keyslots, 0u);
  EXPECT_GE(ev.pause_seconds, 0.0);
  // The detector forgot the quarantined shard; the survivors are clean.
  EXPECT_EQ(guard_ctl.detector().find(2), nullptr);
  EXPECT_TRUE(guard_ctl.detector().suspects().empty());

  obs::MetricRegistry reg;
  guard_ctl.collect_metrics(reg, "guard.");
  const auto snap = reg.snapshot("quarantine");
  const auto* quarantines = snap.find("guard.quarantines");
  ASSERT_NE(quarantines, nullptr);
  EXPECT_EQ(quarantines->counter_value, 1u);
}

TEST(GuardControllerLoop, HealthyClusterIsNeverTouched) {
  ClusterConfig cfg = base_config(3);
  ClusterEngine engine(cfg);
  elastic::Controller elastic(engine);
  GuardControllerConfig gcfg;
  gcfg.detector.min_epochs = 1;
  gcfg.detector.slow_ratio = 50.0;  // noise-proof bar for a no-fault run
  GuardController guard_ctl(engine, elastic, gcfg);

  const auto all = workload(600, 43);
  for (const auto& chunk : chunked(all, 4)) {
    (void)engine.process(chunk);
    (void)engine.take_results();
    EXPECT_TRUE(guard_ctl.step().empty());
  }
  EXPECT_TRUE(guard_ctl.quarantines().empty());
  EXPECT_EQ(engine.active_slot_count(), 3u);
  EXPECT_EQ(guard_ctl.steps(), 4u);
}

TEST(GuardControllerLoop, MinLiveSlotsBlocksTheLastQuarantine) {
  ClusterConfig cfg = base_config(2);
  cfg.faults.events.push_back(
      FaultEvent{.kind = FaultKind::kSlowWorker, .worker = 1, .epoch = 1,
                 .after_batches = 0, .extra_delay_us = 20000.0,
                 .duration_batches = 0, .period = 1});
  ClusterEngine engine(cfg);
  elastic::Controller elastic(engine);
  GuardControllerConfig gcfg;
  gcfg.detector.min_epochs = 1;
  gcfg.detector.slow_ratio = 8.0;
  gcfg.detector.suspicion_threshold = 2.0;
  gcfg.min_live_slots = 2;  // quarantining 1-of-2 would violate this
  GuardController guard_ctl(engine, elastic, gcfg);

  const auto all = workload(600, 47);
  std::vector<stream::ResultTuple> got;
  bool suspected = false;
  for (const auto& chunk : chunked(all, 5)) {
    (void)engine.process(chunk);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
    EXPECT_TRUE(guard_ctl.step().empty());
    // Sample inside the loop: suspicion decays while an epoch looks
    // healthy, and a loaded CI box can make the peer's EWMA look bad
    // enough near the end of the run to drop the suspect below the
    // threshold again. What must hold is that detection fired at all.
    suspected = suspected || !guard_ctl.detector().suspects().empty();
  }
  // Detection still reports the suspect; mitigation is what is blocked.
  EXPECT_TRUE(suspected);
  EXPECT_EQ(engine.active_slot_count(), 2u);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));
}

// --- Breaker → replica failover -------------------------------------------

// A one-way partition on one replica's ingress wire: the router's send
// budget expires against the dead credit window, the breaker opens, the
// worker is abandoned, and the shard's replica serves the epoch — the
// stream stays exact and the stall never reaches epoch scale.
TEST(BreakerFailover, PartitionedIngressFailsOverToReplica) {
  ClusterConfig cfg = base_config(2);
  cfg.replicas = 2;
  cfg.transport.link_transport = net::TransportKind::kTcp;
  cfg.transport.net_window_frames = 4;  // small credit window: the
                                        // partition bites within an epoch
  // 100 ms then give up: long enough that a healthy link's credit window
  // always clears even when the scheduler sits on the receiving worker
  // for tens of milliseconds, short enough that a real partition trips
  // well inside an epoch (the partition lasts 60 s).
  cfg.transport.ingress.send_budget_us = 100000.0;
  cfg.transport.ingress.breaker_trip_failures = 1;
  // Sever worker 0's ingress wire early and keep it down past the end of
  // the run; no other worker is faulted.
  cfg.transport.net_fault.partition_after_frames = 6;
  cfg.transport.net_fault.partition_seconds = 60.0;
  cfg.transport.net_fault_workers = {0};

  const auto all = workload(600, 53);
  ClusterEngine engine(cfg);
  std::vector<stream::ResultTuple> got;
  for (const auto& chunk : chunked(all, 4)) {
    (void)engine.process(chunk);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  const ClusterReport rep = engine.report();
  EXPECT_GT(rep.budget_exhausted, 0u);
  EXPECT_GE(rep.breaker_trips, 1u);
  EXPECT_GE(rep.failovers, 1u);
  EXPECT_FALSE(rep.degraded);  // the replica covered every epoch
  EXPECT_EQ(rep.lost_tuples, 0u);
}

// Without a budget the same partition would stall process() until the
// TCP layer recovers; with a budget but no replica the cluster degrades
// cleanly instead of wedging — loss is counted, survivors keep serving.
TEST(BreakerFailover, NoReplicaDegradesCleanlyInsteadOfWedging) {
  ClusterConfig cfg = base_config(2);
  cfg.transport.link_transport = net::TransportKind::kTcp;
  cfg.transport.net_window_frames = 4;
  cfg.transport.ingress.send_budget_us = 100000.0;  // margin: see above
  cfg.transport.ingress.breaker_trip_failures = 1;
  cfg.transport.net_fault.partition_after_frames = 6;
  cfg.transport.net_fault.partition_seconds = 60.0;
  cfg.transport.net_fault_workers = {0};

  const auto all = workload(600, 59);
  ClusterEngine engine(cfg);
  std::vector<stream::ResultTuple> got;
  for (const auto& chunk : chunked(all, 4)) {
    (void)engine.process(chunk);  // must return — no epoch-long stall
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
  }
  const ClusterReport rep = engine.report();
  EXPECT_GT(rep.budget_exhausted, 0u);
  EXPECT_GE(rep.breaker_trips, 1u);
  EXPECT_TRUE(rep.degraded);
  // The surviving shard's keys still join exactly: the output is a
  // sub-multiset of the oracle, never an invention. normalize() returns
  // sorted (r_seq, s_seq) pairs, so std::includes checks containment.
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  const auto expected = normalize(oracle.process_all(all));
  const auto produced = normalize(got);
  EXPECT_LT(produced.size(), expected.size());
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                            produced.begin(), produced.end()));
}

// One ingress frame per worker per epoch, and a partition that swallows
// epoch 3's: the router's send of it succeeded before the partition cut
// the link, so no send is left to run out of its budget. The collect wait
// sees the frame sit undelivered past the budget and abandons the worker
// instead of waiting out the 3 s partition.
ClusterConfig partition_after_only_frame(std::uint32_t replicas) {
  ClusterConfig cfg = base_config(2);
  cfg.replicas = replicas;
  cfg.transport.batch_size = 1024;  // each epoch is one end-of-epoch frame
  cfg.transport.link_transport = net::TransportKind::kTcp;
  cfg.transport.net_window_frames = 4;
  cfg.transport.ingress.send_budget_us = 100000.0;  // margin: see above
  cfg.transport.ingress.breaker_trip_failures = 1;
  cfg.transport.net_fault.partition_after_frames = 2;
  cfg.transport.net_fault.partition_seconds = 3.0;
  cfg.transport.net_fault_workers = {0};
  return cfg;
}

// Runs `all` as six epochs; each process() must return within
// `max_seconds`, well before the partition heals.
std::vector<stream::ResultTuple> run_six_epochs(ClusterEngine& engine,
                                                const std::vector<Tuple>& all,
                                                double max_seconds = 1.0) {
  std::vector<stream::ResultTuple> got;
  for (const auto& chunk : chunked(all, 6)) {
    const auto start = std::chrono::steady_clock::now();
    (void)engine.process(chunk);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), max_seconds)
        << "process() waited for the partition";
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
  }
  return got;
}

TEST(BreakerFailover, PartitionAfterAnEpochsOnlyFrameFailsOverToReplica) {
  const ClusterConfig cfg = partition_after_only_frame(2);
  const auto all = workload(600, 61);
  ClusterEngine engine(cfg);
  const auto got = run_six_epochs(engine, all);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.budget_exhausted, 1u);
  EXPECT_GE(rep.breaker_trips, 1u);
  EXPECT_GE(rep.failovers, 1u);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.lost_tuples, 0u);
}

TEST(BreakerFailover, PartitionAfterAnEpochsOnlyFrameDegradesCleanly) {
  const ClusterConfig cfg = partition_after_only_frame(1);
  const auto all = workload(600, 67);
  ClusterEngine engine(cfg);
  const auto got = run_six_epochs(engine, all);

  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.budget_exhausted, 1u);
  EXPECT_GE(rep.breaker_trips, 1u);
  EXPECT_TRUE(rep.degraded);
  EXPECT_GT(rep.lost_tuples, 0u);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  const auto expected = normalize(oracle.process_all(all));
  const auto produced = normalize(got);
  EXPECT_LT(produced.size(), expected.size());
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                            produced.begin(), produced.end()));
}

// No send budget, and a partition that outlasts the ingress dialer's
// connect timeout: the dialer gives up for good with epoch 3's frame
// unacknowledged, so no redial will ever deliver it. The collect wait sees
// the producer connection closed with the frame still undelivered and
// abandons the worker — uncounted, as no budget ran out — instead of
// waiting forever.
ClusterConfig given_up_unbudgeted_ingress(std::uint32_t replicas) {
  ClusterConfig cfg = base_config(2);
  cfg.replicas = replicas;
  cfg.transport.batch_size = 1024;  // each epoch is one end-of-epoch frame
  cfg.transport.link_transport = net::TransportKind::kTcp;
  cfg.transport.net_window_frames = 4;
  cfg.transport.net_connect_timeout_s = 0.5;
  cfg.transport.net_fault.partition_after_frames = 2;
  cfg.transport.net_fault.partition_seconds = 5.0;
  cfg.transport.net_fault_workers = {0};
  return cfg;
}

TEST(BreakerFailover, GivenUpUnbudgetedIngressFailsOverToReplica) {
  const ClusterConfig cfg = given_up_unbudgeted_ingress(2);
  const auto all = workload(600, 71);
  ClusterEngine engine(cfg);
  const auto got = run_six_epochs(engine, all, 2.0);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));

  const ClusterReport rep = engine.report();
  EXPECT_EQ(rep.budget_exhausted, 0u);
  EXPECT_GE(rep.failovers, 1u);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.lost_tuples, 0u);
}

TEST(BreakerFailover, GivenUpUnbudgetedIngressDegradesCleanly) {
  const ClusterConfig cfg = given_up_unbudgeted_ingress(1);
  const auto all = workload(600, 73);
  ClusterEngine engine(cfg);
  const auto got = run_six_epochs(engine, all, 2.0);

  const ClusterReport rep = engine.report();
  EXPECT_EQ(rep.budget_exhausted, 0u);
  EXPECT_TRUE(rep.degraded);
  EXPECT_GT(rep.lost_tuples, 0u);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  const auto expected = normalize(oracle.process_all(all));
  const auto produced = normalize(got);
  EXPECT_LT(produced.size(), expected.size());
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                            produced.begin(), produced.end()));
}

}  // namespace
}  // namespace hal::guard
