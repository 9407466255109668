// hal::cluster targeted suite: exactness of both partitioning schemes
// against the single-node oracle, the partitioned-local window discipline
// against its per-shard oracle, replica failover and clean degradation
// under fault injection, backpressure accounting, and the modeled
// transport (latency floor, bandwidth pacing vs. PathModel).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <span>
#include <thread>

#include "cluster/cluster_engine.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::cluster {
namespace {

using core::Backend;
using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::ResultTuple;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed,
                            std::uint32_t key_domain = 32) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

ClusterConfig base_config() {
  ClusterConfig cfg;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 16;
  return cfg;
}

TEST(ClusterEngine, KeyHashExactMatchesOracle) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 4;
  ClusterEngine engine(cfg);

  const auto tuples = workload(600, 7);
  const auto run = engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  EXPECT_EQ(run.tuples_processed, tuples.size());
  EXPECT_FALSE(run.cycles.has_value());

  const ClusterReport rep = engine.report();
  EXPECT_EQ(rep.input_tuples, tuples.size());
  EXPECT_EQ(rep.routed_tuples, tuples.size());  // key-hash: no replication
  EXPECT_EQ(rep.failovers, 0u);
  EXPECT_FALSE(rep.degraded);
  std::uint64_t tuples_in = 0;
  for (const auto& w : rep.workers) tuples_in += w.tuples_in;
  EXPECT_EQ(tuples_in, tuples.size());
}

TEST(ClusterEngine, SplitGridExactMatchesOracleOnBandJoin) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kSplitGrid;
  cfg.grid_rows = 2;
  cfg.grid_cols = 2;
  cfg.window_size = 48;
  cfg.spec = JoinSpec::band_on_key(2);
  ClusterEngine engine(cfg);

  const auto tuples = workload(500, 11);
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  // Every tuple visits one full grid dimension.
  EXPECT_EQ(engine.report().routed_tuples, 2 * tuples.size());
}

TEST(ClusterEngine, NonSquareGridNeedsAndUsesWindowFilter) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kSplitGrid;
  cfg.grid_rows = 2;
  cfg.grid_cols = 3;
  cfg.window_size = 48;
  cfg.spec = JoinSpec();  // cross product stresses the window edges
  ClusterEngine engine(cfg);

  const auto tuples = workload(300, 13, 8);
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  // The asymmetric slice (W/2 vs W/3) must have produced stale pairs,
  // which the workers dropped and counted.
  const ClusterReport rep = engine.report();
  EXPECT_GT(rep.filtered_results, 0u);
  std::uint64_t emitted = 0;
  for (const auto& w : rep.workers) emitted += w.results_out;
  EXPECT_EQ(emitted, rep.merged_results + rep.filtered_results);
}

TEST(ClusterEngine, MixedBackendsPerShardMatchOracle) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 3;
  cfg.window_size = 48;
  cfg.worker_overrides.resize(3, cfg.worker);
  cfg.worker_overrides[0].backend = Backend::kSwSplitJoin;
  cfg.worker_overrides[0].num_cores = 2;
  cfg.worker_overrides[1].backend = Backend::kHwUniflow;
  cfg.worker_overrides[1].num_cores = 2;
  cfg.worker_overrides[2].backend = Backend::kSwBatch;
  cfg.worker_overrides[2].num_cores = 1;
  ClusterEngine engine(cfg);

  const auto tuples = workload(400, 17);
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  const ClusterReport rep = engine.report();
  EXPECT_EQ(rep.workers[0].backend, Backend::kSwSplitJoin);
  EXPECT_EQ(rep.workers[1].backend, Backend::kHwUniflow);
  EXPECT_EQ(rep.workers[2].backend, Backend::kSwBatch);
}

TEST(ClusterEngine, PartitionedLocalMatchesPerShardOracle) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.window_mode = WindowMode::kPartitionedLocal;
  cfg.shards = 4;
  cfg.window_size = 64;  // 16 per shard
  ClusterEngine engine(cfg);

  const auto tuples = workload(800, 19);
  engine.process(tuples);

  // Per-partition count-based windows: each shard is its own reference
  // join of W/shards over its key range.
  Router router(Partitioning::kKeyHash, 1, cfg.shards);
  std::vector<ReferenceJoin> oracles;
  for (std::uint32_t s = 0; s < cfg.shards; ++s) {
    oracles.emplace_back(cfg.window_size / cfg.shards, cfg.spec);
  }
  std::vector<ResultTuple> expected;
  router.route_span(std::span<const Tuple>(tuples),
                    [&](const Tuple& t, std::uint32_t slot) {
                      oracles[slot].process(t, expected);
                    });
  EXPECT_EQ(normalize(engine.take_results()), normalize(expected));
}

TEST(ClusterEngine, MultiEpochAndPrefillMatchOracle) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  ClusterEngine engine(cfg);

  const auto warm = workload(100, 23);
  auto rest = workload(300, 29);
  // prefill() must not probe: re-sequence so arrival order is coherent.
  for (std::size_t i = 0; i < rest.size(); ++i) {
    rest[i].seq = warm.size() + i;
  }
  engine.prefill(warm);
  // Two epochs over the remainder.
  const std::size_t half = rest.size() / 2;
  const std::vector<Tuple> first(rest.begin(), rest.begin() + half);
  const std::vector<Tuple> second(rest.begin() + half, rest.end());
  engine.process(first);
  engine.process(second);

  // Oracle: stream everything, but keep only results probed after warmup.
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  std::vector<Tuple> all = warm;
  all.insert(all.end(), rest.begin(), rest.end());
  auto full = oracle.process_all(all);
  std::erase_if(full, [&](const ResultTuple& rt) {
    return std::max(rt.r.seq, rt.s.seq) < warm.size();
  });
  EXPECT_EQ(normalize(engine.take_results()), normalize(full));
}

TEST(ClusterEngine, FailoverKeepsResultsByteIdentical) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.replicas = 2;
  // Kill slot 0's primary after 2 batches (epoch 0: whole-run counting).
  cfg.faults.events.push_back(FaultEvent{
      .kind = FaultKind::kKillWorker, .worker = 0, .after_batches = 2});
  ClusterEngine engine(cfg);

  const auto tuples = workload(600, 31);
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

TEST(ClusterEngine, ReplicaLessDropDegradesCleanly) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.faults.events.push_back(FaultEvent{
      .kind = FaultKind::kKillWorker, .worker = 1, .after_batches = 0});
  ClusterEngine engine(cfg);

  const auto tuples = workload(400, 37);
  const auto run = engine.process(tuples);  // must not hang
  const ClusterReport rep = engine.report();
  EXPECT_TRUE(rep.degraded);
  EXPECT_GT(rep.lost_tuples, 0u);
  EXPECT_TRUE(rep.workers[1].dropped);

  // The surviving shard still answers exactly for its key range.
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  auto expected = normalize(oracle.process_all(tuples));
  auto got = normalize(engine.take_results());
  EXPECT_LT(got.size(), expected.size());
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                            got.end()));
  EXPECT_EQ(run.tuples_processed, tuples.size());
}

TEST(ClusterEngine, BackpressureStallsAreCounted) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.window_size = 4096;  // slow nested-loop workers
  cfg.transport.batch_size = 8;
  cfg.transport.ingress.capacity_batches = 2;
  cfg.window_mode = WindowMode::kPartitionedLocal;
  ClusterEngine engine(cfg);

  engine.process(workload(6000, 41, 1 << 16));
  const ClusterReport rep = engine.report();
  EXPECT_GT(rep.router_stall_spins, 0u);
  EXPECT_GE(rep.ingress_queue_high_water, 2u);
}

TEST(ClusterEngine, TransportLatencyFloorIsModeled) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 1;
  cfg.transport.ingress.latency_us = 1500.0;
  cfg.transport.egress.latency_us = 1500.0;
  ClusterEngine engine(cfg);

  const auto run = engine.process(workload(32, 43));
  EXPECT_GE(run.elapsed_seconds, 2.5e-3);  // ≥ ingress + egress latency
}

TEST(ClusterEngine, BandwidthPacingTracksPathModel) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 1;
  cfg.window_size = 16;  // keep the worker far from the bottleneck
  cfg.transport.batch_size = 64;
  cfg.transport.ingress.bandwidth_tps = 1e6;
  ClusterEngine engine(cfg);

  const auto tuples = workload(20000, 47, 1 << 16);
  const auto run = engine.process(tuples);
  const double measured_tps =
      static_cast<double>(tuples.size()) / run.elapsed_seconds;

  const auto path = shard_path_model(cfg.transport, /*worker_tps=*/1e8,
                                     /*result_selectivity=*/1.0,
                                     "throttled-shard");
  const double predicted_tps = path.sustainable_input_tps();
  EXPECT_DOUBLE_EQ(predicted_tps, 1e6);  // the link is the bottleneck
  EXPECT_LT(measured_tps, 1.3 * predicted_tps);
  // Sanitizers slow the runtime enough that the worker, not the modeled
  // link, becomes the bottleneck; keep only a token lower bound there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  EXPECT_GT(measured_tps, 0.0);
#else
  EXPECT_GT(measured_tps, 0.4 * predicted_tps);
#endif
}

TEST(ClusterEngine, DelayedLinkFaultSlowsTheEpoch) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.faults.events.push_back(FaultEvent{.kind = FaultKind::kDelayLink,
                                         .worker = 0,
                                         .extra_delay_us = 3000.0});
  ClusterEngine engine(cfg);

  const auto tuples = workload(200, 53);
  const auto run = engine.process(tuples);
  EXPECT_GE(run.elapsed_seconds, 2.5e-3);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
}

TEST(ClusterEngine, FacadeBuildsClustersTransparently) {
  core::EngineConfig cfg;
  cfg.backend = Backend::kCluster;
  cfg.cluster_shards = 4;
  cfg.cluster_worker_backend = Backend::kSwSplitJoin;
  cfg.num_cores = 1;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  auto engine = core::make_engine(cfg);
  EXPECT_EQ(engine->backend(), Backend::kCluster);
  EXPECT_STREQ(core::to_string(engine->backend()), "cluster");
  EXPECT_FALSE(engine->design_stats().has_value());

  const auto tuples = workload(500, 59);
  engine->process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine->take_results()),
            normalize(oracle.process_all(tuples)));
}

TEST(ClusterEngine, FacadeFallsBackToGridForNonEquiSpecs) {
  core::EngineConfig cfg;
  cfg.backend = Backend::kCluster;
  cfg.cluster_shards = 6;  // factors to a 2×3 grid
  cfg.num_cores = 1;
  cfg.window_size = 48;
  cfg.spec = JoinSpec::band_on_key(1);
  auto engine = core::make_engine(cfg);

  const auto tuples = workload(400, 61);
  engine->process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine->take_results()),
            normalize(oracle.process_all(tuples)));
}

TEST(ClusterTransport, PipelineParamsMapOntoLinks) {
  dist::PipelineParams p;
  p.switch_tps = 40e6;
  p.nic_tps = 30e6;
  p.switch_latency_us = 5.0;
  p.nic_latency_us = 20.0;
  const auto t = TransportParams::from_pipeline(p);
  EXPECT_DOUBLE_EQ(t.ingress.bandwidth_tps, 30e6);
  EXPECT_DOUBLE_EQ(t.ingress.latency_us, 25.0);
  EXPECT_DOUBLE_EQ(t.egress.bandwidth_tps, 30e6);
  const auto path = shard_path_model(t, 5e6, 0.2, "iot-shard");
  EXPECT_DOUBLE_EQ(path.sustainable_input_tps(), 5e6);
  EXPECT_GT(path.end_to_end_latency_us(), 40.0);
}

// Seq is the run's arrival index; a repeat is rejected before the engine
// changes any state, so the run continues exactly after the rejection.
TEST(ClusterEngine, NonIncreasingSeqThrowsBeforeAnyStateChange) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  ClusterEngine engine(cfg);

  const auto tuples = workload(300, 37);
  const std::vector<Tuple> first(tuples.begin(), tuples.begin() + 150);
  const std::vector<Tuple> rest(tuples.begin() + 150, tuples.end());
  engine.process(first);

  std::vector<Tuple> repeats_last_epoch = rest;
  repeats_last_epoch.front().seq = first.back().seq;
  EXPECT_THROW(engine.process(repeats_last_epoch), PreconditionError);
  EXPECT_THROW(engine.prefill(repeats_last_epoch), PreconditionError);
  // The repeat sits at the end: the whole input is checked up front.
  std::vector<Tuple> repeats_within = rest;
  repeats_within.back().seq = repeats_within[rest.size() - 2].seq;
  EXPECT_THROW(engine.process(repeats_within), PreconditionError);
  EXPECT_EQ(engine.report().input_tuples, first.size());

  engine.process(rest);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
}

// The horizon state follows the window, not the run: 200 epochs of W/4
// tuples, every one with results, keep the router's stamper within 2W.
TEST(ClusterEngine, ExactGlobalTrackerStateStaysWindowBounded) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  ClusterEngine engine(cfg);

  const std::size_t epoch_tuples = cfg.window_size / 4;
  const auto tuples = workload(200 * epoch_tuples, 41, 8);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  for (std::size_t lo = 0; lo < tuples.size(); lo += epoch_tuples) {
    const std::vector<Tuple> epoch(
        tuples.begin() + static_cast<std::ptrdiff_t>(lo),
        tuples.begin() + static_cast<std::ptrdiff_t>(lo + epoch_tuples));
    ASSERT_GT(engine.process(epoch).results_emitted, 0u);
    ASSERT_EQ(normalize(engine.take_results()),
              normalize(oracle.process_all(epoch)));

    obs::MetricRegistry reg;
    engine.collect_metrics(reg, "cluster.");
    const obs::ObsSnapshot snap = reg.snapshot("tracker-bound");
    const auto* retained = snap.find("cluster.tracker.retained_arrivals");
    ASSERT_NE(retained, nullptr);
    ASSERT_LE(retained->gauge_value,
              static_cast<double>(2 * cfg.window_size));
  }
}

// The park counters of the cluster's own waits and of its SplitJoin
// workers' engines are exported, and an idle gap between epochs adds
// parks: every waiter escalates to its doorbell within the gap. The
// workers get two cores each: a 1-core engine runs on its worker's
// thread and never waits, so it has no parks to count.
TEST(ClusterEngine, ParkCountersRiseAcrossAnIdleGap) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.worker.num_cores = 2;
  ClusterEngine engine(cfg);
  const auto tuples = workload(128, 7);
  // {cluster.parks, worker 0's engine parks}; all four counters must be
  // exported as runtime metrics.
  const auto parks = [&engine] {
    obs::MetricRegistry reg;
    engine.collect_metrics(reg, "cluster.");
    const obs::ObsSnapshot snap = reg.snapshot("parks");
    const auto count = [&snap](const char* name) -> std::uint64_t {
      const auto* m = snap.find(name);
      EXPECT_NE(m, nullptr) << name;
      if (m == nullptr) return 0;
      EXPECT_EQ(m->stability, obs::Stability::kRuntime) << name;
      return m->counter_value;
    };
    (void)count("cluster.park_timeouts");
    (void)count("cluster.worker.0.engine.park_timeouts");
    return std::array{count("cluster.parks"),
                      count("cluster.worker.0.engine.parks")};
  };
  engine.process({tuples.begin(), tuples.begin() + 64});
  const auto before = parks();
  // 5 ms of idle. On a loaded host a waiter can still be in its yield
  // phase by then, so the gap stretches until both show a park (2 s cap).
  auto after = before;
  for (int i = 0; i < 400 && (after[0] == before[0] || after[1] == before[1]);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    after = parks();
  }
  EXPECT_GT(after[0], before[0]) << "cluster.parks";
  EXPECT_GT(after[1], before[1]) << "worker engine parks";
  engine.process({tuples.begin() + 64, tuples.end()});
}

std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? 0 : n;
}

// The process() thread merges the results and restarts dead workers
// itself, so an in-process cluster of 1-core workers runs one thread per
// worker, supervised or not.
TEST(ClusterEngine, RunsOneThreadPerLocalWorker) {
  // A sanitizer runtime starts a helper thread of its own on the first
  // thread creation; let that happen before the baseline count.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task on this host";
  for (const bool supervise : {false, true}) {
    SCOPED_TRACE(supervise ? "supervised" : "unsupervised");
    ClusterConfig cfg = base_config();
    cfg.partitioning = Partitioning::kKeyHash;
    cfg.shards = 2;
    cfg.replicas = 2;
    cfg.recovery.supervise = supervise;
    ClusterEngine engine(cfg);
    EXPECT_EQ(thread_count(), before + 4);
    engine.process(workload(400, 7));
    EXPECT_EQ(thread_count(), before + 4);
  }
}

// A supervised worker killed with its two-batch inbox full is restarted
// from inside the router's stalled send, and its replay from epoch 0
// fills its two-batch result link: the stalled send must keep draining
// results, or the router waits forever.
TEST(ClusterEngine, FullLinksDoNotWedgeASupervisedRestart) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.window_size = 256;
  cfg.transport.batch_size = 8;
  cfg.transport.ingress.capacity_batches = 2;
  cfg.transport.egress.capacity_batches = 2;
  cfg.recovery.supervise = true;
  cfg.recovery.checkpoint_interval_epochs = 0;  // restarts replay from 0
  cfg.faults.events.push_back(FaultEvent{.kind = FaultKind::kKillWorker,
                                         .worker = 0,
                                         .epoch = 2,
                                         .after_batches = 20});
  ClusterEngine engine(cfg);

  constexpr std::size_t kEpoch = 1000;
  const auto tuples = workload(3 * kEpoch, 53, 8);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t at = 0; at < tuples.size(); at += kEpoch) {
    engine.process({tuples.begin() + static_cast<std::ptrdiff_t>(at),
                    tuples.begin() + static_cast<std::ptrdiff_t>(at + kEpoch)});
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.recovery.restarts, 1u);
  EXPECT_GT(rep.recovery.replayed_batches, 2u);
  EXPECT_LT(took.count(), 30.0);
}

// Exact-global workers keep their arrivals' horizons for the current
// epoch only, so the cluster refuses workers that emit a pair after its
// probe's epoch: a multi-core handshake or bi-flow chain finds a
// cross-core pair only when a later arrival hands one of its tuples over.
TEST(ClusterEngine, ExactGlobalRejectsWorkersThatEmitAfterTheProbeEpoch) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.worker.backend = Backend::kSwHandshake;
  cfg.worker.num_cores = 4;
  EXPECT_THROW(ClusterEngine{cfg}, PreconditionError);

  ClusterConfig mixed = base_config();
  mixed.partitioning = Partitioning::kKeyHash;
  mixed.shards = 2;
  mixed.worker_overrides.resize(2, mixed.worker);
  mixed.worker_overrides[1].backend = Backend::kHwBiflow;
  mixed.worker_overrides[1].num_cores = 2;
  EXPECT_THROW(ClusterEngine{mixed}, PreconditionError);

  core::EngineConfig facade;  // facade defaults: 4 cores, exact-global
  facade.backend = Backend::kCluster;
  facade.cluster_worker_backend = Backend::kSwHandshake;
  facade.window_size = 64;
  EXPECT_THROW((void)core::make_engine(facade), PreconditionError);
}

// A one-core chain scans its whole window on entry, so it stays a valid
// exact-global worker across epochs.
TEST(ClusterEngine, SingleCoreHandshakeWorkersStayExactAcrossEpochs) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.worker.backend = Backend::kSwHandshake;
  cfg.worker.num_cores = 1;
  ClusterEngine engine(cfg);

  const auto tuples = workload(640, 43, 8);
  for (std::size_t lo = 0; lo < tuples.size(); lo += 16) {
    engine.process({tuples.begin() + static_cast<std::ptrdiff_t>(lo),
                    tuples.begin() + static_cast<std::ptrdiff_t>(lo + 16)});
  }
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
}

// Partitioned-local windows drop no stale pairs, so 4-core handshake
// workers run there across many epochs — and do emit pairs whose probe
// arrived in an earlier epoch, which is why exact-global mode refuses them.
TEST(ClusterEngine, MultiCoreHandshakeWorkersRunPartitionedLocalAcrossEpochs) {
  ClusterConfig cfg = base_config();
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.window_mode = WindowMode::kPartitionedLocal;
  cfg.shards = 2;
  cfg.window_size = 128;  // 64 per shard, 16 per core
  cfg.worker.backend = Backend::kSwHandshake;
  cfg.worker.num_cores = 4;
  ClusterEngine engine(cfg);

  const auto tuples = workload(1600, 47, 8);
  std::vector<ResultTuple> results;
  std::size_t late = 0;
  for (std::size_t lo = 0; lo < tuples.size(); lo += 16) {
    engine.process({tuples.begin() + static_cast<std::ptrdiff_t>(lo),
                    tuples.begin() + static_cast<std::ptrdiff_t>(lo + 16)});
    for (const ResultTuple& rt : engine.take_results()) {
      if (std::max(rt.r.seq, rt.s.seq) < tuples[lo].seq) ++late;
      results.push_back(rt);
    }
  }
  ASSERT_FALSE(results.empty());
  EXPECT_GT(late, 0u);
  for (const ResultTuple& rt : results) EXPECT_EQ(rt.r.key, rt.s.key);
}

TEST(ClusterRouter, WindowTrackerMatchesReferenceSemantics) {
  WindowTracker tracker;
  std::vector<Tuple> tuples;
  for (std::uint32_t i = 0; i < 8; ++i) {
    Tuple t;
    t.key = 1;
    t.seq = i;
    t.origin = (i % 2 == 0) ? stream::StreamId::R : stream::StreamId::S;
    tuples.push_back(t);
    tracker.observe(t);
  }
  // W=2: R tuples seq {0,2,4,6}; probe s=seq7 sees window {4,6} only.
  ResultTuple in_window{tuples[4], tuples[7]};
  ResultTuple evicted{tuples[2], tuples[7]};
  EXPECT_TRUE(tracker.pair_in_window(in_window, 2));
  EXPECT_FALSE(tracker.pair_in_window(evicted, 2));
}

// Remote workers are configured apart from the coordinator, so a late
// result is reported as a precondition failure, not an abort.
TEST(ClusterRouter, WindowTrackerRejectsAProbeFromAnEarlierEpoch) {
  WindowTracker tracker;
  std::vector<Tuple> tuples;
  for (std::uint32_t i = 0; i < 8; ++i) {
    Tuple t;
    t.key = 1;
    t.seq = i;
    t.origin = (i % 2 == 0) ? stream::StreamId::R : stream::StreamId::S;
    tuples.push_back(t);
  }
  for (std::size_t i = 0; i < 4; ++i) tracker.observe(tuples[i]);
  EXPECT_TRUE(tracker.pair_in_window(ResultTuple{tuples[2], tuples[3]}, 4));
  for (std::size_t i = 4; i < 8; ++i) tracker.observe(tuples[i]);
  EXPECT_TRUE(tracker.pair_in_window(ResultTuple{tuples[4], tuples[7]}, 4));
  EXPECT_THROW((void)tracker.pair_in_window(
                   ResultTuple{tuples[0], tuples[3]}, 4),
               PreconditionError);
}

// WindowTracker against a brute-force per-stream prefix-count oracle:
// stored q (stream X) is in probe p's window iff at most W arrivals of X,
// q included, precede p. Driven the way the coordinators drive it — a
// prefill, then epochs of 0..3W arrivals with seq gaps like those guard
// shedding leaves, some epochs without results (the next one then runs
// on from them) — and every (r, s) pair whose probe arrived since the
// last check round is checked against the whole history, so stored
// tuples trimmed long ago are covered too. The router's horizon stamps,
// taken on the same arrivals, must give the same verdict on every pair:
// q.seq >= stamp(p) iff the tracker keeps the pair.
struct TrackerCase {
  double r_fraction;
  std::size_t window;
};

class WindowTrackerOracleTest : public ::testing::TestWithParam<TrackerCase> {
};

TEST_P(WindowTrackerOracleTest, MatchesPrefixCountOracle) {
  const auto [r_fraction, window] = GetParam();
  stream::WorkloadConfig wl;
  wl.seed = 7919 * window + static_cast<std::uint64_t>(100 * r_fraction);
  wl.r_fraction = r_fraction;
  wl.deterministic_interleave = false;
  stream::WorkloadGenerator gen(wl);
  Rng rng(wl.seed);

  WindowTracker tracker;
  HorizonStamper horizons(window);
  std::vector<Tuple> history;
  std::vector<std::uint64_t> stamps;  // per arrival: its router stamp
  std::vector<std::uint64_t> r_before;  // per arrival: earlier R arrivals
  std::vector<std::uint64_t> s_before;
  std::uint64_t r_seen = 0;
  std::uint64_t s_seen = 0;
  bool window_fixed = false;    // a pair check has run
  bool rollover = false;        // ...since the last arrival
  std::size_t epoch_start = 0;  // first arrival of the tracker's epoch
  const auto arrive = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      Tuple t = gen.next();
      while (rng.next_bool(0.25)) t = gen.next();  // shed: a seq gap
      if (rollover) epoch_start = history.size();
      rollover = false;
      tracker.observe(t);
      stamps.push_back(horizons.stamp(t));
      history.push_back(t);
      r_before.push_back(r_seen);
      s_before.push_back(s_seen);
      ++(t.origin == stream::StreamId::R ? r_seen : s_seen);
    }
  };

  std::size_t round_start = 0;
  std::uint64_t checked = 0;
  arrive(rng.next_below(2 * window + 1));  // prefill: no results
  for (int round = 0; round < 40; ++round) {
    arrive(rng.next_below(3 * window + 1));
    if (window_fixed) {
      ASSERT_LE(tracker.retained(),
                2 * window + (history.size() - epoch_start));
    }
    ASSERT_LE(horizons.retained(), 2 * window);
    if (rng.next_bool(0.2)) continue;  // no results this epoch
    for (std::size_t p = round_start; p < history.size(); ++p) {
      for (std::size_t q = 0; q < p; ++q) {
        if (history[q].origin == history[p].origin) continue;
        const bool q_is_r = history[q].origin == stream::StreamId::R;
        const std::uint64_t preceding =
            q_is_r ? r_before[p] - r_before[q] : s_before[p] - s_before[q];
        const ResultTuple pair = q_is_r ? ResultTuple{history[q], history[p]}
                                        : ResultTuple{history[p], history[q]};
        const bool in_window = tracker.pair_in_window(pair, window);
        ASSERT_EQ(in_window, preceding <= window)
            << "probe seq " << history[p].seq << ", stored seq "
            << history[q].seq << ", W " << window;
        ASSERT_EQ(history[q].seq >= stamps[p], in_window)
            << "stamp " << stamps[p] << " of probe seq " << history[p].seq
            << ", stored seq " << history[q].seq << ", W " << window;
        window_fixed = rollover = true;
        ++checked;
      }
    }
    round_start = history.size();
  }
  EXPECT_GT(checked, 0u);
  EXPECT_THROW((void)tracker.pair_in_window(ResultTuple{history[0], history[1]},
                                            window + 1),
               PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowTrackerOracleTest,
    ::testing::ValuesIn([] {
      std::vector<TrackerCase> cases;
      for (const double r : {0.2, 0.5, 0.8}) {
        for (const std::size_t w : {1u, 2u, 7u, 64u}) cases.push_back({r, w});
      }
      return cases;
    }()),
    [](const auto& info) {
      const int r_percent = static_cast<int>(100 * info.param.r_fraction);
      return "r" + std::to_string(r_percent) + "_w" +
             std::to_string(info.param.window);
    });

}  // namespace
}  // namespace hal::cluster
