// hal::recovery supervised-restart suite — the failure-transparency
// contract: with supervision on, a worker killed mid-epoch is restarted
// from its newest checkpoint, replays the since-checkpoint ingress delta,
// and the cluster's output multiset stays byte-identical to the
// fault-free single-node oracle, across every sw backend and over modeled
// SPSC links as well as real loopback/TCP sockets. Also pinned here: the
// deterministic obs projection of a faulted run is reproducible, the
// cluster-level deterministic counters match the fault-free run, and a
// replay log too small for the delta degrades cleanly instead of lying.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "obs/export.h"
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

ClusterConfig supervised_config(Backend backend,
                                net::TransportKind transport) {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.replicas = 1;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = backend;
  // The multi-core handshake chain is only exact within a window
  // tolerance; its single-core degenerate form is the eager oracle, which
  // is what a byte-identical differential needs.
  cfg.worker.num_cores = backend == Backend::kSwHandshake ? 1 : 2;
  cfg.transport.batch_size = 16;
  cfg.transport.link_transport = transport;
  cfg.recovery.supervise = true;
  cfg.recovery.checkpoint_interval_epochs = 1;
  return cfg;
}

// Runs `epochs` process() calls of `per_epoch` tuples each and returns the
// accumulated result multiset plus the final report.
struct RunOutput {
  std::vector<ResultTuple> results;
  ClusterReport report;
};

RunOutput run_epochs(ClusterEngine& engine, const std::vector<Tuple>& tuples,
                     std::size_t epochs) {
  const std::size_t per_epoch = tuples.size() / epochs;
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto first = tuples.begin() + static_cast<std::ptrdiff_t>(
                                            e * per_epoch);
    const auto last = e + 1 == epochs
                          ? tuples.end()
                          : first + static_cast<std::ptrdiff_t>(per_epoch);
    engine.process(std::vector<Tuple>(first, last));
  }
  RunOutput out;
  out.results = engine.take_results();
  out.report = engine.report();
  return out;
}

struct Param {
  Backend backend;
  net::TransportKind transport;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  std::string name = std::string(core::to_string(info.param.backend)) + "_" +
                     std::string(net::to_string(info.param.transport));
  std::replace(name.begin(), name.end(), '-', '_');  // gtest: [A-Za-z0-9_]
  return name;
}

class SupervisedRecoveryTest : public testing::TestWithParam<Param> {};

TEST_P(SupervisedRecoveryTest, KillMidEpochIsFailureTransparent) {
  ClusterConfig cfg = supervised_config(GetParam().backend,
                                        GetParam().transport);
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.worker = 0;
  kill.epoch = 2;
  kill.after_batches = 1;
  cfg.faults.events.push_back(kill);
  ClusterEngine engine(cfg);

  const auto tuples = workload(800, 43);
  const RunOutput run = run_epochs(engine, tuples, 4);

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));

  EXPECT_GE(run.report.recovery.restarts, 1u);
  EXPECT_GT(run.report.recovery.checkpoints, 0u);
  EXPECT_GT(run.report.recovery.checkpoint_bytes, 0u);
  EXPECT_EQ(run.report.recovery.unrecoverable, 0u);
  EXPECT_EQ(run.report.lost_tuples, 0u);
  EXPECT_FALSE(run.report.degraded);
  EXPECT_GT(run.report.recovery.mttr_seconds_total, 0.0);
  EXPECT_GE(run.report.recovery.mttr_seconds_max, 0.0);
  EXPECT_GE(run.report.workers[0].restarts, 1u);
  // The respawned incarnation is live again, not a drained husk.
  EXPECT_FALSE(run.report.workers[0].dropped);
  EXPECT_FALSE(run.report.workers[0].unrecoverable);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndTransports, SupervisedRecoveryTest,
    testing::Values(
        Param{Backend::kSwSplitJoin, net::TransportKind::kInProcess},
        Param{Backend::kSwHandshake, net::TransportKind::kInProcess},
        Param{Backend::kSwBatch, net::TransportKind::kInProcess},
        Param{Backend::kSwSplitJoin, net::TransportKind::kLoopback},
        Param{Backend::kSwSplitJoin, net::TransportKind::kTcp},
        Param{Backend::kSwHandshake, net::TransportKind::kTcp},
        Param{Backend::kSwBatch, net::TransportKind::kTcp}),
    param_name);

TEST(SupervisedRecovery, MultipleKillsAcrossEpochsStayExact) {
  ClusterConfig cfg = supervised_config(Backend::kSwSplitJoin,
                                        net::TransportKind::kInProcess);
  const struct {
    std::uint32_t worker;
    std::uint64_t epoch;
    std::uint32_t after;
  } kills[] = {{0, 2, 0}, {1, 3, 2}, {0, 4, 1}};
  for (const auto& k : kills) {
    FaultEvent ev;
    ev.kind = FaultKind::kKillWorker;
    ev.worker = k.worker;
    ev.epoch = k.epoch;
    ev.after_batches = k.after;
    cfg.faults.events.push_back(ev);
  }
  ClusterEngine engine(cfg);

  const auto tuples = workload(1000, 47);
  const RunOutput run = run_epochs(engine, tuples, 5);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_GE(run.report.recovery.restarts, 3u);
  EXPECT_EQ(run.report.lost_tuples, 0u);
}

TEST(SupervisedRecovery, KillBeforeFirstCheckpointReplaysFromEpochZero) {
  ClusterConfig cfg = supervised_config(Backend::kSwBatch,
                                        net::TransportKind::kInProcess);
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.worker = 1;
  kill.epoch = 1;  // dies before any checkpoint exists
  kill.after_batches = 2;
  cfg.faults.events.push_back(kill);
  ClusterEngine engine(cfg);

  const auto tuples = workload(600, 53);
  const RunOutput run = run_epochs(engine, tuples, 3);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_GE(run.report.recovery.restarts, 1u);
  EXPECT_EQ(run.report.recovery.unrecoverable, 0u);
}

TEST(SupervisedRecovery, InjectedRecoverableErrorIsContainedAndRecovered) {
  ClusterConfig cfg = supervised_config(Backend::kSwSplitJoin,
                                        net::TransportKind::kInProcess);
  FaultEvent err;
  err.kind = FaultKind::kWorkerError;
  err.worker = 0;
  err.epoch = 2;
  err.after_batches = 0;
  cfg.faults.events.push_back(err);
  ClusterEngine engine(cfg);

  const auto tuples = workload(600, 59);
  const RunOutput run = run_epochs(engine, tuples, 3);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_GE(run.report.recovery.restarts, 1u);
}

TEST(SupervisedRecovery, CheckpointIntervalTwoStillRecoversExactly) {
  ClusterConfig cfg = supervised_config(Backend::kSwSplitJoin,
                                        net::TransportKind::kInProcess);
  cfg.recovery.checkpoint_interval_epochs = 2;
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.worker = 0;
  kill.epoch = 4;  // newest checkpoint covers epoch 2: a two-epoch delta
  kill.after_batches = 1;
  cfg.faults.events.push_back(kill);
  ClusterEngine engine(cfg);

  const auto tuples = workload(800, 61);
  const RunOutput run = run_epochs(engine, tuples, 4);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_GE(run.report.recovery.restarts, 1u);
  EXPECT_GT(run.report.recovery.replayed_batches, 0u);
}

TEST(SupervisedRecovery, DeterministicProjectionIsReproducibleUnderFaults) {
  auto faulted_json = [] {
    ClusterConfig cfg = supervised_config(Backend::kSwSplitJoin,
                                          net::TransportKind::kInProcess);
    FaultEvent kill;
    kill.kind = FaultKind::kKillWorker;
    kill.worker = 1;
    kill.epoch = 2;
    kill.after_batches = 1;
    cfg.faults.events.push_back(kill);
    ClusterEngine engine(cfg);
    run_epochs(engine, workload(600, 67), 3);
    obs::MetricRegistry registry;
    engine.collect_metrics(registry, "cluster.");
    obs::ExportOptions det;
    det.include_runtime = false;
    return obs::to_json(registry.snapshot("faulted"), det);
  };
  EXPECT_EQ(faulted_json(), faulted_json());
}

TEST(SupervisedRecovery, ClusterCountersMatchFaultFreeRun) {
  const auto tuples = workload(800, 71);
  // kill_after < 0: fault-free. Otherwise worker 0 dies before its
  // (kill_after + 1)-th batch of epoch 3.
  auto run_with = [&](int kill_after) {
    ClusterConfig cfg = supervised_config(Backend::kSwBatch,
                                          net::TransportKind::kInProcess);
    if (kill_after >= 0) {
      FaultEvent kill;
      kill.kind = FaultKind::kKillWorker;
      kill.worker = 0;
      kill.epoch = 3;
      kill.after_batches = static_cast<std::uint32_t>(kill_after);
      cfg.faults.events.push_back(kill);
    }
    ClusterEngine engine(cfg);
    return run_epochs(engine, tuples, 4);
  };
  const RunOutput clean = run_with(-1);
  // The workers drop stale pairs in every epoch, so the second kill lands
  // after some of epoch 3's drops were counted and shipped: the replayed
  // epoch must count them once.
  ASSERT_GT(clean.report.filtered_results, 0u);
  for (const int kill_after : {0, 3}) {
    SCOPED_TRACE("kill after " + std::to_string(kill_after) + " batches");
    const RunOutput faulted = run_with(kill_after);
    ASSERT_GE(faulted.report.recovery.restarts, 1u);
    EXPECT_EQ(normalize(faulted.results), normalize(clean.results));
    // The recovery machinery must not perturb the deterministic cluster
    // counters — failure transparency extends to the observable
    // projection.
    EXPECT_EQ(faulted.report.input_tuples, clean.report.input_tuples);
    EXPECT_EQ(faulted.report.routed_tuples, clean.report.routed_tuples);
    EXPECT_EQ(faulted.report.merged_results, clean.report.merged_results);
    EXPECT_EQ(faulted.report.filtered_results,
              clean.report.filtered_results);
    EXPECT_EQ(faulted.report.failovers, clean.report.failovers);
    EXPECT_EQ(faulted.report.lost_tuples, clean.report.lost_tuples);
    EXPECT_EQ(faulted.report.degraded, clean.report.degraded);
  }
}

TEST(SupervisedRecovery, ReplayLogTooSmallDegradesCleanly) {
  ClusterConfig cfg = supervised_config(Backend::kSwSplitJoin,
                                        net::TransportKind::kInProcess);
  cfg.recovery.checkpoint_interval_epochs = 0;  // no checkpoints at all
  cfg.recovery.replay_log_batches = 1;          // and a one-batch log
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.worker = 0;
  kill.epoch = 2;
  kill.after_batches = 1;
  cfg.faults.events.push_back(kill);
  ClusterEngine engine(cfg);

  const auto tuples = workload(600, 73);
  const RunOutput run = run_epochs(engine, tuples, 3);  // must not hang

  // Exact recovery is impossible; the slot must degrade, not fabricate.
  EXPECT_EQ(run.report.recovery.unrecoverable, 1u);
  EXPECT_TRUE(run.report.degraded);
  EXPECT_GT(run.report.lost_tuples, 0u);
  EXPECT_TRUE(run.report.workers[0].unrecoverable);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  auto expected = normalize(oracle.process_all(tuples));
  auto got = normalize(run.results);
  EXPECT_LT(got.size(), expected.size());
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                            got.end()));
}

TEST(SupervisedRecovery, ReplicasAndSupervisionCompose) {
  // Failover covers the epoch while the supervisor restarts the primary:
  // nothing is lost and nothing waits on the slow path.
  ClusterConfig cfg = supervised_config(Backend::kSwSplitJoin,
                                        net::TransportKind::kInProcess);
  cfg.replicas = 2;
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.worker = 0;  // slot 0 primary
  kill.epoch = 2;
  kill.after_batches = 1;
  cfg.faults.events.push_back(kill);
  ClusterEngine engine(cfg);

  const auto tuples = workload(800, 79);
  const RunOutput run = run_epochs(engine, tuples, 4);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_EQ(run.report.lost_tuples, 0u);
  EXPECT_GE(run.report.recovery.restarts, 1u);
}

}  // namespace
}  // namespace hal::cluster
