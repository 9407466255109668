// RemoteCoordinator + serve_worker: the distributed join must produce a
// result multiset byte-identical to the single-node reference oracle and
// the in-process ClusterEngine, over loopback and real sockets, with and
// without injected wire faults. Also: ClusterEngine with net-backed links
// (the same threads, but every batch crossing a real codec/socket path).
#include "cluster/remote.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
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
using stream::ResultTuple;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = 32;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

std::string fresh_address(net::TransportKind kind, int i) {
  static std::atomic<int> salt{0};
  const int id = salt.fetch_add(1);
  switch (kind) {
    case net::TransportKind::kLoopback:
      return "worker-" + std::to_string(i) + "-" + std::to_string(id);
    case net::TransportKind::kUnix:
      return "@hal-remote-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(i) + "-" + std::to_string(id);
    default:
      return "127.0.0.1:0";
  }
}

struct RemoteRun {
  std::vector<ResultTuple> results;
  RemoteClusterReport report;
  std::vector<RemoteWorkerReport> workers;
  std::size_t rejected_epochs = 0;  // process() threw PreconditionError
};

// Spins up in-thread workers, runs `epochs` epochs of the workload
// through a RemoteCoordinator, tears everything down.
RemoteRun run_remote(net::TransportKind kind, RemoteClusterConfig cfg,
                     const std::vector<std::vector<Tuple>>& epochs,
                     Backend backend = Backend::kSwSplitJoin,
                     std::uint32_t num_cores = 1) {
  cfg.transport = kind;
  std::unique_ptr<net::Transport> hub;
  if (kind == net::TransportKind::kLoopback) {
    hub = net::make_transport(kind);
    cfg.shared_transport = hub.get();
  }
  const std::uint32_t slots = cfg.partitioning == Partitioning::kKeyHash
                                  ? cfg.shards
                                  : cfg.grid_rows * cfg.grid_cols;

  std::vector<std::string> resolved(slots);
  std::vector<std::thread> threads;
  std::vector<RemoteWorkerReport> reports(slots);
  std::vector<std::promise<std::string>> addr_promises(slots);
  for (std::uint32_t i = 0; i < slots; ++i) {
    RemoteWorkerOptions w;
    w.transport = kind;
    w.listen_address = fresh_address(kind, static_cast<int>(i));
    w.node_id = i;
    w.engine.backend = backend;
    w.engine.num_cores = num_cores;
    w.engine.window_size = remote_worker_window_size(cfg);
    w.engine.spec = cfg.spec;
    w.batch_size = cfg.batch_size;
    w.window_frames = cfg.window_frames;
    w.shared_transport = cfg.shared_transport;
    w.on_listening = [&addr_promises, i](const std::string& addr) {
      addr_promises[i].set_value(addr);
    };
    threads.emplace_back([w, &reports, i] { reports[i] = serve_worker(w); });
  }
  for (std::uint32_t i = 0; i < slots; ++i) {
    resolved[i] = addr_promises[i].get_future().get();
  }
  cfg.worker_addresses = resolved;

  RemoteRun run;
  {
    RemoteCoordinator coordinator(cfg);
    for (const auto& epoch : epochs) {
      try {
        coordinator.process(epoch);
      } catch (const PreconditionError&) {
        ++run.rejected_epochs;
      }
    }
    run.results = coordinator.take_results();
    run.report = coordinator.report();
    coordinator.shutdown();
  }
  for (auto& t : threads) t.join();
  run.workers = std::move(reports);
  return run;
}

RemoteClusterConfig base_remote_config() {
  RemoteClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 3;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.batch_size = 16;
  cfg.window_frames = 16;
  return cfg;
}

class RemoteClusterTest
    : public ::testing::TestWithParam<net::TransportKind> {};

TEST_P(RemoteClusterTest, MatchesOracleAcrossEpochs) {
  const auto tuples = workload(900, 21);
  const std::vector<std::vector<Tuple>> epochs = {
      {tuples.begin(), tuples.begin() + 300},
      {tuples.begin() + 300, tuples.begin() + 700},
      {tuples.begin() + 700, tuples.end()},
  };
  const RemoteClusterConfig cfg = base_remote_config();
  const RemoteRun run = run_remote(GetParam(), cfg, epochs);

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_EQ(run.report.input_tuples, tuples.size());
  EXPECT_EQ(run.report.epochs, epochs.size());
  std::uint64_t worker_tuples = 0;
  for (const auto& w : run.workers) {
    worker_tuples += w.tuples_in;
    EXPECT_EQ(w.epochs, epochs.size());
  }
  EXPECT_EQ(worker_tuples, run.report.routed_tuples);
}

// A repeated seq is rejected before the coordinator routes anything, so
// the next epoch carries on exactly.
TEST_P(RemoteClusterTest, RepeatedSeqIsRejectedWithoutSideEffects) {
  const auto tuples = workload(400, 27);
  const std::vector<Tuple> first(tuples.begin(), tuples.begin() + 200);
  const std::vector<Tuple> rest(tuples.begin() + 200, tuples.end());
  std::vector<Tuple> repeated = rest;
  repeated.back().seq = first.back().seq;
  const RemoteClusterConfig cfg = base_remote_config();
  const RemoteRun run = run_remote(GetParam(), cfg, {first, repeated, rest});

  EXPECT_EQ(run.rejected_epochs, 1u);
  EXPECT_EQ(run.report.epochs, 2u);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
}

// Each worker holds the full W of its key range, so it finds pairs the
// global window has already closed; it drops them against the router's
// horizon stamps before they reach the wire, and reports how many.
TEST_P(RemoteClusterTest, WorkersDropStalePairsAndCountThem) {
  const auto tuples = workload(900, 23);
  const std::vector<std::vector<Tuple>> epochs = {
      {tuples.begin(), tuples.begin() + 450},
      {tuples.begin() + 450, tuples.end()},
  };
  const RemoteClusterConfig cfg = base_remote_config();
  const RemoteRun run = run_remote(GetParam(), cfg, epochs);

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_GT(run.report.filtered_results, 0u);
  std::uint64_t emitted = 0;
  for (const auto& w : run.workers) emitted += w.results_out;
  EXPECT_EQ(emitted,
            run.report.merged_results + run.report.filtered_results);
}

TEST_P(RemoteClusterTest, SplitGridBandJoinMatchesOracle) {
  const auto tuples = workload(600, 33);
  RemoteClusterConfig cfg = base_remote_config();
  cfg.partitioning = Partitioning::kSplitGrid;
  cfg.grid_rows = 2;
  cfg.grid_cols = 2;
  cfg.window_size = 48;
  cfg.spec = JoinSpec::band_on_key(2);
  const RemoteRun run = run_remote(GetParam(), cfg, {tuples});

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_EQ(run.report.routed_tuples, 2 * tuples.size());
}

INSTANTIATE_TEST_SUITE_P(Transports, RemoteClusterTest,
                         ::testing::Values(net::TransportKind::kLoopback,
                                           net::TransportKind::kUnix,
                                           net::TransportKind::kTcp),
                         [](const auto& info) {
                           return std::string(net::to_string(info.param));
                         });

// A remote worker is configured apart from its coordinator, which thus
// cannot refuse a multi-core handshake chain up front: the first result
// the chain emits after its probe's epoch fails that epoch with
// PreconditionError instead of aborting the process.
TEST(RemoteClusterPreconditions, LateResultsOfAMultiCoreChainAreRejected) {
  const auto tuples = workload(960, 61);
  std::vector<std::vector<Tuple>> epochs;
  for (std::size_t lo = 0; lo < tuples.size(); lo += 16) {
    epochs.emplace_back(tuples.begin() + static_cast<std::ptrdiff_t>(lo),
                        tuples.begin() + static_cast<std::ptrdiff_t>(lo + 16));
  }
  RemoteClusterConfig cfg = base_remote_config();
  cfg.shards = 2;
  const RemoteRun run = run_remote(net::TransportKind::kLoopback, cfg, epochs,
                                   Backend::kSwHandshake, 4);
  EXPECT_GT(run.rejected_epochs, 0u);
}

TEST(RemoteClusterFaults, WireFaultsDoNotChangeResults) {
  const auto tuples = workload(800, 55);
  RemoteClusterConfig cfg = base_remote_config();
  cfg.fault.drop_every = 13;
  cfg.fault.corrupt_every = 19;
  cfg.fault.partition_after_frames = 40;
  cfg.fault.partition_seconds = 0.01;
  const RemoteRun run =
      run_remote(net::TransportKind::kUnix, cfg,
                 {{tuples.begin(), tuples.begin() + 400},
                  {tuples.begin() + 400, tuples.end()}});

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  // The faults really happened — and the workers' watermark audits (inside
  // serve_worker) already proved delivery stayed exactly-once.
  EXPECT_GE(run.report.net.faults_injected, 3u);
  EXPECT_GE(run.report.net.retransmits, 1u);
}

// --- ClusterEngine with net-backed links -----------------------------------

class NetBackedClusterTest
    : public ::testing::TestWithParam<net::TransportKind> {};

TEST_P(NetBackedClusterTest, MatchesInProcessClusterBitExactly) {
  const auto tuples = workload(700, 77);

  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 4;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 16;

  ClusterEngine oracle_engine(cfg);  // kInProcess SPSC links
  oracle_engine.process(tuples);
  const auto oracle_results = normalize(oracle_engine.take_results());

  cfg.transport.link_transport = GetParam();
  cfg.transport.net_window_frames = 16;
  ClusterEngine net_engine(cfg);
  net_engine.process(tuples);
  EXPECT_EQ(normalize(net_engine.take_results()), oracle_results);

  const ClusterReport rep = net_engine.report();
  EXPECT_TRUE(rep.net_enabled);
  EXPECT_GT(rep.net.frames_sent, 0u);
  EXPECT_EQ(rep.net.msgs_sent, rep.net.msgs_delivered);
  EXPECT_FALSE(oracle_engine.report().net_enabled);
}

INSTANTIATE_TEST_SUITE_P(Kinds, NetBackedClusterTest,
                         ::testing::Values(net::TransportKind::kLoopback,
                                           net::TransportKind::kUnix,
                                           net::TransportKind::kTcp),
                         [](const auto& info) {
                           return std::string(net::to_string(info.param));
                         });

TEST(NetBackedCluster, SurvivesInjectedWireFaults) {
  const auto tuples = workload(500, 91);
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 8;
  cfg.transport.link_transport = net::TransportKind::kUnix;
  cfg.transport.net_window_frames = 8;
  cfg.transport.net_fault.drop_every = 11;
  cfg.transport.net_fault.corrupt_every = 17;

  ClusterEngine engine(cfg);
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.net.faults_injected, 1u);
  EXPECT_GE(rep.net.retransmits, 1u);
}

}  // namespace
}  // namespace hal::cluster
