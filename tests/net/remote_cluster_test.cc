// ClusterEngine with remote workers: serve_worker threads behind loopback
// or real sockets must produce a result multiset byte-identical to the
// single-node reference oracle, with and without injected wire faults. A
// remote worker that goes away is a dead worker (failover or accounted
// loss), never a hang; a worker whose end-of-epoch audit fails ends its
// run. Also: ClusterEngine with net-backed links (in-process worker
// threads, but every batch crossing a real codec/socket path).
#include "cluster/remote.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <span>
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
using stream::StreamId;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = 32;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

std::string fresh_address(net::TransportKind kind, std::uint32_t i) {
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

std::uint32_t worker_count(const ClusterConfig& cfg) {
  const std::uint32_t slots = cfg.partitioning == Partitioning::kKeyHash
                                  ? cfg.shards
                                  : cfg.grid_rows * cfg.grid_cols;
  return slots * cfg.replicas;
}

// serve_worker threads behind cfg's worker addresses, except the first
// `played` ones, which the test serves (or fails) itself. Fills in the
// addresses the threads listen on.
class RemoteWorkers {
 public:
  RemoteWorkers(ClusterConfig& cfg, Backend backend, std::uint32_t num_cores,
                std::uint32_t played = 0)
      : ready_(worker_count(cfg)), reports_(worker_count(cfg)) {
    const net::TransportKind kind = cfg.transport.link_transport;
    cfg.transport.worker_addresses.resize(reports_.size());
    for (std::uint32_t i = played; i < reports_.size(); ++i) {
      RemoteWorkerOptions w;
      w.transport = kind;
      w.listen_address = fresh_address(kind, i);
      w.engine.backend = backend;
      w.engine.num_cores = num_cores;
      w.engine.window_size = worker_window_size(cfg);
      w.engine.spec = cfg.spec;
      w.batch_size = cfg.transport.batch_size;
      w.window_frames = cfg.transport.net_window_frames;
      w.shared_transport = cfg.transport.shared_transport;
      w.on_listening = [this, i](const std::string& addr) {
        ready_[i].set_value(addr);
      };
      threads_.emplace_back([this, w, i] {
        try {
          reports_[i] = serve_worker(w);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "worker " << i << " failed its run: " << e.what();
          try {
            ready_[i].set_value("");  // it never listened: unblock the wait
          } catch (const std::future_error&) {  // it had listened
          }
        }
      });
    }
    for (std::uint32_t i = played; i < reports_.size(); ++i) {
      cfg.transport.worker_addresses[i] = ready_[i].get_future().get();
    }
  }
  ~RemoteWorkers() { (void)join(); }

  // Waits until every worker's run ends (the engine's shutdown ends it).
  std::vector<RemoteWorkerReport> join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    return reports_;
  }

 private:
  std::vector<std::promise<std::string>> ready_;
  std::vector<RemoteWorkerReport> reports_;
  std::vector<std::thread> threads_;
};

struct RemoteRun {
  std::vector<ResultTuple> results;
  ClusterReport report;
  std::vector<RemoteWorkerReport> workers;
  std::size_t rejected_epochs = 0;  // process() threw PreconditionError
};

// Runs `epochs` through a ClusterEngine whose workers are serve_worker
// threads, then tears everything down.
RemoteRun run_remote(net::TransportKind kind, ClusterConfig cfg,
                     const std::vector<std::vector<Tuple>>& epochs,
                     Backend backend = Backend::kSwSplitJoin,
                     std::uint32_t num_cores = 1) {
  cfg.transport.link_transport = kind;
  std::unique_ptr<net::Transport> hub;
  if (kind == net::TransportKind::kLoopback) {
    hub = net::make_transport(kind);
    cfg.transport.shared_transport = hub.get();
  }
  RemoteWorkers workers(cfg, backend, num_cores);
  RemoteRun run;
  {
    ClusterEngine engine(cfg);
    for (const auto& epoch : epochs) {
      try {
        engine.process(epoch);
      } catch (const PreconditionError&) {
        ++run.rejected_epochs;
      }
    }
    run.results = engine.take_results();
    run.report = engine.report();
  }
  run.workers = workers.join();
  return run;
}

ClusterConfig base_remote_config() {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 3;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.transport.batch_size = 16;
  cfg.transport.net_window_frames = 16;
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
  const ClusterConfig cfg = base_remote_config();
  const RemoteRun run = run_remote(GetParam(), cfg, epochs);

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_EQ(run.report.input_tuples, tuples.size());
  EXPECT_TRUE(run.report.net_enabled);
  EXPECT_FALSE(run.report.degraded);
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
  const ClusterConfig cfg = base_remote_config();
  const RemoteRun run = run_remote(GetParam(), cfg, {first, repeated, rest});

  EXPECT_EQ(run.rejected_epochs, 1u);
  for (const auto& w : run.workers) EXPECT_EQ(w.epochs, 2u);
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
  const ClusterConfig cfg = base_remote_config();
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
  ClusterConfig cfg = base_remote_config();
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

// The coordinator cannot see a remote worker's configuration, so it
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
  ClusterConfig cfg = base_remote_config();
  cfg.shards = 2;
  const RemoteRun run = run_remote(net::TransportKind::kLoopback, cfg, epochs,
                                   Backend::kSwHandshake, 4);
  EXPECT_GT(run.rejected_epochs, 0u);
}

// What needs a worker's engine in this process is refused for remote
// workers: at construction, or at the operation's entry point.
TEST(RemoteClusterPreconditions, EngineSideOperationsNeedLocalWorkers) {
  auto hub = net::make_transport(net::TransportKind::kLoopback);
  ClusterConfig cfg = base_remote_config();
  cfg.transport.link_transport = net::TransportKind::kLoopback;
  cfg.transport.shared_transport = hub.get();
  RemoteWorkers workers(cfg, Backend::kSwSplitJoin, 1);

  const auto refused = [&cfg](auto&& edit) {
    ClusterConfig bad = cfg;
    edit(bad);
    EXPECT_THROW(ClusterEngine{bad}, PreconditionError);
  };
  refused([](ClusterConfig& c) { c.recovery.supervise = true; });
  refused([](ClusterConfig& c) { c.faults.events.emplace_back(); });
  refused([](ClusterConfig& c) { c.placement.pin_workers = true; });
  refused([](ClusterConfig& c) { c.transport.worker_addresses.pop_back(); });
  refused([](ClusterConfig& c) {
    c.transport.link_transport = net::TransportKind::kInProcess;
  });

  ClusterEngine engine(cfg);
  const auto tuples = workload(200, 5);
  EXPECT_THROW(engine.prefill(tuples), PreconditionError);
  EXPECT_THROW((void)engine.add_slot(), PreconditionError);
  EXPECT_THROW(engine.retire_slot(0), PreconditionError);
  EXPECT_THROW((void)engine.snapshot_slot(0), PreconditionError);
  std::uint64_t epoch = 0;
  EXPECT_THROW((void)engine.checkpoint_slot(0, epoch), PreconditionError);
  bool complete = false;
  EXPECT_THROW((void)engine.replay_delta_slot(0, 0, complete),
               PreconditionError);
  EXPECT_THROW(engine.rebuild_slot(0, {}), PreconditionError);
  // None of them changed anything: the engine still serves exactly.
  engine.process(tuples);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(engine.take_results()),
            normalize(oracle.process_all(tuples)));
}

TEST(RemoteClusterFaults, WireFaultsDoNotChangeResults) {
  const auto tuples = workload(800, 55);
  ClusterConfig cfg = base_remote_config();
  cfg.transport.net_fault.drop_every = 13;
  cfg.transport.net_fault.corrupt_every = 19;
  cfg.transport.net_fault.partition_after_frames = 40;
  cfg.transport.net_fault.partition_seconds = 0.01;
  const RemoteRun run =
      run_remote(net::TransportKind::kUnix, cfg,
                 {{tuples.begin(), tuples.begin() + 400},
                  {tuples.begin() + 400, tuples.end()}});

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  // The faults really happened — and the workers' end-of-epoch audits
  // (inside serve_worker) already proved delivery stayed exactly-once.
  EXPECT_GE(run.report.net.faults_injected, 3u);
  EXPECT_GE(run.report.net.retransmits, 1u);
  EXPECT_FALSE(run.report.degraded);
}

// --- A remote worker that goes away ----------------------------------------

// The test plays worker 0 (slot 0, replica 0) itself: it accepts the
// engine's connection and closes it at once. Real serve_worker threads
// serve every other worker.
class RemoteWorkerLossTest
    : public ::testing::TestWithParam<net::TransportKind> {
 protected:
  RemoteRun run_with_worker0_gone(ClusterConfig cfg,
                                  const std::vector<std::vector<Tuple>>& epochs) {
    const net::TransportKind kind = GetParam();
    cfg.transport.link_transport = kind;
    const std::unique_ptr<net::Transport> transport = net::make_transport(kind);
    if (kind == net::TransportKind::kLoopback) {
      cfg.transport.shared_transport = transport.get();
    }
    const auto listener =
        transport->listen(fresh_address(kind, 0), net::EndpointOptions{});
    cfg.transport.worker_addresses.assign(1, listener->address());
    RemoteWorkers workers(cfg, Backend::kSwSplitJoin, 1, /*played=*/1);
    RemoteRun run;
    {
      ClusterEngine engine(cfg);
      net::Connection* conn = listener->accept(30.0);
      EXPECT_NE(conn, nullptr);
      if (conn != nullptr) conn->close();
      for (const auto& epoch : epochs) engine.process(epoch);
      run.results = engine.take_results();
      run.report = engine.report();
    }
    run.workers = workers.join();
    return run;
  }
};

std::vector<std::vector<Tuple>> three_epochs(const std::vector<Tuple>& t) {
  const auto third = static_cast<std::ptrdiff_t>(t.size() / 3);
  return {{t.begin(), t.begin() + third},
          {t.begin() + third, t.begin() + 2 * third},
          {t.begin() + 2 * third, t.end()}};
}

TEST_P(RemoteWorkerLossTest, ReplicaTakesOverFromAClosedWorker) {
  const auto tuples = workload(600, 41);
  ClusterConfig cfg = base_remote_config();
  cfg.shards = 2;
  cfg.replicas = 2;
  const RemoteRun run = run_with_worker0_gone(cfg, three_epochs(tuples));

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(run.results), normalize(oracle.process_all(tuples)));
  EXPECT_GE(run.report.failovers, 1u);
  EXPECT_FALSE(run.report.degraded);
  EXPECT_EQ(run.report.lost_tuples, 0u);
}

TEST_P(RemoteWorkerLossTest, ClosedSoleReplicaIsAccountedLoss) {
  const auto tuples = workload(600, 43);
  ClusterConfig cfg = base_remote_config();
  cfg.shards = 2;
  const RemoteRun run = run_with_worker0_gone(cfg, three_epochs(tuples));

  // Slot 0 never answers an epoch: every tuple routed to it is lost, and
  // slot 1 still serves exactly its keys' share of the oracle.
  Router router(Partitioning::kKeyHash, 1, cfg.shards);
  std::uint64_t expected_lost = 0;
  std::map<std::uint32_t, std::uint32_t> slot_of_key;
  router.route_span(std::span<const Tuple>(tuples),
                    [&](const Tuple& t, std::uint32_t slot) {
                      slot_of_key[t.key] = slot;
                      if (slot == 0) ++expected_lost;
                    });
  EXPECT_TRUE(run.report.degraded);
  EXPECT_EQ(run.report.lost_tuples, expected_lost);
  EXPECT_GT(expected_lost, 0u);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  std::vector<ResultTuple> survivors = oracle.process_all(tuples);
  std::erase_if(survivors, [&](const ResultTuple& rt) {
    return slot_of_key[rt.r.key] == 0;
  });
  EXPECT_EQ(normalize(run.results), normalize(survivors));
}

INSTANTIATE_TEST_SUITE_P(Transports, RemoteWorkerLossTest,
                         ::testing::Values(net::TransportKind::kLoopback,
                                           net::TransportKind::kUnix),
                         [](const auto& info) {
                           return std::string(net::to_string(info.param));
                         });

// --- The worker's exactly-once audit ---------------------------------------

// The test plays the coordinator over loopback. An end-of-epoch batch
// whose R/S counts disagree with what the worker received fails the
// worker's run.
TEST(RemoteWorkerAudit, CountMismatchFailsTheRun) {
  const auto hub = net::make_transport(net::TransportKind::kLoopback);
  RemoteWorkerOptions opts;
  opts.transport = net::TransportKind::kLoopback;
  opts.listen_address = fresh_address(net::TransportKind::kLoopback, 0);
  opts.engine.backend = Backend::kSwSplitJoin;
  opts.engine.num_cores = 1;
  opts.engine.window_size = 64;
  opts.shared_transport = hub.get();
  std::promise<void> listening;
  opts.on_listening = [&listening](const std::string&) {
    listening.set_value();
  };
  auto served =
      std::async(std::launch::async, [&opts] { return serve_worker(opts); });
  listening.get_future().wait();
  const auto conn = hub->connect(opts.listen_address, net::EndpointOptions{});

  const auto tuples = workload(16, 5);
  const auto epoch_batch = [&tuples](std::uint64_t epoch, std::size_t lo,
                                     std::size_t hi) {
    TupleBatch b;
    b.epoch = epoch;
    b.end_of_epoch = true;
    b.tuples.assign(tuples.begin() + static_cast<std::ptrdiff_t>(lo),
                    tuples.begin() + static_cast<std::ptrdiff_t>(hi));
    for (const Tuple& t : b.tuples) {
      ++(t.origin == StreamId::R ? b.r_count : b.s_count);
    }
    return b;
  };
  const auto send = [&conn](const TupleBatch& b) {
    while (!net_try_send(*conn, b)) std::this_thread::yield();
  };

  // Epoch 1 audits clean, and the worker answers it.
  send(epoch_batch(1, 0, 8));
  ResultBatch answer;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!net_try_recv(*conn, answer)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  EXPECT_EQ(answer.epoch, 1u);
  EXPECT_TRUE(answer.end_of_epoch);

  // Epoch 2 claims one S tuple more than it carries.
  TupleBatch short_one = epoch_batch(2, 8, 16);
  ++short_one.s_count;
  send(short_one);
  EXPECT_THROW((void)served.get(), Error);
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
