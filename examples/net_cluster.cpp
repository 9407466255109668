// net_cluster: the sharded stream join of hal::cluster running over real
// process boundaries via hal::net.
//
// The same workload is joined four ways and the result multisets must be
// byte-identical:
//
//   1. in-process ClusterEngine (SPSC links)          — the oracle
//   2. ClusterEngine dialing loopback worker threads
//   3. ClusterEngine dialing TCP worker *processes*
//   4. run 3 again with drop/corrupt/partition faults injected on every
//      coordinator->worker link (the transport must recover)
//
// Runs 2-4 use one ClusterEngine, given one address per worker
// (TransportParams::worker_addresses); every worker runs serve_worker.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/net_cluster
//
// The binary re-execs itself with --worker for each TCP worker process;
// workers print their resolved ephemeral address ("NET_CLUSTER_ADDR
// host:port") on stdout for the parent to collect.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_engine.h"
#include "cluster/remote.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

using namespace hal;
using cluster::ClusterConfig;
using cluster::ClusterEngine;
using cluster::ClusterReport;
using cluster::RemoteWorkerOptions;
using stream::ResultTuple;
using stream::Tuple;

namespace {

constexpr std::uint32_t kShards = 3;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kTuples = 6000;
constexpr std::size_t kEpochs = 3;

ClusterConfig cluster_config() {
  ClusterConfig cfg;
  cfg.partitioning = cluster::Partitioning::kKeyHash;
  cfg.shards = kShards;
  cfg.window_size = kWindow;
  cfg.spec = stream::JoinSpec::equi_on_key();
  cfg.worker.backend = core::Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 32;
  cfg.transport.net_window_frames = 32;
  return cfg;
}

RemoteWorkerOptions worker_options() {
  const ClusterConfig cfg = cluster_config();
  RemoteWorkerOptions w;
  w.engine = cfg.worker;
  w.engine.window_size = cluster::worker_window_size(cfg);
  w.engine.spec = cfg.spec;
  w.batch_size = cfg.transport.batch_size;
  w.window_frames = cfg.transport.net_window_frames;
  return w;
}

// --- Worker process mode ----------------------------------------------------

int run_worker(int argc, char** argv) {
  std::uint32_t node_id = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--node") == 0) {
      node_id = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    }
  }
  RemoteWorkerOptions w = worker_options();
  w.transport = net::TransportKind::kTcp;
  w.listen_address = "127.0.0.1:0";
  w.on_listening = [](const std::string& addr) {
    std::printf("NET_CLUSTER_ADDR %s\n", addr.c_str());
    std::fflush(stdout);
  };
  const auto rep = cluster::serve_worker(w);
  std::fprintf(stderr,
               "[worker %u] epochs=%llu tuples_in=%llu results_out=%llu "
               "reconnects=%llu\n",
               node_id, static_cast<unsigned long long>(rep.epochs),
               static_cast<unsigned long long>(rep.tuples_in),
               static_cast<unsigned long long>(rep.results_out),
               static_cast<unsigned long long>(rep.net.reconnects));
  return 0;
}

// --- Coordinator-side runs --------------------------------------------------

// Joins the workload in kEpochs epochs through a ClusterEngine whose
// workers listen on cfg.transport.worker_addresses.
std::vector<ResultTuple> run_epochs(const ClusterConfig& cfg,
                                    const std::vector<Tuple>& tuples,
                                    ClusterReport& report) {
  ClusterEngine engine(cfg);
  const std::size_t per_epoch = (tuples.size() + kEpochs - 1) / kEpochs;
  for (std::size_t at = 0; at < tuples.size(); at += per_epoch) {
    const std::size_t end = std::min(at + per_epoch, tuples.size());
    engine.process({tuples.begin() + static_cast<std::ptrdiff_t>(at),
                    tuples.begin() + static_cast<std::ptrdiff_t>(end)});
  }
  report = engine.report();
  return engine.take_results();
}  // the engine's destructor shuts every worker down

std::vector<ResultTuple> run_loopback(const std::vector<Tuple>& tuples,
                                      ClusterReport& report) {
  auto hub = net::make_transport(net::TransportKind::kLoopback);
  ClusterConfig cfg = cluster_config();
  cfg.transport.link_transport = net::TransportKind::kLoopback;
  cfg.transport.shared_transport = hub.get();

  std::vector<std::thread> threads;
  std::vector<std::promise<std::string>> ready(kShards);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    RemoteWorkerOptions w = worker_options();
    w.transport = net::TransportKind::kLoopback;
    w.listen_address = "worker-" + std::to_string(i);
    w.shared_transport = hub.get();
    w.on_listening = [&ready, i](const std::string& addr) {
      ready[i].set_value(addr);
    };
    threads.emplace_back([w] { (void)cluster::serve_worker(w); });
  }
  for (auto& p : ready) {
    cfg.transport.worker_addresses.push_back(p.get_future().get());
  }
  std::vector<ResultTuple> results = run_epochs(cfg, tuples, report);
  for (auto& t : threads) t.join();
  return results;
}

struct WorkerProcess {
  pid_t pid = -1;
  std::string address;
};

WorkerProcess spawn_worker(const char* self, std::uint32_t node_id) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    const std::string node = std::to_string(node_id);
    ::execl(self, self, "--worker", "--node", node.c_str(),
            static_cast<char*>(nullptr));
    std::perror("execl");
    std::_Exit(127);
  }
  ::close(pipe_fds[1]);

  // First line of worker stdout: "NET_CLUSTER_ADDR host:port".
  std::string line;
  char c = 0;
  while (::read(pipe_fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  ::close(pipe_fds[0]);
  const std::string tag = "NET_CLUSTER_ADDR ";
  if (line.rfind(tag, 0) != 0) {
    std::fprintf(stderr, "worker %u failed to report its address: \"%s\"\n",
                 node_id, line.c_str());
    std::exit(1);
  }
  return {pid, line.substr(tag.size())};
}

std::vector<ResultTuple> run_tcp(const char* self,
                                 const std::vector<Tuple>& tuples,
                                 const net::FaultPlan& fault,
                                 ClusterReport& report) {
  ClusterConfig cfg = cluster_config();
  cfg.transport.link_transport = net::TransportKind::kTcp;
  cfg.transport.net_fault = fault;

  std::vector<WorkerProcess> workers;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    workers.push_back(spawn_worker(self, i));
    cfg.transport.worker_addresses.push_back(workers.back().address);
  }
  std::vector<ResultTuple> results = run_epochs(cfg, tuples, report);

  bool ok = !report.degraded;
  if (!ok) std::fprintf(stderr, "a tcp worker was lost mid-run\n");
  for (const WorkerProcess& w : workers) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "worker pid %d exited abnormally\n", w.pid);
      ok = false;
    }
  }
  if (!ok) std::exit(1);
  return results;
}

bool check(const char* what, const std::vector<ResultTuple>& got,
           const std::vector<ResultTuple>& oracle) {
  const bool same = stream::normalize(got) == stream::normalize(oracle);
  std::printf("%-28s %zu results  %s\n", what, got.size(),
              same ? "== oracle" : "!= oracle  MISMATCH");
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    return run_worker(argc, argv);
  }

  stream::WorkloadConfig wl;
  wl.seed = 424242;
  wl.key_domain = 128;
  wl.deterministic_interleave = false;
  const std::vector<Tuple> tuples = stream::WorkloadGenerator(wl).take(kTuples);

  // 1. The in-process cluster is the oracle.
  ClusterEngine oracle_engine(cluster_config());
  oracle_engine.process(tuples);
  const std::vector<ResultTuple> oracle = oracle_engine.take_results();
  std::printf("%-28s %zu results\n", "in-process cluster (oracle)",
              oracle.size());

  bool ok = true;

  // 2. Loopback: same coordinator/worker split, zero-copy rendezvous.
  ClusterReport loop_rep;
  ok &= check("loopback workers (threads)", run_loopback(tuples, loop_rep),
              oracle);

  // 3. TCP to real worker processes.
  ClusterReport tcp_rep;
  ok &= check("tcp workers (processes)",
              run_tcp(argv[0], tuples, net::FaultPlan{}, tcp_rep), oracle);
  std::printf("    frames=%llu bytes=%llu acks=%llu\n",
              static_cast<unsigned long long>(tcp_rep.net.frames_sent),
              static_cast<unsigned long long>(tcp_rep.net.bytes_sent),
              static_cast<unsigned long long>(tcp_rep.net.acks_received));

  // 4. TCP again, with every coordinator->worker link misbehaving.
  net::FaultPlan fault;
  fault.drop_every = 23;
  fault.corrupt_every = 37;
  fault.partition_after_frames = 80;
  fault.partition_seconds = 0.01;
  ClusterReport fault_rep;
  ok &= check("tcp workers + wire faults",
              run_tcp(argv[0], tuples, fault, fault_rep), oracle);
  std::printf(
      "    faults=%llu retransmits=%llu reconnects=%llu dup_dropped=%llu\n",
      static_cast<unsigned long long>(fault_rep.net.faults_injected),
      static_cast<unsigned long long>(fault_rep.net.retransmits),
      static_cast<unsigned long long>(fault_rep.net.reconnects),
      static_cast<unsigned long long>(fault_rep.net.duplicates_dropped));
  if (fault_rep.net.faults_injected == 0) {
    std::printf("    warning: fault plan never fired\n");
    ok = false;
  }

  std::printf("%s\n", ok ? "PASS: all transports agree with the oracle"
                         : "FAIL: result mismatch");
  return ok ? 0 : 1;
}
