// hal::cluster over hal::net — the truly distributed runtime.
//
// ClusterEngine models a multi-node deployment inside one process; this
// layer splits it across real process (or machine) boundaries. The roles:
//
//   serve_worker()    — runs in each worker process: listens on a
//                       transport address, accepts the coordinator's
//                       connection, and serves tuple batches through an
//                       unmodified single-node engine until shutdown,
//                       dropping stale pairs against the batches' horizon
//                       stamps (StaleFilter, as the in-process workers
//                       do). Watermarks are the epoch barriers; their R/S
//                       arrival counts let the worker audit that the
//                       transport delivered every routed tuple exactly
//                       once — under injected faults included.
//   RemoteCoordinator — the router + merger side: partitions tuples
//                       across the worker connections (same Router and
//                       HorizonStamper as the in-process engine), drains
//                       result batches opportunistically while sending
//                       (the credit windows on both directions would
//                       otherwise deadlock), and emits the same
//                       deterministically ordered result multiset the
//                       in-process cluster produces.
//
// The protocol per connection, all framed by net/wire.h:
//
//   coordinator → worker: TupleBatch*  (Watermark ends each epoch)
//   worker → coordinator: ResultBatch* (end_of_epoch=true answers the
//                                       watermark barrier)
//   either → either:      Shutdown     (orderly teardown)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "core/stream_join.h"
#include "net/transport.h"

namespace hal::cluster {

struct RemoteWorkerOptions {
  net::TransportKind transport = net::TransportKind::kTcp;
  // Address to listen on ("127.0.0.1:0" = ephemeral TCP port; "@name" =
  // abstract unix socket; any string for loopback).
  std::string listen_address;
  std::uint32_t node_id = 0;
  // Fully resolved engine configuration (window_size must already be the
  // per-worker window, see remote_worker_window_size()).
  core::EngineConfig engine;
  std::size_t batch_size = 64;     // result-batch granularity
  std::size_t window_frames = 64;  // credit window granted per link
  double accept_timeout_s = 30.0;
  // Called with the resolved address (ephemeral port filled in) before
  // accepting — e.g. print it for the coordinator process to read.
  std::function<void(const std::string&)> on_listening;
  // Loopback rendezvous requires dial and listen on one Transport object;
  // pass the shared hub here. Null = create a private transport.
  net::Transport* shared_transport = nullptr;
};

struct RemoteWorkerReport {
  std::uint64_t epochs = 0;
  std::uint64_t tuples_in = 0;
  std::uint64_t results_out = 0;
  std::uint64_t batches_in = 0;
  net::NetStats net;  // worker-side connection counters
};

// Serves one shard to completion (until the coordinator's shutdown or the
// accept timeout). Blocking; run it on a dedicated thread or process.
RemoteWorkerReport serve_worker(const RemoteWorkerOptions& opts);

struct RemoteClusterConfig {
  Partitioning partitioning = Partitioning::kKeyHash;
  std::uint32_t shards = 4;     // kKeyHash slot count
  std::uint32_t grid_rows = 2;  // kSplitGrid layout
  std::uint32_t grid_cols = 2;
  WindowMode window_mode = WindowMode::kExactGlobal;
  std::size_t window_size = 1 << 10;
  stream::JoinSpec spec = stream::JoinSpec::equi_on_key();

  std::size_t batch_size = 64;
  std::size_t window_frames = 64;
  net::TransportKind transport = net::TransportKind::kTcp;
  // One worker address per shard slot (slot index = vector index).
  std::vector<std::string> worker_addresses;
  // Wire faults injected on every coordinator→worker link; the merged
  // result multiset must be unaffected (the transport recovers).
  net::FaultPlan fault;
  net::Transport* shared_transport = nullptr;  // loopback hub (see above)
  double connect_timeout_s = 15.0;
};

// Per-worker engine window implied by the partitioning scheme — the same
// derivation the in-process ClusterEngine applies.
[[nodiscard]] std::size_t remote_worker_window_size(
    const RemoteClusterConfig& cfg);

struct RemoteClusterReport {
  std::uint64_t epochs = 0;
  std::uint64_t input_tuples = 0;
  std::uint64_t routed_tuples = 0;
  std::uint64_t merged_results = 0;
  std::uint64_t filtered_results = 0;
  double elapsed_seconds = 0.0;
  net::NetStats net;  // coordinator-side ends of every link, summed
};

class RemoteCoordinator {
 public:
  explicit RemoteCoordinator(const RemoteClusterConfig& cfg);
  ~RemoteCoordinator();

  RemoteCoordinator(const RemoteCoordinator&) = delete;
  RemoteCoordinator& operator=(const RemoteCoordinator&) = delete;

  // One epoch: stamp, route, barrier on every worker's watermark answer,
  // merge, order deterministically. Seqs must strictly increase across the
  // run's inputs (PreconditionError otherwise, state untouched).
  // Exact-global windows need workers that emit every result in its
  // probe's epoch, while they still hold its horizon
  // (emits_results_in_probe_epoch() in cluster_engine.h); a result
  // probing an earlier epoch fails the epoch with PreconditionError.
  core::RunReport process(const std::vector<stream::Tuple>& tuples);
  std::vector<stream::ResultTuple> take_results();

  [[nodiscard]] RemoteClusterReport report() const;
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

  // Orderly teardown: shutdown frames to every worker. Idempotent; the
  // destructor calls it.
  void shutdown();

 private:
  void flush_slot(std::uint32_t slot);
  void send_with_drain(std::uint32_t slot, net::MsgType type,
                       const std::vector<std::uint8_t>& payload);
  void drain_results();

  RemoteClusterConfig cfg_;
  Router router_;
  HorizonStamper horizons_;  // used iff window_mode == kExactGlobal
  std::unique_ptr<net::Transport> owned_transport_;
  net::Transport* transport_ = nullptr;
  std::vector<std::unique_ptr<net::Connection>> conns_;

  std::uint64_t epoch_ = 0;
  std::uint64_t next_seq_ = 0;  // least seq the next arrival may carry
  std::vector<std::vector<stream::Tuple>> staging_;
  std::vector<std::vector<std::uint64_t>> stamp_staging_;  // beside staging_
  std::vector<std::uint32_t> scratch_slots_;
  std::vector<std::uint64_t> slot_r_count_;  // per-epoch watermark audit
  std::vector<std::uint64_t> slot_s_count_;
  std::vector<std::vector<stream::ResultTuple>> pending_;  // per slot
  std::vector<std::uint64_t> done_epoch_;
  std::vector<stream::ResultTuple> epoch_results_;
  std::uint64_t epoch_dropped_ = 0;  // the workers' stale-pair counts
  std::vector<stream::ResultTuple> collected_;

  std::uint64_t input_tuples_ = 0;
  std::uint64_t routed_tuples_ = 0;
  std::uint64_t merged_results_ = 0;
  std::uint64_t filtered_results_ = 0;
  double elapsed_seconds_ = 0.0;
  bool shut_down_ = false;
};

}  // namespace hal::cluster
