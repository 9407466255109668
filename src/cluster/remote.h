// hal::cluster over hal::net — the worker-process entry point.
//
// ClusterEngine is the one coordinator. Given one address per worker
// (TransportParams::worker_addresses, on a net link kind), it dials each
// address instead of building a worker engine and thread, and its router,
// horizon stamper, merger, replica failover, send budgets and guard serve
// those remote workers unchanged. serve_worker() is the other end: it runs
// in each worker process (or thread), listens on a transport address,
// accepts the coordinator's connection and speaks ClusterEngine's link
// protocol over it until shutdown:
//
//   coordinator → worker: TupleBatch* — epoch-tagged, horizon-stamped;
//                         the epoch's last one (end_of_epoch) carries the
//                         link's R/S tuple counts for the exactly-once
//                         audit
//   worker → coordinator: ResultBatch* — every batch_size staged results,
//                         and the end-of-epoch answer
//   either → either:      Shutdown (orderly teardown)
//
// Each tuple batch runs through WorkerStep (cluster_engine.h), the same
// step an in-process worker thread runs: engine, stale-pair filter,
// staging, audit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/stream_join.h"
#include "net/transport.h"

namespace hal::cluster {

struct RemoteWorkerOptions {
  net::TransportKind transport = net::TransportKind::kTcp;
  // Address to listen on ("127.0.0.1:0" = ephemeral TCP port; "@name" =
  // abstract unix socket; any string for loopback).
  std::string listen_address;
  // Fully resolved engine configuration: window_size must already be the
  // per-worker window (worker_window_size() of the coordinator's
  // ClusterConfig) and spec the cluster's.
  core::EngineConfig engine;
  std::size_t batch_size = 64;     // result-batch granularity
  std::size_t window_frames = 64;  // credit window granted to the peer
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

// Serves one worker to completion: until the coordinator's shutdown, or
// the accept timeout (PreconditionError). Blocking; run it on a dedicated
// thread or process. A failed delivery audit or an engine fault throws
// hal::Error, and a result send to a coordinator that went away throws
// PreconditionError: the run fails, and the coordinator sees the
// connection close.
RemoteWorkerReport serve_worker(const RemoteWorkerOptions& opts);

}  // namespace hal::cluster
