#include "cluster/remote.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "cluster/cluster_engine.h"
#include "common/assert.h"
#include "common/timer.h"

namespace hal::cluster {

using stream::ResultTuple;
using stream::StreamId;
using stream::Tuple;

RemoteWorkerReport serve_worker(const RemoteWorkerOptions& opts) {
  std::unique_ptr<net::Transport> owned;
  net::Transport* transport = opts.shared_transport;
  if (transport == nullptr) {
    owned = net::make_transport(opts.transport);
    transport = owned.get();
  }
  net::EndpointOptions ep;
  ep.node_id = opts.node_id;
  ep.window_frames = opts.window_frames;
  auto listener = transport->listen(opts.listen_address, ep);
  if (opts.on_listening) opts.on_listening(listener->address());

  net::Connection* conn = listener->accept(opts.accept_timeout_s);
  HAL_CHECK(conn != nullptr, "remote worker: coordinator never connected");

  auto engine = core::make_engine(opts.engine);
  RemoteWorkerReport rep;
  std::vector<ResultTuple> staged;
  std::uint64_t staged_dropped = 0;
  StaleFilter filter;
  std::uint64_t epoch_r = 0;
  std::uint64_t epoch_s = 0;
  std::uint64_t current_epoch = 0;

  const auto send_results = [&](bool end_of_epoch) {
    net::ResultBatchMsg out;
    out.epoch = current_epoch;
    out.end_of_epoch = end_of_epoch;
    out.dropped = std::exchange(staged_dropped, 0);
    out.results = std::move(staged);
    staged.clear();
    HAL_CHECK(conn->send_msg(net::MsgType::kResultBatch, out, 60.0),
              "remote worker: result send failed");
  };

  while (true) {
    net::Frame frame;
    if (!conn->recv(frame, 1.0)) {
      if (conn->peer_closed()) break;
      continue;  // idle between epochs
    }
    switch (frame.header.type) {
      case net::MsgType::kTupleBatch: {
        net::TupleBatchMsg msg;
        HAL_CHECK(net::decode(frame.payload, msg),
                  "remote worker: undecodable tuple batch");
        current_epoch = msg.epoch;
        ++rep.batches_in;
        rep.tuples_in += msg.tuples.size();
        filter.observe(msg.tuples, msg.stamps);
        for (const Tuple& t : msg.tuples) {
          if (t.origin == StreamId::R) {
            ++epoch_r;
          } else {
            ++epoch_s;
          }
        }
        const core::RunReport inner = engine->process(msg.tuples);
        rep.results_out += inner.results_emitted;
        const auto fresh = engine->take_results();
        staged_dropped += filter.keep_in_window(fresh, staged);
        if (staged.size() >= opts.batch_size) send_results(false);
        break;
      }
      case net::MsgType::kWatermark: {
        net::WatermarkMsg wm;
        HAL_CHECK(net::decode(frame.payload, wm),
                  "remote worker: undecodable watermark");
        // Exactly-once audit: what the coordinator routed to this link
        // this epoch must be exactly what arrived — faults and all.
        HAL_CHECK(wm.r_count == epoch_r && wm.s_count == epoch_s,
                  "remote worker: watermark count mismatch (transport "
                  "lost or duplicated tuples)");
        epoch_r = 0;
        epoch_s = 0;
        current_epoch = wm.epoch;
        ++rep.epochs;
        send_results(true);  // the barrier answer
        filter.clear();
        break;
      }
      default:
        HAL_CHECK(false, "remote worker: unexpected message type");
    }
  }
  rep.net = conn->stats();
  conn->close();
  return rep;
}

std::size_t remote_worker_window_size(const RemoteClusterConfig& cfg) {
  ClusterConfig probe;
  probe.partitioning = cfg.partitioning;
  probe.shards = cfg.shards;
  probe.grid_rows = cfg.grid_rows;
  probe.grid_cols = cfg.grid_cols;
  probe.window_mode = cfg.window_mode;
  probe.window_size = cfg.window_size;
  return worker_window_size(probe);
}

RemoteCoordinator::RemoteCoordinator(const RemoteClusterConfig& cfg)
    : cfg_(cfg),
      router_(cfg.partitioning,
              cfg.partitioning == Partitioning::kKeyHash ? 1 : cfg.grid_rows,
              cfg.partitioning == Partitioning::kKeyHash ? cfg.shards
                                                         : cfg.grid_cols),
      horizons_(cfg.window_size) {
  HAL_CHECK(cfg_.batch_size >= 1, "batch_size must be positive");
  const std::uint32_t slots = router_.num_slots();
  HAL_CHECK(cfg_.worker_addresses.size() == slots,
            "need exactly one worker address per shard slot");
  if (cfg_.partitioning == Partitioning::kKeyHash) {
    HAL_CHECK(key_hashable(cfg_.spec),
              "key-hash partitioning requires an r.key == s.key conjunct");
  }
  transport_ = cfg_.shared_transport;
  if (transport_ == nullptr) {
    owned_transport_ = net::make_transport(cfg_.transport);
    transport_ = owned_transport_.get();
  }
  staging_.resize(slots);
  stamp_staging_.resize(slots);
  slot_r_count_.assign(slots, 0);
  slot_s_count_.assign(slots, 0);
  pending_.resize(slots);
  done_epoch_.assign(slots, 0);
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    net::EndpointOptions ep;
    ep.node_id = slot;
    ep.window_frames = cfg_.window_frames;
    ep.connect_timeout_s = cfg_.connect_timeout_s;
    ep.fault = cfg_.fault;
    conns_.push_back(
        transport_->connect(cfg_.worker_addresses[slot], ep));
  }
}

RemoteCoordinator::~RemoteCoordinator() { shutdown(); }

void RemoteCoordinator::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& conn : conns_) conn->close();
}

void RemoteCoordinator::drain_results() {
  for (std::uint32_t slot = 0; slot < conns_.size(); ++slot) {
    net::Frame frame;
    while (conns_[slot]->try_recv(frame)) {
      HAL_CHECK(frame.header.type == net::MsgType::kResultBatch,
                "coordinator: unexpected message from worker");
      net::ResultBatchMsg msg;
      HAL_CHECK(net::decode(frame.payload, msg),
                "coordinator: undecodable result batch");
      pending_[slot].insert(pending_[slot].end(), msg.results.begin(),
                            msg.results.end());
      epoch_dropped_ += msg.dropped;
      if (msg.end_of_epoch) {
        epoch_results_.insert(epoch_results_.end(), pending_[slot].begin(),
                              pending_[slot].end());
        pending_[slot].clear();
        done_epoch_[slot] = msg.epoch;
      }
    }
  }
}

void RemoteCoordinator::send_with_drain(
    std::uint32_t slot, net::MsgType type,
    const std::vector<std::uint8_t>& payload) {
  Timer timer;
  while (!conns_[slot]->try_send(type, payload)) {
    // The tuple direction is stalled on credit; keep consuming the result
    // direction or the two windows deadlock against each other.
    drain_results();
    HAL_CHECK(!conns_[slot]->peer_closed(),
              "coordinator: worker connection closed mid-epoch");
    HAL_CHECK(timer.elapsed_seconds() < 120.0,
              "coordinator: send wedged for 120s");
    std::this_thread::yield();
  }
}

void RemoteCoordinator::flush_slot(std::uint32_t slot) {
  if (staging_[slot].empty()) return;
  net::TupleBatchMsg msg;
  msg.epoch = epoch_;
  msg.tuples = std::move(staging_[slot]);
  msg.stamps = std::move(stamp_staging_[slot]);
  staging_[slot].clear();
  stamp_staging_[slot].clear();
  send_with_drain(slot, net::MsgType::kTupleBatch, net::encode(msg));
}

core::RunReport RemoteCoordinator::process(const std::vector<Tuple>& tuples) {
  HAL_CHECK(!shut_down_, "coordinator already shut down");
  const std::uint64_t epoch_first_seq = next_seq_;
  next_seq_ = check_arrival_order(tuples, next_seq_);
  ++epoch_;
  Timer wall;
  std::fill(slot_r_count_.begin(), slot_r_count_.end(), 0);
  std::fill(slot_s_count_.begin(), slot_s_count_.end(), 0);

  const bool exact = cfg_.window_mode == WindowMode::kExactGlobal;
  for (const Tuple& t : tuples) {
    const std::uint64_t stamp = exact ? horizons_.stamp(t) : 0;
    router_.route(t, scratch_slots_);
    for (const std::uint32_t slot : scratch_slots_) {
      ++routed_tuples_;
      if (t.origin == StreamId::R) {
        ++slot_r_count_[slot];
      } else {
        ++slot_s_count_[slot];
      }
      staging_[slot].push_back(t);
      if (exact) stamp_staging_[slot].push_back(stamp);
      if (staging_[slot].size() >= cfg_.batch_size) flush_slot(slot);
    }
  }
  for (std::uint32_t slot = 0; slot < router_.num_slots(); ++slot) {
    flush_slot(slot);
    net::WatermarkMsg wm;
    wm.epoch = epoch_;
    wm.r_count = slot_r_count_[slot];
    wm.s_count = slot_s_count_[slot];
    send_with_drain(slot, net::MsgType::kWatermark, net::encode(wm));
  }

  // Barrier: every worker answers the watermark with an end-of-epoch
  // result batch.
  Timer barrier;
  while (true) {
    drain_results();
    bool all_done = true;
    for (const std::uint64_t done : done_epoch_) {
      if (done < epoch_) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    HAL_CHECK(barrier.elapsed_seconds() < 120.0,
              "coordinator: epoch barrier wedged for 120s");
    std::this_thread::yield();
  }

  // The workers dropped the stale pairs. A result probing an earlier
  // epoch came from a worker that no longer held its probe's horizon.
  if (exact && !probes_in_epoch(epoch_results_, epoch_first_seq)) {
    epoch_results_.clear();
    epoch_dropped_ = 0;
    HAL_CHECK(false,
              "a worker emitted a result after its probe's epoch; "
              "exact-global windows need workers that emit every pair in "
              "its probe's epoch");
  }
  filtered_results_ += std::exchange(epoch_dropped_, 0);
  // Same deterministic emission order as the in-process cluster: by
  // probing-tuple arrival, then stored-tuple arrival.
  std::sort(epoch_results_.begin(), epoch_results_.end(),
            [](const ResultTuple& a, const ResultTuple& b) {
              const auto pa = probe_seq(a), pb = probe_seq(b);
              if (pa != pb) return pa < pb;
              if (a.r.seq != b.r.seq) return a.r.seq < b.r.seq;
              return a.s.seq < b.s.seq;
            });

  core::RunReport rep;
  rep.tuples_processed = tuples.size();
  rep.results_emitted = epoch_results_.size();
  rep.elapsed_seconds = wall.elapsed_seconds();

  input_tuples_ += tuples.size();
  merged_results_ += epoch_results_.size();
  elapsed_seconds_ += rep.elapsed_seconds;
  collected_.insert(collected_.end(),
                    std::make_move_iterator(epoch_results_.begin()),
                    std::make_move_iterator(epoch_results_.end()));
  epoch_results_.clear();
  return rep;
}

std::vector<ResultTuple> RemoteCoordinator::take_results() {
  std::vector<ResultTuple> out = std::move(collected_);
  collected_.clear();
  return out;
}

RemoteClusterReport RemoteCoordinator::report() const {
  RemoteClusterReport rep;
  rep.epochs = epoch_;
  rep.input_tuples = input_tuples_;
  rep.routed_tuples = routed_tuples_;
  rep.merged_results = merged_results_;
  rep.filtered_results = filtered_results_;
  rep.elapsed_seconds = elapsed_seconds_;
  for (const auto& conn : conns_) rep.net.add(conn->stats());
  return rep;
}

void RemoteCoordinator::collect_metrics(obs::MetricRegistry& registry,
                                        const std::string& prefix) const {
  const RemoteClusterReport rep = report();
  registry.set_counter(prefix + "epochs", rep.epochs);
  registry.set_counter(prefix + "input_tuples", rep.input_tuples);
  registry.set_counter(prefix + "routed_tuples", rep.routed_tuples);
  registry.set_counter(prefix + "merged_results", rep.merged_results);
  registry.set_counter(prefix + "filtered_results", rep.filtered_results);
  registry.set_gauge(prefix + "elapsed_seconds", rep.elapsed_seconds,
                     obs::Stability::kRuntime);
  net::collect_metrics(registry, prefix + "net.", rep.net);
}

}  // namespace hal::cluster
