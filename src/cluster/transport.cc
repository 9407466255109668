#include "cluster/transport.h"

#include "common/assert.h"

namespace hal::cluster {

TransportParams TransportParams::from_pipeline(const dist::PipelineParams& p) {
  TransportParams t;
  // Router → worker crosses the datacenter switch and the worker's NIC;
  // the slower of the two caps the link rate, both add latency.
  t.ingress.bandwidth_tps = p.switch_tps < p.nic_tps ? p.switch_tps
                                                     : p.nic_tps;
  t.ingress.latency_us = p.switch_latency_us + p.nic_latency_us;
  // Worker → merger is a NIC-to-NIC result hop.
  t.egress.bandwidth_tps = p.nic_tps;
  t.egress.latency_us = p.nic_latency_us;
  return t;
}

bool net_try_send(net::Connection& conn, const TupleBatch& b) {
  net::TupleBatchMsg msg;
  msg.epoch = b.epoch;
  msg.link_seq = b.link_seq;
  msg.end_of_epoch = b.end_of_epoch;
  msg.tuples = b.tuples;
  msg.stamps = b.stamps;
  msg.r_count = b.r_count;
  msg.s_count = b.s_count;
  return conn.try_send(net::MsgType::kTupleBatch, net::encode(msg));
}

bool net_try_send(net::Connection& conn, const ResultBatch& b) {
  net::ResultBatchMsg msg;
  msg.epoch = b.epoch;
  msg.end_of_epoch = b.end_of_epoch;
  msg.died = b.died;
  msg.dropped = b.dropped;
  msg.results = b.results;
  return conn.try_send(net::MsgType::kResultBatch, net::encode(msg));
}

bool net_try_recv(net::Connection& conn, TupleBatch& out) {
  net::Frame frame;
  if (!conn.try_recv(frame)) return false;
  // Recoverable, not fatal: a protocol violation on one link fail-stops
  // its consumer (the supervisor can restart a worker), never the process.
  HAL_CHECK_RECOVERABLE(frame.header.type == net::MsgType::kTupleBatch,
                        "unexpected message type on a tuple link");
  net::TupleBatchMsg msg;
  HAL_CHECK_RECOVERABLE(net::decode(frame.payload, msg),
                        "undecodable tuple batch on a verified frame");
  out.epoch = msg.epoch;
  out.link_seq = msg.link_seq;
  out.end_of_epoch = msg.end_of_epoch;
  out.deliver_at_us = 0.0;
  out.tuples = std::move(msg.tuples);
  out.stamps = std::move(msg.stamps);
  out.r_count = msg.r_count;
  out.s_count = msg.s_count;
  return true;
}

bool net_try_recv(net::Connection& conn, ResultBatch& out) {
  net::Frame frame;
  if (!conn.try_recv(frame)) return false;
  HAL_CHECK_RECOVERABLE(frame.header.type == net::MsgType::kResultBatch,
                        "unexpected message type on a result link");
  net::ResultBatchMsg msg;
  HAL_CHECK_RECOVERABLE(net::decode(frame.payload, msg),
                        "undecodable result batch on a verified frame");
  out.epoch = msg.epoch;
  out.end_of_epoch = msg.end_of_epoch;
  out.died = msg.died;
  out.deliver_at_us = 0.0;
  out.dropped = msg.dropped;
  out.results = std::move(msg.results);
  return true;
}

dist::PathModel shard_path_model(const TransportParams& t, double worker_tps,
                                 double result_selectivity,
                                 const std::string& name) {
  dist::PathModel path(name);
  const double unthrottled = 1e18;  // effectively infinite capacity
  path.add_stage({"ingress-link",
                  t.ingress.bandwidth_tps > 0.0 ? t.ingress.bandwidth_tps
                                                : unthrottled,
                  t.ingress.latency_us, 1.0});
  path.add_stage({"worker-engine", worker_tps, 0.0, result_selectivity});
  path.add_stage({"egress-link",
                  t.egress.bandwidth_tps > 0.0 ? t.egress.bandwidth_tps
                                               : unthrottled,
                  t.egress.latency_us, 1.0});
  return path;
}

}  // namespace hal::cluster
