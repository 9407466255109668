// Workloads of the repository benchmark and the round that measures them.
//
// A run is a sequence of rounds. Every round builds a fresh engine and
// replays the same seeded input: a warm-up of 2·W tuples, a closed-loop
// phase and an open-loop phase, each a fixed number of fixed-size
// micro-batches. Rounds repeat until the run's time is used up, so a
// faster program runs more rounds but never more work per round — the
// exact-global cluster's state (and with it RSS and p99) grows with the
// number of tuples routed, and a fixed-duration phase would hand a faster
// commit a harder job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.h"
#include "stream/generator.h"
#include "stream/tuple.h"
#include "trace.h"

namespace perfbench {

enum class Kind : std::uint8_t { kCluster, kHwUniflow };

struct Workload {
  std::string name;
  Kind kind = Kind::kCluster;
  // Cluster links: raw SPSC queues or hal::net loopback (full codec).
  hal::net::TransportKind links = hal::net::TransportKind::kInProcess;
  std::uint32_t shards = 2;      // cluster only
  std::uint32_t hw_cores = 64;   // hw-uniflow only
  std::size_t window = 0;        // global W per stream
  hal::stream::KeyDistribution keys = hal::stream::KeyDistribution::kUniform;
  double zipf_theta = 0.9;
  std::uint32_t key_domain = 1u << 20;
  // Open loop: one micro-batch every open_period_ms at offered_tps. The
  // cluster workloads use 1 ms batches; the cycle simulator serves one tuple
  // in about 0.5 ms of host time, so hw-uniflow offers one tuple per 2 ms to
  // stay at light load.
  std::size_t offered_tps = 0;
  std::size_t open_period_ms = 1;
  std::size_t open_batches = 0;
  // Closed loop: back-to-back process() calls of closed_batch tuples.
  std::size_t closed_batch = 0;
  std::size_t closed_batches = 0;
  // The warm-up plus this many closed-loop batches form the prefix whose
  // full result multiset is checked against stream::ReferenceJoin.
  std::size_t prefix_closed_batches = 0;
};

// The named workloads; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(const std::string& name);
// A seconds-long version of a workload for the benchmark's self-tests.
[[nodiscard]] Workload tiny(Workload w);

enum class Phase : std::uint8_t { kPrefill, kWarmup, kClosed, kOpen };

// One run's input, sliced into the micro-batches a round feeds.
struct Inputs {
  std::vector<std::vector<hal::stream::Tuple>> batches;
  std::vector<Phase> phase;  // per batch
  std::size_t tuples = 0;
  std::size_t prefix_batches = 0;  // leading batches checked in full
};

[[nodiscard]] Inputs make_inputs(const Workload& w, std::uint64_t seed);

// What the oracles say the engine must emit.
struct Expected {
  std::vector<std::uint64_t> counts;  // per batch (CountingOracle)
  // Per prefix batch, sorted (r_seq, s_seq) of ReferenceJoin's results.
  std::vector<std::vector<hal::stream::ResultKey>> prefix;
};

[[nodiscard]] Expected make_expected(const Workload& w, const Inputs& in);

// Per-layer counters of one round, read from the engines' own reports.
struct LayerStats {
  // cluster: busy fraction and router stalls over the closed loop, the
  // rest over the whole round
  double worker_busy_frac = 0.0;
  double router_stall_spins_per_ktuple = 0.0;
  double ingress_queue_hw = 0.0;
  double worker_busy_skew = 0.0;
  double tuples_in_skew = 0.0;
  double egress_queue_hw = 0.0;
  double worker_stall_spins_per_ktuple = 0.0;
  double useful_pair_ratio = 0.0;
  // net (whole round; zero on in-process links)
  double net_bytes_per_tuple = 0.0;
  double net_frames_per_ktuple = 0.0;
  double net_credit_stalls_per_ktuple = 0.0;
  // sim and hw (closed-loop phase)
  double hw_cycles_per_tuple = 0.0;
  double sim_cycles_per_s = 0.0;
  double sim_module_evals_per_s = 0.0;
  double hw_probes_per_tuple = 0.0;
  double hw_distribution_stall_cycles_per_tuple = 0.0;
  double hw_gathering_stall_cycles_per_tuple = 0.0;
};

struct RoundResult {
  double setup_s = 0.0;
  double closed_tps = 0.0;
  std::vector<double> latency_ms;  // one per open-loop batch
  double gen_lag_ms_max = 0.0;     // worst generator wake-up lateness
  std::uint64_t attempted = 0;     // tuples offered
  std::uint64_t failed = 0;        // tuples in failed batches, lost or shed
  std::vector<std::string> errors;
  LayerStats layers;
  // Traced rounds only: the engine's results per batch, for the replays.
  std::vector<std::vector<hal::stream::ResultTuple>> results;
};

// One round on a fresh engine. `tamper` corrupts the collected results
// before the oracle check (the self-test that proves the check can fail).
[[nodiscard]] RoundResult run_round(const Workload& w, const Inputs& in,
                                    const Expected& expected, Tracer* tracer,
                                    bool tamper);

// Traced replay of the run's inputs through the layers' public entry
// points: cluster::Router::route_span, cluster::WindowTracker,
// sw::SplitJoinEngine::process_batched and cluster::net_try_send/recv.
struct ReplayStats {
  double router_ns_per_tuple = 0.0;
  double tracker_ns_per_tuple = 0.0;
  double sw_probe_ns_per_tuple = 0.0;
  double sw_probes_per_tuple = 0.0;
  double sw_matches_per_tuple = 0.0;
  double net_codec_us_per_batch = 0.0;
};

[[nodiscard]] ReplayStats run_replays(
    const Workload& w, const Inputs& in,
    const std::vector<std::vector<hal::stream::ResultTuple>>& results,
    Tracer& tracer);

}  // namespace perfbench
