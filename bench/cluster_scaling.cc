// hal::cluster scaling bench: sharded stream-join throughput vs shard
// count, transport batch size, and wrapped backend.
//
// Runs the equi-join under key-hash partitioning with per-partition
// windows (WindowMode::kPartitionedLocal) — the discipline a real
// key-partitioned deployment uses, where each of N shards maintains W/N
// of the global window. On a single machine the speedup therefore comes
// from state partitioning (each probe scans a window N× smaller), which
// is the same lever the paper's SplitJoin sub-windows pull inside one
// FPGA (§III-B), applied at cluster scale.
//
// Also exercises the modeled transport: an overload scenario with tiny
// link buffers (backpressure stalls + queue high-water must register),
// and a throttled-link run whose measured throughput is checked against
// the dist::PathModel prediction for the same shard path.
//
// A final section re-runs the sharded join with hal::net links — every
// batch crossing the frame codec and a real (or loopback) wire instead
// of the in-process SPSC ring — and reports the wire tax next to the
// SPSC baseline: 5 interleaved SPSC/net pairs on fresh engines per shard
// count, as medians with their min-max and the ratio of the medians.
// `--transport=loopback|unix|tcp` picks the wire (default loopback);
// every sample lands in BENCH_net.json.
//
// Emits BENCH_cluster.json with the full sweep for downstream tooling.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster_engine.h"
#include "stream/generator.h"

namespace {

using namespace hal;

struct SweepPoint {
  const char* backend;
  std::uint32_t shards;
  std::size_t batch;
  double tps;
  double speedup;
  std::uint64_t results;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// "median [min-max]" of throughput samples, in M tuples/s.
std::string spread_mtps(const std::vector<double>& tps) {
  const auto [lo, hi] = std::minmax_element(tps.begin(), tps.end());
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f [%.3f-%.3f]", median(tps) / 1e6,
                *lo / 1e6, *hi / 1e6);
  return buf;
}

// JSON array of throughput samples, in run order.
std::string json_samples(const std::vector<double>& tps) {
  std::string out = "[";
  for (std::size_t i = 0; i < tps.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.1f", i == 0 ? "" : ", ", tps[i]);
    out += buf;
  }
  return out + "]";
}

std::vector<stream::Tuple> sweep_workload(std::size_t n) {
  stream::WorkloadConfig wl;
  wl.seed = hal::bench::seed_or(20170605);  // default: ICDCS'17
  wl.key_domain = 1u << 16;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

cluster::ClusterConfig sharded(core::Backend backend, std::uint32_t shards,
                               std::size_t batch, std::size_t window) {
  cluster::ClusterConfig cfg;
  cfg.partitioning = cluster::Partitioning::kKeyHash;
  cfg.window_mode = cluster::WindowMode::kPartitionedLocal;
  cfg.shards = shards;
  cfg.window_size = window;
  cfg.spec = stream::JoinSpec::equi_on_key();
  cfg.worker.backend = backend;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = batch;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  hal::bench::init(argc, argv);
  bench::banner("Cluster scaling",
                "sharded stream join: throughput vs shards × transport "
                "batch × wrapped backend (key-hash, W/N windows)");

  constexpr std::size_t kWindow = 4096;
  constexpr std::size_t kTuples = 80'000;
  const auto tuples = sweep_workload(kTuples);

  const std::pair<core::Backend, const char*> backends[] = {
      {core::Backend::kSwSplitJoin, "sw-splitjoin"},
      {core::Backend::kSwBatch, "sw-batch"},
  };

  std::vector<SweepPoint> sweep;
  // speedup baseline: shards=1 at the same batch size, per backend
  std::map<std::pair<std::string, std::size_t>, double> base_tps;

  Table table({"backend", "shards", "batch", "Mtuples/s", "speedup",
               "results"});
  for (const auto& [backend, name] : backends) {
    for (const std::size_t batch : {std::size_t{32}, std::size_t{256}}) {
      for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        cluster::ClusterEngine engine(
            sharded(backend, shards, batch, kWindow));
        const auto run = engine.process(tuples);
        const double tps = run.tuples_processed / run.elapsed_seconds;
        if (shards == 1) base_tps[{name, batch}] = tps;
        const double speedup = tps / base_tps[{name, batch}];
        sweep.push_back(
            {name, shards, batch, tps, speedup, run.results_emitted});
        table.add_row({name, Table::integer(shards), Table::integer(batch),
                       Table::num(tps / 1e6, 3), Table::num(speedup, 2),
                       Table::integer(run.results_emitted)});
      }
    }
  }
  table.print();

  double best_speedup8_splitjoin = 0.0;
  bool monotone = true;
  std::map<std::pair<std::string, std::size_t>, double> tps8;
  for (const auto& p : sweep) {
    if (p.shards == 8) {
      tps8[{p.backend, p.batch}] = p.tps;
      if (std::string(p.backend) == "sw-splitjoin") {
        best_speedup8_splitjoin = std::max(best_speedup8_splitjoin,
                                           p.speedup);
      }
    }
  }
  for (const auto& [key, t8] : tps8) {
    if (t8 <= base_tps[key]) monotone = false;
  }
  bench::claim(best_speedup8_splitjoin >= 3.0,
               "8 software shards sustain >= 3x the 1-shard equi-join "
               "rate (W/N windows cut per-probe work)");
  bench::claim(monotone,
               "8 shards beat 1 shard for every backend x batch point");

  // --- Backpressure under overload ---------------------------------------
  bench::banner("Cluster overload",
                "tiny link buffers + slow workers: backpressure must "
                "register as stalls and queue high-water, never loss");
  cluster::ClusterConfig over =
      sharded(core::Backend::kSwSplitJoin, 4, 16, kWindow);
  over.transport.ingress.capacity_batches = 2;
  cluster::ClusterEngine over_engine(over);
  const auto over_run = over_engine.process(
      std::vector<stream::Tuple>(tuples.begin(), tuples.begin() + 20'000));
  const cluster::ClusterReport over_rep = over_engine.report();
  std::printf("  router stall spins : %llu\n",
              static_cast<unsigned long long>(over_rep.router_stall_spins));
  std::printf("  ingress high-water : %zu batches (capacity 2)\n",
              over_rep.ingress_queue_high_water);
  bench::claim(over_rep.router_stall_spins > 0,
               "bounded ingress queues push back on the router");
  bench::claim(over_rep.ingress_queue_high_water >= 2,
               "ingress queues hit their high-water mark");
  bench::claim(over_run.tuples_processed == 20'000 &&
                   over_rep.lost_tuples == 0,
               "backpressure loses nothing");

  // --- PathModel validation ----------------------------------------------
  bench::banner("Cluster path model",
                "throttled ingress links: measured cluster throughput vs "
                "dist::PathModel prediction for the shard path");
  cluster::ClusterConfig throttled =
      sharded(core::Backend::kSwSplitJoin, 2, 64, 64);
  throttled.transport.ingress.bandwidth_tps = 2e5;  // per shard link
  cluster::ClusterEngine thr_engine(throttled);
  const auto thr_run = thr_engine.process(
      std::vector<stream::Tuple>(tuples.begin(), tuples.begin() + 40'000));
  const double measured = thr_run.tuples_processed / thr_run.elapsed_seconds;
  // Each shard's path: throttled link -> (fast) worker -> unthrottled
  // egress. The cluster sustains shards x the per-path rate.
  const auto path = cluster::shard_path_model(
      throttled.transport, /*worker_tps=*/1e9, /*result_selectivity=*/1.0,
      "throttled-shard");
  const double predicted = path.sustainable_input_tps() * throttled.shards;
  std::printf("  predicted : %.0f tuples/s (2 links x 200k)\n", predicted);
  std::printf("  measured  : %.0f tuples/s\n", measured);
  bench::claim(measured > 0.5 * predicted && measured < 1.5 * predicted,
               "measured throughput within 50% of the PathModel "
               "prediction (link-bound)");

  // --- hal::net wire tax ---------------------------------------------------
  net::TransportKind wire = net::TransportKind::kLoopback;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--transport=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      if (!net::parse_transport_kind(argv[i] + std::strlen(kFlag), wire)) {
        std::fprintf(stderr, "unknown --transport, using loopback\n");
      }
    }
  }
  bench::banner("Cluster wire tax",
                "same sharded join, links over hal::net instead of the "
                "SPSC ring: codec + credit + (real) socket cost");
  std::printf("  wire: %s\n", net::to_string(wire));

  // One short run per side swings several-fold on a shared host, so each
  // shard count runs kPairs SPSC/net pairs back to back on fresh engines.
  constexpr int kPairs = 5;
  struct NetPoint {
    std::uint32_t shards;
    std::vector<double> spsc_tps;  // one sample per pair, in run order
    std::vector<double> net_tps;
    cluster::ClusterReport rep;  // the last net run's
  };
  std::vector<NetPoint> net_sweep;
  const auto net_tuples =
      std::vector<stream::Tuple>(tuples.begin(), tuples.begin() + 40'000);
  Table net_table({"shards", "SPSC Mtuples/s [min-max]",
                   "net Mtuples/s [min-max]", "ratio", "frames",
                   "MB on wire", "credit stalls"});
  bool results_identical = true;
  for (const std::uint32_t shards : {2u, 4u}) {
    cluster::ClusterConfig base =
        sharded(core::Backend::kSwSplitJoin, shards, 64, kWindow);
    // Exact-global windows: the threaded sw backend's window-edge
    // tolerance is filtered out, so the result count is deterministic
    // and the SPSC/net comparison is exact, not approximate.
    base.window_mode = cluster::WindowMode::kExactGlobal;
    cluster::ClusterConfig wired = base;
    wired.transport.link_transport = wire;
    NetPoint point{shards, {}, {}, {}};
    for (int pair = 0; pair < kPairs; ++pair) {
      cluster::ClusterEngine spsc_engine(base);
      const auto spsc_run = spsc_engine.process(net_tuples);
      point.spsc_tps.push_back(spsc_run.tuples_processed /
                               spsc_run.elapsed_seconds);
      cluster::ClusterEngine net_engine(wired);
      const auto net_run = net_engine.process(net_tuples);
      point.net_tps.push_back(net_run.tuples_processed /
                              net_run.elapsed_seconds);
      if (net_run.results_emitted != spsc_run.results_emitted) {
        results_identical = false;
      }
      point.rep = net_engine.report();
    }
    const cluster::ClusterReport& rep = point.rep;
    net_table.add_row(
        {Table::integer(shards), spread_mtps(point.spsc_tps),
         spread_mtps(point.net_tps),
         Table::num(median(point.net_tps) / median(point.spsc_tps), 2),
         Table::integer(rep.net.frames_sent),
         Table::num(rep.net.bytes_sent / 1e6, 1),
         Table::integer(rep.net.credit_stalls)});
    net_sweep.push_back(std::move(point));
  }
  net_table.print();
  bench::claim(results_identical,
               "net-backed links emit exactly the SPSC result count in "
               "every pair");

  const std::string net_json_path = bench::out_path("BENCH_net.json");
  if (std::FILE* f = std::fopen(net_json_path.c_str(), "w")) {
    bench::json_header(f, "cluster_scaling/net", bench::seed_or(20170605),
                       net_json_path);
    std::fprintf(f, "  \"transport\": \"%s\",\n  \"tuples\": %zu,\n",
                 net::to_string(wire), net_tuples.size());
    std::fprintf(f, "  \"pairs\": %d,\n  \"sweep\": [\n", kPairs);
    for (std::size_t i = 0; i < net_sweep.size(); ++i) {
      const auto& p = net_sweep[i];
      std::fprintf(
          f,
          "    {\"shards\": %u, \"spsc_tps_median\": %.1f, "
          "\"net_tps_median\": %.1f, \"spsc_tps\": %s, \"net_tps\": %s, "
          "\"frames_sent\": %llu, \"bytes_sent\": %llu, "
          "\"credit_stalls\": %llu, \"acks\": %llu}%s\n",
          p.shards, median(p.spsc_tps), median(p.net_tps),
          json_samples(p.spsc_tps).c_str(), json_samples(p.net_tps).c_str(),
          static_cast<unsigned long long>(p.rep.net.frames_sent),
          static_cast<unsigned long long>(p.rep.net.bytes_sent),
          static_cast<unsigned long long>(p.rep.net.credit_stalls),
          static_cast<unsigned long long>(p.rep.net.acks_received),
          i + 1 < net_sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", net_json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", net_json_path.c_str());
  }

  // Fold the overload run's counters into the process registry so
  // --obs-json captures the cluster layer's metrics too.
  over_engine.collect_metrics(bench::registry(), "cluster.overload.");

  // --- JSON dump ----------------------------------------------------------
  const std::string json_path = bench::out_path("BENCH_cluster.json");
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    bench::json_header(f, "cluster_scaling", bench::seed_or(20170605),
                       json_path);
    std::fprintf(f, "  \"window\": %zu,\n  \"tuples\": %zu,\n", kWindow,
                 kTuples);
    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& p = sweep[i];
      std::fprintf(f,
                   "    {\"backend\": \"%s\", \"shards\": %u, \"batch\": "
                   "%zu, \"tuples_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"results\": %llu}%s\n",
                   p.backend, p.shards, p.batch, p.tps, p.speedup,
                   static_cast<unsigned long long>(p.results),
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"overload\": {\"router_stall_spins\": %llu, "
        "\"ingress_queue_high_water\": %zu, \"lost_tuples\": %llu},\n",
        static_cast<unsigned long long>(over_rep.router_stall_spins),
        over_rep.ingress_queue_high_water,
        static_cast<unsigned long long>(over_rep.lost_tuples));
    std::fprintf(f,
                 "  \"path_model\": {\"predicted_tps\": %.1f, "
                 "\"measured_tps\": %.1f}\n}\n",
                 predicted, measured);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  return bench::finish();
}
