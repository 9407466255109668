#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <span>
#include <thread>

#include "cluster/cluster_engine.h"
#include "cluster/router.h"
#include "cluster/transport.h"
#include "common/assert.h"
#include "core/stream_join.h"
#include "oracle.h"
#include "stream/reference_join.h"
#include "sw/splitjoin.h"

namespace perfbench {

using hal::stream::ResultKey;
using hal::stream::ResultTuple;
using hal::stream::Tuple;
using Clock = std::chrono::steady_clock;

namespace {

// Tuples per cluster link message (and per batched worker dispatch).
constexpr std::size_t kWireBatch = 64;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    Workload u;
    u.name = "cluster-uniform";
    u.window = 1u << 15;
    u.offered_tps = 100000;
    u.open_batches = 1000;
    u.closed_batch = 100;
    u.closed_batches = 20000;
    u.prefix_closed_batches = 20;
    v.push_back(u);

    Workload z;
    z.name = "cluster-zipf-wire";
    z.links = hal::net::TransportKind::kLoopback;
    z.window = 1u << 12;
    z.keys = hal::stream::KeyDistribution::kZipf;
    z.offered_tps = 20000;
    z.open_batches = 1000;
    z.closed_batch = 20;
    z.closed_batches = 5000;
    z.prefix_closed_batches = 20;
    v.push_back(z);

    Workload h;
    h.name = "hw-uniflow";
    h.kind = Kind::kHwUniflow;
    h.window = 1u << 13;
    h.offered_tps = 500;
    h.open_period_ms = 2;
    h.open_batches = 1000;
    h.closed_batch = 1024;
    h.closed_batches = 4;
    h.prefix_closed_batches = 1;
    v.push_back(h);
    return v;
  }();
  return all;
}

std::unique_ptr<hal::core::StreamJoinEngine> make_engine(const Workload& w) {
  if (w.kind == Kind::kHwUniflow) {
    hal::core::EngineConfig c;
    c.backend = hal::core::Backend::kHwUniflow;
    c.num_cores = w.hw_cores;
    c.window_size = w.window;
    return hal::core::make_engine(c);
  }
  hal::cluster::ClusterConfig c;
  c.partitioning = hal::cluster::Partitioning::kKeyHash;
  c.shards = w.shards;
  c.window_mode = hal::cluster::WindowMode::kExactGlobal;
  c.window_size = w.window;
  c.worker.backend = hal::core::Backend::kSwSplitJoin;
  c.worker.num_cores = 1;
  c.worker.collect_results = true;
  c.worker.dispatch_batch = kWireBatch;
  c.worker.probe = hal::sw::ProbePath::kIndexed;
  c.transport.batch_size = kWireBatch;
  c.transport.link_transport = w.links;
  return hal::cluster::make_cluster_engine(c);
}

double skew(const std::vector<double>& v) {
  double sum = 0.0;
  double max = 0.0;
  for (const double x : v) {
    sum += x;
    max = std::max(max, x);
  }
  return sum > 0.0 ? max * static_cast<double>(v.size()) / sum : 0.0;
}

double per_ktuple(std::uint64_t n, std::uint64_t tuples) {
  return tuples > 0 ? 1e3 * static_cast<double>(n) / static_cast<double>(tuples)
                    : 0.0;
}

void cluster_layers(const hal::cluster::ClusterReport& warm,
                    const hal::cluster::ClusterReport& closed,
                    const hal::cluster::ClusterReport& end,
                    double closed_wall_s, LayerStats& out) {
  const std::uint64_t closed_tuples = closed.input_tuples - warm.input_tuples;
  double busy = 0.0;
  for (std::size_t i = 0; i < closed.workers.size(); ++i) {
    busy += closed.workers[i].busy_seconds - warm.workers[i].busy_seconds;
  }
  out.worker_busy_frac =
      busy / (static_cast<double>(closed.workers.size()) * closed_wall_s);
  out.router_stall_spins_per_ktuple = per_ktuple(
      closed.router_stall_spins - warm.router_stall_spins, closed_tuples);

  std::vector<double> busy_s;
  std::vector<double> tuples_in;
  for (const auto& wr : end.workers) {
    busy_s.push_back(wr.busy_seconds);
    tuples_in.push_back(static_cast<double>(wr.tuples_in));
  }
  out.worker_busy_skew = skew(busy_s);
  out.tuples_in_skew = skew(tuples_in);
  out.ingress_queue_hw = static_cast<double>(end.ingress_queue_high_water);
  out.egress_queue_hw = static_cast<double>(end.egress_queue_high_water);
  out.worker_stall_spins_per_ktuple =
      per_ktuple(end.worker_stall_spins, end.input_tuples);
  const double pairs =
      static_cast<double>(end.merged_results + end.filtered_results);
  out.useful_pair_ratio =
      pairs > 0.0 ? static_cast<double>(end.merged_results) / pairs : 1.0;
  if (end.net_enabled) {
    const auto n = static_cast<double>(end.input_tuples);
    out.net_bytes_per_tuple = static_cast<double>(end.net.bytes_sent) / n;
    out.net_frames_per_ktuple =
        per_ktuple(end.net.frames_sent, end.input_tuples);
    out.net_credit_stalls_per_ktuple =
        per_ktuple(end.net.credit_stalls, end.input_tuples);
  }
}

struct HwCounters {
  double cycles = 0.0;
  double modules = 0.0;
  double probes = 0.0;
  double dist_stalls = 0.0;
  double gather_stalls = 0.0;
};

HwCounters hw_counters(const hal::core::StreamJoinEngine& e) {
  hal::obs::MetricRegistry registry;
  e.collect_metrics(registry, "");
  const hal::obs::ObsSnapshot snap = registry.snapshot();
  const auto get = [&snap](const char* name) {
    const hal::obs::MetricSnapshot* m = snap.find(name);
    return m != nullptr ? static_cast<double>(m->counter_value) : 0.0;
  };
  return {get("sim.cycles"), get("sim.modules"), get("probes"),
          get("distribution.stall_cycles"), get("gathering.stall_cycles")};
}

void hw_layers(const HwCounters& a, const HwCounters& b, double tuples,
               double wall_s, LayerStats& out) {
  const double cycles = b.cycles - a.cycles;
  out.hw_cycles_per_tuple = cycles / tuples;
  out.sim_cycles_per_s = cycles / wall_s;
  out.sim_module_evals_per_s = b.modules * cycles / wall_s;
  out.hw_probes_per_tuple = (b.probes - a.probes) / tuples;
  out.hw_distribution_stall_cycles_per_tuple =
      (b.dist_stalls - a.dist_stalls) / tuples;
  out.hw_gathering_stall_cycles_per_tuple =
      (b.gather_stalls - a.gather_stalls) / tuples;
}

// Sleeps until shortly before `due`, then yields until it passes.
void wait_until(Clock::time_point due) {
  const auto coarse = due - std::chrono::microseconds(200);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < due) std::this_thread::yield();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload tiny(Workload w) {
  w.window = 256;
  w.key_domain = 1u << 8;
  w.hw_cores = 8;
  w.open_batches = 50;
  w.closed_batches = std::min<std::size_t>(w.closed_batches, 8);
  w.closed_batch = std::min<std::size_t>(w.closed_batch, 64);
  w.prefix_closed_batches = 2;
  return w;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  hal::stream::WorkloadConfig wc;
  wc.seed = seed;
  wc.key_domain = w.key_domain;
  wc.distribution = w.keys;
  wc.zipf_theta = w.zipf_theta;
  hal::stream::WorkloadGenerator gen(wc);

  Inputs in;
  const auto add = [&](Phase phase, std::size_t n) {
    in.batches.push_back(gen.take(n));
    in.phase.push_back(phase);
    in.tuples += n;
  };
  const std::size_t warmup = 2 * w.window;
  if (w.kind == Kind::kHwUniflow) {
    // Streaming 2·W tuples through the cycle simulator would take seconds;
    // prefill loads the same window state without simulating it.
    add(Phase::kPrefill, warmup);
  } else {
    for (std::size_t n = 0; n < warmup; n += w.closed_batch) {
      add(Phase::kWarmup, std::min(w.closed_batch, warmup - n));
    }
  }
  in.prefix_batches = in.batches.size() + w.prefix_closed_batches;
  for (std::size_t i = 0; i < w.closed_batches; ++i) {
    add(Phase::kClosed, w.closed_batch);
  }
  for (std::size_t i = 0; i < w.open_batches; ++i) {
    add(Phase::kOpen, w.offered_tps * w.open_period_ms / 1000);
  }
  return in;
}

Expected make_expected(const Workload& w, const Inputs& in) {
  CountingOracle counting(w.window);
  hal::stream::ReferenceJoin reference(w.window,
                                       hal::stream::JoinSpec::equi_on_key());
  Expected e;
  std::vector<ResultTuple> out;
  for (std::size_t i = 0; i < in.batches.size(); ++i) {
    std::uint64_t count = 0;
    for (const Tuple& t : in.batches[i]) count += counting.process(t);
    if (i < in.prefix_batches) {
      out.clear();
      for (const Tuple& t : in.batches[i]) reference.process(t, out);
      e.prefix.push_back(hal::stream::normalize(out));
    }
    // A prefill loads the windows without emitting anything.
    if (in.phase[i] == Phase::kPrefill) {
      count = 0;
      if (i < e.prefix.size()) e.prefix[i].clear();
    }
    e.counts.push_back(count);
  }
  return e;
}

RoundResult run_round(const Workload& w, const Inputs& in,
                      const Expected& expected, Tracer* tracer, bool tamper) {
  RoundResult rr;
  rr.attempted = in.tuples;
  std::vector<std::size_t> got_counts(in.batches.size(), 0);
  std::vector<std::vector<ResultTuple>> prefix(in.prefix_batches);
  if (tracer != nullptr) rr.results.resize(in.batches.size());
  std::size_t next = 0;  // first batch not yet fed

  const auto feed = [&](std::size_t i, hal::core::StreamJoinEngine& e) {
    Scope batch(tracer, "bench.batch", static_cast<std::int64_t>(i));
    std::vector<ResultTuple> got;
    {
      Scope s(tracer, "core.process", static_cast<std::int64_t>(i));
      (void)e.process(in.batches[i]);
    }
    {
      Scope s(tracer, "core.take_results", static_cast<std::int64_t>(i));
      got = e.take_results();
    }
    got_counts[i] = got.size();
    if (i < prefix.size()) {
      prefix[i] = tracer != nullptr ? got : std::move(got);
    }
    if (tracer != nullptr) rr.results[i] = std::move(got);
  };

  try {
    const auto setup_t0 = Clock::now();
    std::unique_ptr<hal::core::StreamJoinEngine> engine = make_engine(w);
    auto* cluster = dynamic_cast<hal::cluster::ClusterEngine*>(engine.get());
    while (next < in.batches.size() && in.phase[next] <= Phase::kWarmup) {
      if (in.phase[next] == Phase::kPrefill) {
        (void)engine->process({});  // drains the operator programming words
        engine->prefill(in.batches[next]);
      } else {
        feed(next, *engine);
      }
      ++next;
    }
    rr.setup_s = seconds_since(setup_t0);

    hal::cluster::ClusterReport warm_report;
    HwCounters hw_before;
    if (cluster != nullptr) {
      warm_report = cluster->report();
    } else {
      hw_before = hw_counters(*engine);
    }

    const auto closed_t0 = Clock::now();
    std::size_t closed_tuples = 0;
    for (; next < in.batches.size() && in.phase[next] == Phase::kClosed;
         ++next) {
      feed(next, *engine);
      closed_tuples += in.batches[next].size();
    }
    const double closed_s = seconds_since(closed_t0);
    rr.closed_tps = static_cast<double>(closed_tuples) / closed_s;
    hal::cluster::ClusterReport closed_report;
    if (cluster != nullptr) {
      closed_report = cluster->report();
    } else {
      hw_layers(hw_before, hw_counters(*engine),
                static_cast<double>(closed_tuples), closed_s, rr.layers);
    }

    // Open loop: batch k is due at open_t0 + k periods whatever the engine did
    // before, and its latency runs from that due time, so a stall is
    // charged to every batch queued behind it.
    const auto period = std::chrono::milliseconds(w.open_period_ms);
    const auto open_t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t k = 0; next < in.batches.size(); ++next, ++k) {
      const auto due = open_t0 + static_cast<std::int64_t>(k) * period;
      if (Clock::now() < due) {
        wait_until(due);
        rr.gen_lag_ms_max = std::max(
            rr.gen_lag_ms_max,
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
      }
      feed(next, *engine);
      rr.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
    }

    if (cluster != nullptr) {
      const hal::cluster::ClusterReport end = cluster->report();
      cluster_layers(warm_report, closed_report, end, closed_s, rr.layers);
      rr.failed += end.lost_tuples + end.guard.shed;
      if (end.lost_tuples + end.guard.shed > 0) {
        rr.errors.push_back("cluster lost or shed tuples");
      }
    }
  } catch (const std::exception& ex) {
    rr.errors.push_back(std::string("batch ") + std::to_string(next) +
                        " threw: " + ex.what());
    for (std::size_t i = next; i < in.batches.size(); ++i) {
      rr.failed += in.batches[i].size();
    }
  }

  if (tamper) {
    // One corrupted pair in the prefix (same count, different multiset)
    // and one result missing from the last batch that has any.
    for (auto& batch : prefix) {
      if (!batch.empty()) {
        batch.front().s.seq += 1;
        break;
      }
    }
    for (std::size_t i = next; i-- > 0;) {
      if (got_counts[i] > 0) {
        --got_counts[i];
        break;
      }
    }
  }

  for (std::size_t i = 0; i < next; ++i) {
    bool ok = got_counts[i] == expected.counts[i];
    if (ok && i < prefix.size()) {
      ok = hal::stream::normalize(prefix[i]) == expected.prefix[i];
    }
    if (!ok) {
      rr.failed += in.batches[i].size();
      if (rr.errors.size() < 4) {
        rr.errors.push_back("batch " + std::to_string(i) + ": " +
                            std::to_string(got_counts[i]) + " results, " +
                            std::to_string(expected.counts[i]) + " expected" +
                            (i < prefix.size() ? " (multiset checked)" : ""));
      }
    }
  }
  return rr;
}

ReplayStats run_replays(const Workload& w, const Inputs& in,
                        const std::vector<std::vector<ResultTuple>>& results,
                        Tracer& tracer) {
  ReplayStats out;
  const std::size_t n = in.batches.size();
  const auto span_us = [&tracer](const char* name) {
    const auto totals = tracer.totals();
    const auto it = totals.find(name);
    return it != totals.end() ? it->second.total_us : 0.0;
  };

  // Router: the same arrival-order spans the cluster ingress routes. Slot
  // 0's share is kept as one shard's partition for the replays below.
  std::vector<std::vector<Tuple>> shard0(n);
  {
    hal::cluster::Router router(hal::cluster::Partitioning::kKeyHash, 1,
                                w.shards);
    Scope root(&tracer, "replay.router");
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Tuple>& mine = shard0[i];
      mine.reserve(in.batches[i].size());
      Scope s(&tracer, "router.route_span", static_cast<std::int64_t>(i));
      router.route_span(std::span<const Tuple>(in.batches[i]),
                        [&mine](const Tuple& t, std::uint32_t slot) {
                          if (slot == 0) mine.push_back(t);
                        });
    }
  }
  out.router_ns_per_tuple =
      1e3 * span_us("router.route_span") / static_cast<double>(in.tuples);

  // Exact-global window tracker: every arrival observed, every emitted
  // pair checked, as the merger does.
  {
    hal::cluster::WindowTracker tracker;
    std::uint64_t pairs = 0;
    std::uint64_t in_window = 0;
    {
      Scope root(&tracer, "replay.tracker");
      for (std::size_t i = 0; i < n; ++i) {
        {
          Scope s(&tracer, "tracker.observe", static_cast<std::int64_t>(i));
          tracker.reserve(in.batches[i].size());
          for (const Tuple& t : in.batches[i]) tracker.observe(t);
        }
        if (i < results.size() && !results[i].empty()) {
          pairs += results[i].size();
          Scope s(&tracer, "tracker.pair_in_window",
                  static_cast<std::int64_t>(i));
          for (const ResultTuple& r : results[i]) {
            in_window += tracker.pair_in_window(r, w.window) ? 1 : 0;
          }
        }
      }
    }
    // Every emitted pair passed the oracle check, so all must be in window.
    HAL_CHECK(in_window == pairs, "tracker replay rejected an emitted pair");
  }
  out.tracker_ns_per_tuple =
      1e3 * (span_us("tracker.observe") + span_us("tracker.pair_in_window")) /
      static_cast<double>(in.tuples);

  // One shard's partition through a single-core batched SplitJoin: the
  // probe layer alone, and the single-node baseline.
  std::size_t shard_tuples = 0;
  {
    hal::sw::SplitJoinConfig c;
    c.num_cores = 1;
    c.window_size = w.window;
    c.collect_results = true;
    c.probe = hal::sw::ProbePath::kIndexed;
    hal::sw::SplitJoinEngine engine(c, hal::stream::JoinSpec::equi_on_key());
    {
      Scope root(&tracer, "replay.sw");
      for (std::size_t i = 0; i < n; ++i) {
        if (shard0[i].empty()) continue;
        shard_tuples += shard0[i].size();
        {
          Scope s(&tracer, "sw.process_batched", static_cast<std::int64_t>(i));
          (void)engine.process_batched(shard0[i], kWireBatch);
        }
        engine.clear_results();
      }
    }
    hal::obs::MetricRegistry registry;
    engine.collect_metrics(registry, "");
    const hal::obs::ObsSnapshot snap = registry.snapshot();
    const auto get = [&snap](const char* name) {
      const hal::obs::MetricSnapshot* m = snap.find(name);
      return m != nullptr ? static_cast<double>(m->counter_value) : 0.0;
    };
    const auto tuples = static_cast<double>(std::max<std::size_t>(shard_tuples, 1));
    out.sw_probe_ns_per_tuple = 1e3 * span_us("sw.process_batched") / tuples;
    out.sw_probes_per_tuple = get("probes") / tuples;
    out.sw_matches_per_tuple = get("matches") / tuples;
  }

  // Wire codec: the shard's ingress frames through a loopback pair (frame
  // encode, CRC32C, decode, credit accounting).
  {
    auto transport = hal::net::make_transport(hal::net::TransportKind::kLoopback);
    hal::net::EndpointOptions opts;
    auto listener = transport->listen("perfbench", opts);
    auto dialer = transport->connect("perfbench", opts);
    hal::net::Connection* acceptor = listener->accept(5.0);
    HAL_CHECK(acceptor != nullptr, "loopback accept timed out");
    std::uint64_t frames = 0;
    {
      Scope root(&tracer, "replay.net");
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t pos = 0; pos < shard0[i].size(); pos += kWireBatch) {
          hal::cluster::TupleBatch tx;
          tx.epoch = i + 1;
          const auto first = shard0[i].begin() + static_cast<std::ptrdiff_t>(pos);
          tx.tuples.assign(first, first + static_cast<std::ptrdiff_t>(std::min(
                                              kWireBatch, shard0[i].size() - pos)));
          hal::cluster::TupleBatch rx;
          Scope s(&tracer, "net.codec", static_cast<std::int64_t>(i));
          HAL_CHECK(hal::cluster::net_try_send(*dialer, tx),
                    "loopback send refused");
          HAL_CHECK(hal::cluster::net_try_recv(*acceptor, rx) &&
                        rx.tuples == tx.tuples,
                    "loopback frame lost or corrupted");
          ++frames;
        }
      }
    }
    dialer->close();
    out.net_codec_us_per_batch =
        span_us("net.codec") / static_cast<double>(std::max<std::uint64_t>(frames, 1));
  }
  return out;
}

}  // namespace perfbench
