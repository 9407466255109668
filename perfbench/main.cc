// Repository benchmark: runs one named workload through the public
// core/cluster/hw entry points for a fixed time, checks every round's
// results against the oracles, and prints every metric by name with its
// unit. The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--commit <id>] [--tiny] [--tamper]
//   perfbench --self-test
//
// --tiny shrinks the workload for self-tests; --tamper corrupts the
// collected results so the oracle check must fail.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "oracle.h"
#include "simd/probe.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  std::string commit = "unknown";
  bool tiny = false;
  bool tamper = false;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>] [--commit <id>] "
               "[--tiny] [--tamper]\n       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    const auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    const auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(v >= 0.0)) {
        usage(("bad number for " + flag).c_str());
      }
      return v;
    };
    if (flag == "--workload") {
      a.workload = next();
      have_workload = true;
    } else if (flag == "--seed") {
      const std::string text = next();
      char* end = nullptr;
      a.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = number(next());
    } else if (flag == "--trace") {
      const std::string t = next();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--spans") {
      a.spans = next();
    } else if (flag == "--commit") {
      a.commit = next();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--tamper") {
      a.tamper = true;
    } else if (flag == "--self-test") {
      a.self_test = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.self_test && !have_workload) usage("--workload is required");
  return a;
}

std::string first_line_with(const char* path, const char* prefix) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return {};
}

std::string cpu_model() {
  const std::string line = first_line_with("/proc/cpuinfo", "model name");
  const auto colon = line.find(':');
  return colon == std::string::npos ? "unknown" : line.substr(colon + 2);
}

std::string governor() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string g;
  return std::getline(f, g) ? g : "unreadable";
}

double peak_rss_mb() {
  const std::string line = first_line_with("/proc/self/status", "VmHWM:");
  return line.empty() ? 0.0 : std::strtod(line.c_str() + 6, nullptr) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-42s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-42s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Per-layer metrics that come from the engines' own counters: the median
// over every round of the run.
std::vector<Metric> layer_metrics(const std::vector<RoundResult>& rounds) {
  const auto med = [&rounds](double LayerStats::*field) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(r.layers.*field);
    return median(v);
  };
  return {
      {"cluster.worker_busy_frac", med(&LayerStats::worker_busy_frac), "frac"},
      {"cluster.router_stall_spins_per_ktuple",
       med(&LayerStats::router_stall_spins_per_ktuple), "count/ktuple"},
      {"cluster.ingress_queue_hw", med(&LayerStats::ingress_queue_hw),
       "batches"},
      {"cluster.worker_busy_skew", med(&LayerStats::worker_busy_skew),
       "ratio"},
      {"cluster.tuples_in_skew", med(&LayerStats::tuples_in_skew), "ratio"},
      {"cluster.egress_queue_hw", med(&LayerStats::egress_queue_hw),
       "batches"},
      {"cluster.worker_stall_spins_per_ktuple",
       med(&LayerStats::worker_stall_spins_per_ktuple), "count/ktuple"},
      {"cluster.useful_pair_ratio", med(&LayerStats::useful_pair_ratio),
       "ratio"},
      {"net.bytes_per_tuple", med(&LayerStats::net_bytes_per_tuple), "B"},
      {"net.frames_per_ktuple", med(&LayerStats::net_frames_per_ktuple),
       "count/ktuple"},
      {"net.credit_stalls_per_ktuple",
       med(&LayerStats::net_credit_stalls_per_ktuple), "count/ktuple"},
      {"sim.cycles_per_s", med(&LayerStats::sim_cycles_per_s), "1/s"},
      {"sim.module_evals_per_s", med(&LayerStats::sim_module_evals_per_s),
       "1/s"},
      {"hw.cycles_per_tuple", med(&LayerStats::hw_cycles_per_tuple),
       "cycles"},
      {"hw.probes_per_tuple", med(&LayerStats::hw_probes_per_tuple), "count"},
      {"hw.distribution_stall_cycles_per_tuple",
       med(&LayerStats::hw_distribution_stall_cycles_per_tuple), "cycles"},
      {"hw.gathering_stall_cycles_per_tuple",
       med(&LayerStats::hw_gathering_stall_cycles_per_tuple), "cycles"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.self_test) {
    const std::string err = self_test();
    std::printf("counting oracle vs ReferenceJoin: %s\n",
                err.empty() ? "agree" : err.c_str());
    return err.empty() ? 0 : 1;
  }
  const Workload* known = find_workload(args.workload);
  if (known == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload w = args.tiny ? tiny(*known) : *known;

  std::printf("# workload        %s%s\n", w.name.c_str(),
              args.tiny ? " (tiny)" : "");
  std::printf("# seed            %llu\n",
              static_cast<unsigned long long>(args.seed));
  std::printf("# cpu             %s\n", cpu_model().c_str());
  std::printf("# nproc           %u\n", std::thread::hardware_concurrency());
  std::printf("# governor        %s\n", governor().c_str());
  std::printf("# build type      %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("# simd isa        %s\n",
              hal::simd::to_string(hal::simd::active_isa()));
  std::printf("# commit          %s\n", args.commit.c_str());
  std::printf("# mode            %s, %.0f s\n",
              args.trace ? "traced (per-layer)" : "untraced (end-to-end)",
              args.seconds);

  const Inputs in = make_inputs(w, args.seed);
  const Expected expected = make_expected(w, in);

  // Round 0 warms the allocator and caches; it is checked like every round
  // but left out of the metrics. Traced runs then alternate untraced and
  // traced rounds, so the tracing overhead is measured on the same inputs
  // in the same process.
  Tracer tracer;
  std::vector<RoundResult> rounds;
  std::vector<std::vector<hal::stream::ResultTuple>> traced_results;
  const auto is_traced = [&args](std::size_t round) {
    return args.trace && round > 0 && round % 2 == 0;
  };
  const std::size_t min_rounds = args.trace ? 3 : 2;
  double rss_mb = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  while (rounds.size() < min_rounds || elapsed() < args.seconds) {
    const bool traced = is_traced(rounds.size());
    RoundResult r = run_round(w, in, expected, traced ? &tracer : nullptr,
                              args.tamper);
    if (traced) traced_results = std::move(r.results);
    r.results.clear();
    std::printf("round %2zu%-9s  setup %.4f s  closed %.0f tuples/s  "
                "open p50 %.3f ms  p95 %.3f ms  failed %llu\n",
                rounds.size(),
                rounds.empty() ? " (warm)" : traced ? " (traced)" : "",
                r.setup_s, r.closed_tps, percentile(r.latency_ms, 50.0),
                percentile(r.latency_ms, 95.0),
                static_cast<unsigned long long>(r.failed));
    for (const std::string& e : r.errors) std::printf("  error: %s\n", e.c_str());
    const bool failed = !r.errors.empty() || r.failed > 0;
    rounds.push_back(std::move(r));
    // Every round repeats the same work, so the peak is read after the
    // first measured round; later rounds would only add allocator drift.
    if (rounds.size() == 2) rss_mb = peak_rss_mb();
    if (failed) break;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> tps;
  std::vector<double> tps_traced;
  std::vector<double> p50_ms;
  std::vector<double> p95_ms;
  std::vector<double> latency_ms;  // every measured open-loop batch
  double lag_ms = 0.0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    attempted += r.attempted;
    failed += r.failed;
    if (i == 0) continue;
    setup_s.push_back(r.setup_s);
    (is_traced(i) ? tps_traced : tps).push_back(r.closed_tps);
    p50_ms.push_back(percentile(r.latency_ms, 50.0));
    p95_ms.push_back(percentile(r.latency_ms, 95.0));
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(),
                      r.latency_ms.end());
    lag_ms = std::max(lag_ms, r.gen_lag_ms_max);
  }
  rounds.erase(rounds.begin());
  const bool correct = failed == 0;
  std::printf("\n%zu rounds, %zu open-loop batches, failed_frac %.6g "
              "(%llu of %llu tuples)\n",
              rounds.size(), latency_ms.size(),
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  // Not metrics: on a shared host the open-loop tail follows scheduling
  // noise (see README.md), so it is printed but gates nothing.
  std::printf("open-loop tail: p95 %.3f ms (median over rounds); over all "
              "batches p99 %.3f ms, p99.9 %.3f ms, max %.3f ms\n",
              median(p95_ms), percentile(latency_ms, 99.0),
              percentile(latency_ms, 99.9), percentile(latency_ms, 100.0));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_tps", median(tps), "1/s"},
        {"latency_p50_ms", median(p50_ms), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else if (correct) {
    const ReplayStats replay = run_replays(w, in, traced_results, tracer);
    const auto totals = tracer.totals();
    std::printf("\n%-28s %10s %14s %14s\n", "span", "count", "total ms",
                "self ms");
    for (const auto& [name, t] : totals) {
      std::printf("%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  t.total_us / 1e3, t.self_us / 1e3);
    }
    const auto p50 = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : median(it->second.durations_us);
    };
    metrics = layer_metrics(rounds);
    const std::vector<Metric> traced = {
        {"router.route_ns_per_tuple", replay.router_ns_per_tuple, "ns"},
        {"tracker.ns_per_tuple", replay.tracker_ns_per_tuple, "ns"},
        {"sw.probe_ns_per_tuple", replay.sw_probe_ns_per_tuple, "ns"},
        {"sw.probes_per_tuple", replay.sw_probes_per_tuple, "count"},
        {"sw.matches_per_tuple", replay.sw_matches_per_tuple, "count"},
        {"net.codec_us_per_batch", replay.net_codec_us_per_batch, "us"},
        {"core.epoch_ms_p50", p50("core.process") / 1e3, "ms"},
        {"core.take_results_us_p50", p50("core.take_results"), "us"},
        {"gen.lag_ms_max", lag_ms, "ms"},
        {"obs.trace_overhead_frac", 1.0 - median(tps_traced) / median(tps),
         "frac"},
    };
    metrics.insert(metrics.end(), traced.begin(), traced.end());
    const std::string path =
        args.spans.empty() ? "spans-" + w.name + ".json" : args.spans;
    if (!tracer.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
