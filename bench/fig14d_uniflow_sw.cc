// Figure 14d: software SplitJoin (uni-flow) throughput vs window size, for
// 16 and 28 join cores on the paper's 32-core Xeon box.
//
// Host substitution note: this machine exposes far fewer hardware threads
// than the paper's 4x E5-4650, so the 16-vs-28-core separation cannot
// manifest (threads time-share). What must and does reproduce is the
// series' shape — throughput ∝ 1/W, orders of magnitude below the
// hardware realizations of Figs. 14a-c at equal window sizes.
//
// Flags:
//   --batch[=N]  run the batched data path (dispatch granularity N,
//                default 64, scan probe) instead of the tuple-at-a-time
//                oracle path.
//
// Each (cores, window) engine is prefilled once and then timed on
// kSlices consecutive slices of the point's tuple count. The windows stay
// full, so every slice is a steady-state sample; a point reports the
// median and the min-max of its slices, and the claims read the medians
// (one 1-15 ms timing per point flipped the monotone-decline claim with
// host noise). Throughputs print with four significant digits: the
// tuple path's largest windows run below 0.001 Mt/s.
//
// Alongside the absolute series, every (cores, window) point is paired
// with a 1-core run of the same window so the JSON artifact
// (BENCH_fig14d.json) reports per-core scaling efficiency
// mtps(cores) / (cores · mtps(1)) — on an oversubscribed host this is
// far below 1 and that is the point: it quantifies how much of the
// paper's separation the host can express. The 1-core baseline runs
// inline on the bench's thread, with no distribution or gathering
// hand-offs (sw/splitjoin.h), so the efficiency also charges the
// multi-core engine for those networks: it reads lower than against a
// threaded 1-core engine, not because the multi-core engine got slower.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "stream/generator.h"
#include "sw/splitjoin.h"

namespace {

constexpr int kSlices = 5;

// The median and range of one point's slices.
struct Timing {
  double mtps = 0.0;  // median
  double mtps_min = 0.0;
  double mtps_max = 0.0;
  double elapsed = 0.0;  // median seconds per slice
};

struct Point {
  std::uint32_t cores = 0;
  int window_exp = 0;
  Timing t;
  double mtps_1core = 0.0;
  double efficiency = 0.0;  // mtps / (cores * mtps_1core)
};

// Four significant digits, for the table and the JSON artifact alike.
std::string sig4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Timing run_point(std::uint32_t cores, std::size_t window, std::size_t tuples,
                 std::size_t dispatch_batch) {
  hal::sw::SplitJoinConfig cfg;
  cfg.num_cores = cores;
  cfg.window_size = window - (window % cores);
  cfg.collect_results = false;
  // The figure models the paper's O(W/N) sub-window scan per probe. The
  // default indexed probe's cost does not grow with W, so --batch scans.
  cfg.probe = hal::sw::ProbePath::kScan;
  hal::sw::SplitJoinEngine engine(cfg, hal::stream::JoinSpec::equi_on_key());

  hal::stream::WorkloadConfig wl;
  wl.seed = hal::bench::seed_or(42);
  wl.key_domain = 1u << 24;  // low selectivity, as in the paper
  hal::stream::WorkloadGenerator gen(wl);
  engine.prefill(gen.take(2 * cfg.window_size));

  std::vector<double> mtps;
  std::vector<double> elapsed;
  for (int slice = 0; slice < kSlices; ++slice) {
    const std::vector<hal::stream::Tuple> batch = gen.take(tuples);
    const hal::sw::SwRunReport r =
        dispatch_batch > 0 ? engine.process_batched(batch, dispatch_batch)
                           : engine.process(batch);
    mtps.push_back(r.throughput_tuples_per_sec() / 1e6);
    elapsed.push_back(r.elapsed_seconds);
  }
  Timing t;
  t.mtps = median(mtps);
  t.mtps_min = *std::min_element(mtps.begin(), mtps.end());
  t.mtps_max = *std::max_element(mtps.begin(), mtps.end());
  t.elapsed = median(elapsed);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  hal::bench::init(argc, argv);
  using namespace hal;

  std::size_t dispatch_batch = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--batch") {
      dispatch_batch = 64;
    } else if (arg.substr(0, 8) == "--batch=") {
      dispatch_batch = static_cast<std::size_t>(
          std::strtoull(std::string(arg.substr(8)).c_str(), nullptr, 10));
    }
  }

  bench::banner("Fig. 14d",
                "software SplitJoin throughput vs window size (16 & 28 "
                "join cores)");
  std::printf("host hardware threads: %u (paper: 32)\n",
              std::thread::hardware_concurrency());
  std::printf("dispatch path: %s\n",
              dispatch_batch > 0
                  ? ("batched (batch=" + std::to_string(dispatch_batch) + ")")
                        .c_str()
                  : "tuple-at-a-time");

  Table table({"window", "join cores", "tuples/slice", "elapsed (s)",
               "throughput (Mtuples/s)", "min-max", "scaling eff."});
  std::map<int, double> mtps28;
  std::map<int, double> mtps1;  // 1-core baseline (median) per window
  std::vector<Point> points;

  for (const std::uint32_t cores : {16u, 28u}) {
    for (int exp = 16; exp <= 21; ++exp) {
      const std::size_t window = std::size_t{1} << exp;
      const std::size_t num_tuples = exp >= 20 ? 48 : 256;
      if (mtps1.find(exp) == mtps1.end()) {
        mtps1[exp] = run_point(1, window, num_tuples, dispatch_batch).mtps;
      }
      const Timing t = run_point(cores, window, num_tuples, dispatch_batch);
      const double eff =
          mtps1[exp] > 0.0 ? t.mtps / (cores * mtps1[exp]) : 0.0;
      if (cores == 28) mtps28[exp] = t.mtps;
      points.push_back({cores, exp, t, mtps1[exp], eff});
      table.add_row({"2^" + std::to_string(exp), Table::integer(cores),
                     Table::integer(num_tuples), Table::num(t.elapsed, 4),
                     sig4(t.mtps),
                     sig4(t.mtps_min) + "-" + sig4(t.mtps_max),
                     Table::num(eff, 3)});
    }
  }
  table.print();
  std::printf(
      "\n(paper's sweep extends to 2^23; capped at 2^21 here to bound the "
      "single-CPU runtime — the 1/W trend is established well before "
      "that. Each point is the median of %d consecutive slices on one "
      "prefilled engine; elapsed is a slice's median. scaling eff. = mtps "
      "/ (cores x 1-core mtps); time-shared threads on this host keep it "
      "well below 1.)\n",
      kSlices);

  const std::string json_path = bench::out_path("BENCH_fig14d.json");
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    bench::json_header(f, "fig14d_uniflow_sw", bench::seed_or(42), json_path);
    std::fprintf(f, "  \"dispatch_batch\": %zu,\n", dispatch_batch);
    std::fprintf(f, "  \"host_hw_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"slices_per_point\": %d,\n", kSlices);
    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"cores\": %u, \"window_exp\": %d, \"mtps\": %s, "
                   "\"mtps_min\": %s, \"mtps_max\": %s, \"mtps_1core\": %s, "
                   "\"scaling_efficiency\": %s}%s\n",
                   p.cores, p.window_exp, sig4(p.t.mtps).c_str(),
                   sig4(p.t.mtps_min).c_str(), sig4(p.t.mtps_max).c_str(),
                   sig4(p.mtps_1core).c_str(), sig4(p.efficiency).c_str(),
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  bool declines = true;
  for (int exp = 17; exp <= 21; ++exp) {
    if (mtps28[exp] >= mtps28[exp - 1]) declines = false;
  }
  bench::claim(declines,
               "software throughput declines monotonically with window "
               "size (paper: ∝ 1/W)");

  // Slope check on the medians: quadrupling W should cut throughput to
  // roughly a quarter (within loose factor-2 tolerance for host noise).
  const double slope = mtps28[16] / mtps28[18];
  bench::claim(slope > 2.0 && slope < 8.0,
               "4x window → ~4x lower throughput (measured " +
                   Table::num(slope, 1) + "x)");

  return bench::finish();
}
