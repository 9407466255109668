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
// Alongside the absolute series, every (cores, window) point is paired
// with a 1-core run of the same window so the JSON artifact
// (BENCH_fig14d.json) reports per-core scaling efficiency
// mtps(cores) / (cores · mtps(1)) — on an oversubscribed host this is
// far below 1 and that is the point: it quantifies how much of the
// paper's separation the host can express.
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

struct Point {
  std::uint32_t cores = 0;
  int window_exp = 0;
  double mtps = 0.0;
  double mtps_1core = 0.0;
  double efficiency = 0.0;  // mtps / (cores * mtps_1core)
};

double run_one(std::uint32_t cores, std::size_t window, std::size_t tuples,
               std::size_t dispatch_batch, double* elapsed_out) {
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

  const hal::sw::SwRunReport r =
      dispatch_batch > 0 ? engine.process_batched(gen.take(tuples),
                                                  dispatch_batch)
                         : engine.process(gen.take(tuples));
  if (elapsed_out != nullptr) *elapsed_out = r.elapsed_seconds;
  return r.throughput_tuples_per_sec() / 1e6;
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

  Table table({"window", "join cores", "tuples", "elapsed (s)",
               "throughput (Mtuples/s)", "scaling eff."});
  std::map<int, double> mtps28;
  std::map<int, double> mtps1;  // 1-core baseline per window
  std::vector<Point> points;

  for (const std::uint32_t cores : {16u, 28u}) {
    for (int exp = 16; exp <= 21; ++exp) {
      const std::size_t window = std::size_t{1} << exp;
      const std::size_t num_tuples = exp >= 20 ? 48 : 256;
      if (mtps1.find(exp) == mtps1.end()) {
        mtps1[exp] = run_one(1, window, num_tuples, dispatch_batch, nullptr);
      }
      double elapsed = 0.0;
      const double mtps =
          run_one(cores, window, num_tuples, dispatch_batch, &elapsed);
      const double eff =
          mtps1[exp] > 0.0 ? mtps / (cores * mtps1[exp]) : 0.0;
      if (cores == 28) mtps28[exp] = mtps;
      points.push_back({cores, exp, mtps, mtps1[exp], eff});
      table.add_row({"2^" + std::to_string(exp), Table::integer(cores),
                     Table::integer(num_tuples), Table::num(elapsed, 4),
                     Table::num(mtps, 4), Table::num(eff, 3)});
    }
  }
  table.print();
  std::printf(
      "\n(paper's sweep extends to 2^23; capped at 2^21 here to bound the "
      "single-CPU runtime — the 1/W trend is established well before "
      "that. scaling eff. = mtps / (cores x 1-core mtps); time-shared "
      "threads on this host keep it well below 1.)\n");

  const std::string json_path = bench::out_path("BENCH_fig14d.json");
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    bench::json_header(f, "fig14d_uniflow_sw", bench::seed_or(42), json_path);
    std::fprintf(f, "  \"dispatch_batch\": %zu,\n", dispatch_batch);
    std::fprintf(f, "  \"host_hw_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"cores\": %u, \"window_exp\": %d, \"mtps\": %.4f, "
                   "\"mtps_1core\": %.4f, \"scaling_efficiency\": %.4f}%s\n",
                   p.cores, p.window_exp, p.mtps, p.mtps_1core, p.efficiency,
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

  // Slope check: quadrupling W should cut throughput to roughly a quarter
  // (within loose factor-2 tolerance for host noise).
  const double slope = mtps28[16] / mtps28[18];
  bench::claim(slope > 2.0 && slope < 8.0,
               "4x window → ~4x lower throughput (measured " +
                   Table::num(slope, 1) + "x)");

  return bench::finish();
}
