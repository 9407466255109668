// Figure 14c: uni-flow hardware throughput on the Virtex-7 (VC707) with
// 512 join cores at 300 MHz, window sizes 2^11 .. 2^18.
//
// Paper series: ~75 Mtuples/s at W=2^11 falling to sub-Mtuple/s at 2^18 —
// about two orders of magnitude above the Virtex-5 realization (more cores
// x higher clock), and ~15x above the 28-core software SplitJoin at the
// same W=2^18 (compare bench/fig14d_uniflow_sw).
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "core/harness.h"

int main(int argc, char** argv) {
  hal::bench::init(argc, argv);
  using namespace hal;
  using namespace hal::core;

  bench::banner("Fig. 14c",
                "uni-flow HW throughput, 512 JCs on V7 @300 MHz, scalable "
                "networks");

  const auto& v7 = hw::virtex7_xc7vx485t();
  constexpr std::uint32_t kCores = 512;

  Table table({"window", "fits V7", "F (MHz)", "cycles/tuple",
               "throughput (Mtuples/s)", "paper shape N*F/W"});
  std::map<int, double> mtps;

  for (int exp = 11; exp <= 18; ++exp) {
    const std::size_t window = std::size_t{1} << exp;
    hw::UniflowConfig cfg;
    cfg.num_cores = kCores;
    cfg.window_size = window;
    cfg.distribution = hw::NetworkKind::kScalable;
    cfg.gathering = hw::NetworkKind::kScalable;
    MeasureOptions opts;
    opts.sim_threads = bench::sim_threads();
    // Enough tuples for steady state; scans dominate at large windows.
    opts.num_tuples = exp >= 17 ? 192 : 1024;
    opts.requested_mhz = 300.0;  // paper: "300MHz clock ... as provided by
                                 // the synthesis report"
    const HwThroughput t = measure_uniflow_throughput(cfg, v7, opts);
    mtps[exp] = t.mtuples_per_sec();
    table.add_row({"2^" + std::to_string(exp), t.fits ? "yes" : "NO",
                   Table::num(t.clock_mhz, 0),
                   Table::num(1.0 / t.tuples_per_cycle(), 1),
                   Table::num(t.mtuples_per_sec(), 3),
                   Table::num(512.0 * 300.0 / static_cast<double>(window),
                              3)});
  }
  table.print();

  // The paper's peak is ~75-80 Mt/s (3.75-4 cycles/tuple). Our cores pay a
  // constant ~1.2 extra cycles/tuple for the Fig. 12 storage-done handoff,
  // which only shows at W/N=4 (5.2 cycles/tuple → ~59 Mt/s); from W=2^13
  // upward the sub-window scan dominates and the law N*F/W holds exactly.
  bench::claim(mtps[11] > 50.0 && mtps[11] < 90.0,
               "512 cores @ W=2^11 reach the tens-of-Mtuples/s peak "
               "(measured " +
                   Table::num(mtps[11], 1) +
                   ", paper ~75; see EXPERIMENTS.md on the constant "
                   "per-tuple overhead at W/N=4)");
  bench::claim(mtps[18] > 0.3 && mtps[18] < 1.0,
               "W=2^18 lands below 1 Mtuples/s (measured " +
                   Table::num(mtps[18], 3) + ")");

  // "acceleration of around two orders of magnitude when we utilize a
  // window size of 2^13 compared to the realization on Virtex-5":
  // V5 @ 16 cores/100 MHz/W=2^13 is ~0.195 Mt/s (Fig. 14a).
  const double v5_anchor = 16.0 * 100.0 / 8192.0;
  bench::claim(mtps[13] / v5_anchor > 50.0 && mtps[13] / v5_anchor < 200.0,
               "~two orders of magnitude over the V5 realization at W=2^13 "
               "(measured " +
                   Table::num(mtps[13] / v5_anchor, 0) + "x)");

  std::printf(
      "\nHW-vs-SW (paper: ~15x at W=2^18 vs 28 software join cores): "
      "hardware = %.3f Mt/s here; compare the W=2^18 row of "
      "fig14d_uniflow_sw. The software numbers scale with the host's "
      "core count (the paper's was a 32-core Xeon), so compare the two "
      "only on a comparable host.\n",
      mtps[18]);

  return bench::finish();
}
