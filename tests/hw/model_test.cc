// The model layer must reproduce the synthesis outcomes §V reports:
// which configurations fit on which device, the clock-frequency behavior
// of Fig. 17, and the two in-text power anchors.
#include <gtest/gtest.h>

#include "hw/biflow/engine.h"
#include "hw/model/power_model.h"
#include "hw/model/resource_model.h"
#include "hw/model/timing_model.h"
#include "hw/uniflow/engine.h"

namespace hal::hw {
namespace {

DesignStats uniflow_stats(std::uint32_t cores, std::size_t window,
                          NetworkKind net = NetworkKind::kLightweight) {
  UniflowConfig cfg;
  cfg.num_cores = cores;
  cfg.window_size = window;
  cfg.distribution = net;
  cfg.gathering = net;
  return UniflowEngine(cfg).design_stats();
}

DesignStats biflow_stats(std::uint32_t cores, std::size_t window) {
  BiflowConfig cfg;
  cfg.num_cores = cores;
  cfg.window_size = window;
  return BiflowEngine(cfg).design_stats();
}

// --- Fit matrix (§V) --------------------------------------------------------

// Why each case expects what it does, indexed by FitCase::why.
constexpr const char* kFitWhy[] = {
    "paper instantiated 16 uni-flow cores at W=2^13 on V5",
    "paper instantiated 32 cores at W=2^11",
    "paper instantiated 64 cores at W=2^11",
    "paper: 'not able to realize window sizes larger than 2^11 when "
    "instantiating 32 and 64 join cores'",
    "paper: same failure for 64 cores",
    "Fig. 14b shows bi-flow at 16 cores up to W=2^12",
    "paper: 'not able to instantiate 16 join cores with 2^13 in bi-flow "
    "hardware'",
};

// gtest prints each parameter's bytes into its test name, padding
// included, so the case holds no pointer: `why` indexes kFitWhy.
struct FitCase {
  FlowModel flow;
  std::uint32_t cores;
  std::size_t window;
  bool expect_fits;
  std::size_t why;
};

class V5FitTest : public testing::TestWithParam<FitCase> {};

TEST_P(V5FitTest, MatchesPaperInstantiationOutcome) {
  const FitCase& c = GetParam();
  const DesignStats stats = c.flow == FlowModel::kUniflow
                                ? uniflow_stats(c.cores, c.window)
                                : biflow_stats(c.cores, c.window);
  const auto& v5 = virtex5_xc5vlx50t();
  const ResourceUsage usage = ResourceModel{}.estimate(stats, &v5);
  EXPECT_EQ(usage.fits(v5), c.expect_fits) << kFitWhy[c.why];
}

// Static storage zero-fills the padding and ValuesIn copies the array
// whole, so the names stay the same from build to build.
constexpr FitCase kFitCases[] = {
    // Fig. 14a: uni-flow realized with up to 16 cores at W=2^13 ...
    {FlowModel::kUniflow, 16, 1u << 13, true, 0},
    // ... and with 32/64 cores only at W=2^11.
    {FlowModel::kUniflow, 32, 1u << 11, true, 1},
    {FlowModel::kUniflow, 64, 1u << 11, true, 2},
    {FlowModel::kUniflow, 32, 1u << 13, false, 3},
    {FlowModel::kUniflow, 64, 1u << 13, false, 4},
    // Fig. 14b: bi-flow realized at 16 cores up to W=2^12, not 2^13.
    {FlowModel::kBiflow, 16, 1u << 12, true, 5},
    {FlowModel::kBiflow, 16, 1u << 13, false, 6},
};
static_assert(sizeof(FitCase) == 32, "test names print the case's bytes");

INSTANTIATE_TEST_SUITE_P(
    PaperSectionV, V5FitTest, testing::ValuesIn(kFitCases),
    [](const testing::TestParamInfo<FitCase>& info) {
      return std::string(to_string(info.param.flow) == std::string("uni-flow")
                             ? "uni"
                             : "bi") +
             "_c" + std::to_string(info.param.cores) + "_w" +
             std::to_string(info.param.window);
    });

TEST(ResourceModelTest, Virtex7Fits512CoresAtW18) {
  UniflowConfig cfg;
  cfg.num_cores = 512;
  cfg.window_size = 1u << 18;
  cfg.distribution = NetworkKind::kScalable;
  cfg.gathering = NetworkKind::kScalable;
  const DesignStats stats = UniflowEngine(cfg).design_stats();
  const auto& v7 = virtex7_xc7vx485t();
  const ResourceUsage usage = ResourceModel{}.estimate(stats, &v7);
  EXPECT_TRUE(usage.fits(v7))
      << "Fig. 14c realizes 512 cores with windows up to 2^18";
  // The part's BRAM is the binding constraint: 2 BRAM36 per core.
  EXPECT_EQ(usage.bram36, 1024u);
  EXPECT_FALSE(usage.fits(virtex5_xc5vlx50t()));
}

TEST(ResourceModelTest, ToolLikeRetargetingFitsMidWindowsOnV7) {
  // At 512 cores with W=2^14/2^15 the default placement (distributed RAM)
  // blows the LUT budget, but retargeting the windows into BRAM fits —
  // the model mimics the synthesis tools' freedom to choose, so Fig. 14c's
  // whole sweep is realizable, as the paper reports.
  const auto& v7 = virtex7_xc7vx485t();
  for (const std::size_t w : {1u << 14, 1u << 15}) {
    UniflowConfig cfg;
    cfg.num_cores = 512;
    cfg.window_size = w;
    cfg.distribution = NetworkKind::kScalable;
    cfg.gathering = NetworkKind::kScalable;
    const DesignStats stats = UniflowEngine(cfg).design_stats();
    EXPECT_FALSE(ResourceModel{}.estimate(stats).fits(v7))
        << "default placement should not fit at W=" << w;
    EXPECT_TRUE(ResourceModel{}.estimate(stats, &v7).fits(v7))
        << "BRAM retargeting should fit at W=" << w;
  }
}

TEST(ResourceModelTest, SmallSubWindowsUseDistributedRamNotBram) {
  // 32 cores at W=2^11 → 64-tuple sub-windows = 4 Kb: distributed RAM.
  const ResourceUsage usage =
      ResourceModel{}.estimate(uniflow_stats(32, 1u << 11));
  EXPECT_EQ(usage.bram36, 0u);
}

TEST(ResourceModelTest, BiflowCoreCostsMoreThanUniflowCore) {
  const ResourceUsage uni = ResourceModel{}.estimate(uniflow_stats(16, 4096));
  const ResourceUsage bi = ResourceModel{}.estimate(biflow_stats(16, 4096));
  EXPECT_GT(bi.luts, uni.luts);
  EXPECT_GT(bi.io_channels, uni.io_channels);
  EXPECT_EQ(uni.io_channels, 16u * 2u);
  EXPECT_EQ(bi.io_channels, 16u * 5u);
}

TEST(ResourceModelTest, MonotoneInCoresAndWindow) {
  const ResourceModel model;
  std::uint64_t prev_luts = 0;
  for (std::uint32_t cores : {2u, 4u, 8u, 16u, 32u}) {
    const auto usage = model.estimate(uniflow_stats(cores, 1u << 11));
    EXPECT_GT(usage.luts, prev_luts);
    prev_luts = usage.luts;
  }
  std::uint64_t prev_mem = 0;
  for (std::size_t w : {1u << 12, 1u << 13, 1u << 14, 1u << 15}) {
    const auto usage = model.estimate(uniflow_stats(8, w));
    const std::uint64_t mem = usage.bram36 * 36864 + usage.luts * 64;
    EXPECT_GT(mem, prev_mem);
    prev_mem = mem;
  }
}

// --- Timing (Fig. 17) -------------------------------------------------------

TEST(TimingModelTest, V5LightweightIsFlatAroundHundredMHz) {
  const TimingModel timing;
  for (std::uint32_t cores : {2u, 4u, 8u}) {
    const double f =
        timing.fmax_mhz(uniflow_stats(cores, 1u << 11), virtex5_xc5vlx50t());
    EXPECT_GT(f, 95.0);
    EXPECT_LT(f, 115.0);
  }
}

TEST(TimingModelTest, V5SixteenCoreQuirkUptick) {
  // Footnote 3 / §V: "we even see an increase in the clock frequency when
  // utilizing 16 join cores ... due to heuristic mapping algorithms".
  const TimingModel timing;
  const double f8 =
      timing.fmax_mhz(uniflow_stats(8, 1u << 11), virtex5_xc5vlx50t());
  const double f16 =
      timing.fmax_mhz(uniflow_stats(16, 1u << 11), virtex5_xc5vlx50t());
  EXPECT_GT(f16, f8);
}

TEST(TimingModelTest, V7ScalableIsFlatNearThreeHundred) {
  const TimingModel timing;
  double prev = 0.0;
  for (std::uint32_t cores : {2u, 8u, 64u, 512u}) {
    const double f = timing.fmax_mhz(
        uniflow_stats(cores, 4096 * cores / 2, NetworkKind::kScalable),
        virtex7_xc7vx485t());
    EXPECT_GT(f, 280.0);
    EXPECT_LE(f, 320.0);
    if (prev != 0.0) {
      EXPECT_NEAR(f, prev, prev * 0.05) << "V7s must stay flat (Fig. 17)";
    }
    prev = f;
  }
}

TEST(TimingModelTest, V7LightweightDroopsWithCores) {
  const TimingModel timing;
  const auto fmax = [&](std::uint32_t cores) {
    return timing.fmax_mhz(
        uniflow_stats(cores, 8 * cores, NetworkKind::kLightweight),
        virtex7_xc7vx485t());
  };
  // Monotone decline, noticeable already at 8→16 (§V), and a substantial
  // drop by 512 cores.
  double prev = fmax(8);
  for (std::uint32_t cores : {16u, 32u, 64u, 128u, 256u, 512u}) {
    const double f = fmax(cores);
    EXPECT_LT(f, prev) << "at " << cores << " cores";
    prev = f;
  }
  EXPECT_LT(fmax(512), 0.75 * fmax(8));
  EXPECT_GT(fmax(512), 120.0);  // but still usable, as in Fig. 17
}

TEST(TimingModelTest, ScalableBeatsLightweightAtScaleOnV7) {
  const TimingModel timing;
  const double light = timing.fmax_mhz(
      uniflow_stats(256, 8 * 256, NetworkKind::kLightweight),
      virtex7_xc7vx485t());
  const double scalable = timing.fmax_mhz(
      uniflow_stats(256, 8 * 256, NetworkKind::kScalable),
      virtex7_xc7vx485t());
  EXPECT_GT(scalable, light);
}

// --- Power (§V anchors) -----------------------------------------------------

TEST(PowerModelTest, ReproducesPaperAnchors) {
  const ResourceModel resources;
  const PowerModel power;
  const auto& v5 = virtex5_xc5vlx50t();

  const ResourceUsage uni = resources.estimate(uniflow_stats(16, 1u << 13));
  const ResourceUsage bi = resources.estimate(biflow_stats(16, 1u << 13));
  const double p_uni = power.estimate_mw(uni, v5, 100.0);
  const double p_bi = power.estimate_mw(bi, v5, 100.0);

  EXPECT_NEAR(p_uni, 800.35, 0.005 * 800.35);
  EXPECT_NEAR(p_bi, 1647.53, 0.005 * 1647.53);
  // ">50% power saving in utilizing uni-flow compared to bi-flow".
  EXPECT_LT(p_uni, 0.5 * p_bi);
}

TEST(PowerModelTest, PowerScalesWithClock) {
  const ResourceModel resources;
  const PowerModel power;
  const auto usage = resources.estimate(uniflow_stats(8, 1u << 11));
  const double at100 = power.estimate_mw(usage, virtex5_xc5vlx50t(), 100.0);
  const double at50 = power.estimate_mw(usage, virtex5_xc5vlx50t(), 50.0);
  const double static_mw = virtex5_xc5vlx50t().static_power_mw;
  EXPECT_NEAR(at100 - static_mw, 2.0 * (at50 - static_mw), 1e-9);
}

}  // namespace
}  // namespace hal::hw
