// The unified hal::core facade: all four backends behind one interface.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/harness.h"
#include "core/stream_join.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::core {
namespace {

using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;

class FacadeBackendTest : public testing::TestWithParam<Backend> {};

TEST_P(FacadeBackendTest, ProcessesAndReports) {
  EngineConfig cfg;
  cfg.backend = GetParam();
  cfg.num_cores = 4;
  cfg.window_size = 64;
  auto engine = make_engine(cfg);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->backend(), GetParam());

  stream::WorkloadConfig wl;
  wl.seed = 23;
  wl.key_domain = 16;
  stream::WorkloadGenerator gen(wl);
  const auto tuples = gen.take(300);

  const RunReport report = engine->process(tuples);
  EXPECT_EQ(report.tuples_processed, 300u);
  EXPECT_GT(report.results_emitted, 0u);
  EXPECT_GT(report.elapsed_seconds, 0.0);
  EXPECT_GT(report.throughput_tuples_per_sec(), 0.0);

  const auto results = engine->take_results();
  EXPECT_EQ(results.size(), report.results_emitted);
  for (const auto& res : results) {
    EXPECT_EQ(res.r.key, res.s.key);  // equi-join
  }
  EXPECT_TRUE(engine->take_results().empty());  // drained

  // A second round's take holds that round's results only.
  const RunReport second = engine->process(gen.take(300));
  EXPECT_GT(second.results_emitted, 0u);
  EXPECT_EQ(engine->take_results().size(), second.results_emitted);
  EXPECT_TRUE(engine->take_results().empty());

  const bool is_hw = GetParam() == Backend::kHwUniflow ||
                     GetParam() == Backend::kHwBiflow;
  EXPECT_EQ(report.cycles.has_value(), is_hw);
  EXPECT_EQ(engine->design_stats().has_value(), is_hw);
}

// Each report counts the results of its own call, taken or not: two
// rounds with one take at the end hand back what the two reports sum to.
TEST_P(FacadeBackendTest, ResultsEmittedCountsThisCallOnly) {
  EngineConfig cfg;
  cfg.backend = GetParam();
  cfg.num_cores = 4;
  cfg.window_size = 64;
  auto engine = make_engine(cfg);

  stream::WorkloadConfig wl;
  wl.seed = 23;
  wl.key_domain = 16;
  stream::WorkloadGenerator gen(wl);
  const RunReport first = engine->process(gen.take(300));
  const RunReport second = engine->process(gen.take(300));
  EXPECT_GT(first.results_emitted, 0u);
  EXPECT_GT(second.results_emitted, 0u);
  EXPECT_EQ(engine->take_results().size(),
            first.results_emitted + second.results_emitted);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, FacadeBackendTest,
    testing::Values(Backend::kHwUniflow, Backend::kHwBiflow,
                    Backend::kSwSplitJoin, Backend::kSwHandshake,
                    Backend::kSwBatch),
    [](const testing::TestParamInfo<Backend>& info) {
      std::string s = to_string(info.param);
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

// A multi-core handshake chain keeps one result vector per core and
// appends to several of them in each round, so the rounds'
// take_results() must take each core's new tail: together they hold every
// result the chain found exactly once — no pair twice, and as many pairs
// as the chain reports.
TEST(Facade, SwHandshakeTakeResultsAcrossRoundsHasNoRepeats) {
  EngineConfig cfg;
  cfg.backend = Backend::kSwHandshake;
  cfg.num_cores = 4;
  cfg.window_size = 64;
  auto engine = make_engine(cfg);

  stream::WorkloadConfig wl;
  wl.seed = 41;
  wl.key_domain = 16;
  stream::WorkloadGenerator gen(wl);
  std::vector<stream::ResultKey> taken;
  std::uint64_t emitted = 0;
  for (int round = 0; round < 100; ++round) {
    emitted += engine->process(gen.take(16)).results_emitted;
    for (const auto& res : engine->take_results()) {
      EXPECT_EQ(res.r.key, res.s.key);
      taken.push_back(stream::key_of(res));
    }
  }
  EXPECT_TRUE(engine->take_results().empty());
  ASSERT_GT(emitted, 0u);
  EXPECT_EQ(taken.size(), emitted);
  std::sort(taken.begin(), taken.end());
  EXPECT_EQ(std::adjacent_find(taken.begin(), taken.end()), taken.end())
      << "a result was taken twice";
}

TEST(Facade, EagerBackendsAgreeWithOracleAndEachOther) {
  stream::WorkloadConfig wl;
  wl.seed = 31;
  wl.key_domain = 32;
  stream::WorkloadGenerator gen(wl);
  const auto tuples = gen.take(500);

  std::vector<stream::ResultKey> reference;
  {
    ReferenceJoin oracle(128, JoinSpec::equi_on_key());
    reference = normalize(oracle.process_all(tuples));
  }

  for (Backend b : {Backend::kHwUniflow, Backend::kSwSplitJoin,
                    Backend::kSwBatch}) {
    EngineConfig cfg;
    cfg.backend = b;
    cfg.num_cores = 4;
    cfg.window_size = 128;
    auto engine = make_engine(cfg);
    engine->process(tuples);
    EXPECT_EQ(normalize(engine->take_results()), reference)
        << "backend " << to_string(b);
  }
}

TEST(Facade, HwUniflowThroughputTracksCoresOverWindow) {
  // The headline scaling law: steady-state throughput ≈ N/W tuples/cycle.
  hw::UniflowConfig cfg;
  cfg.num_cores = 8;
  cfg.window_size = 512;
  MeasureOptions opts;
  opts.num_tuples = 256;
  const HwThroughput t =
      measure_uniflow_throughput(cfg, hw::virtex5_xc5vlx50t(), opts);
  const double expected = 8.0 / 512.0;
  EXPECT_NEAR(t.tuples_per_cycle(), expected, expected * 0.15);
  EXPECT_GT(t.cycles, 0u);  // low-selectivity workload: results may be 0
}

TEST(Facade, LatencyHarnessScalesWithSubWindow) {
  MeasureOptions opts;
  hw::UniflowConfig small;
  small.num_cores = 8;
  small.window_size = 1 << 10;
  hw::UniflowConfig large = small;
  large.window_size = 1 << 13;
  const HwLatency a =
      measure_uniflow_latency(small, hw::virtex5_xc5vlx50t(), opts);
  const HwLatency b =
      measure_uniflow_latency(large, hw::virtex5_xc5vlx50t(), opts);
  // Sub-window scan dominates: 8x window → ~8x cycles.
  EXPECT_GT(b.cycles_to_last_result, 6 * a.cycles_to_last_result);
  EXPECT_GT(a.microseconds(), 0.0);
}

}  // namespace
}  // namespace hal::core
