// Batch-parallel (GPU-model) join: exact oracle equivalence — batching
// must change *when* results appear, never *which* — including the
// logical-expiry edge where in-batch arrivals evict window entries.
#include <gtest/gtest.h>

#include "stream/generator.h"
#include "stream/reference_join.h"
#include "sw/batch_join.h"

namespace hal::sw {
namespace {

using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;

struct Params {
  std::uint32_t workers;
  std::size_t window;
  std::size_t batch;
  std::uint32_t key_domain;
};

std::string name(const testing::TestParamInfo<Params>& info) {
  return "w" + std::to_string(info.param.workers) + "_win" +
         std::to_string(info.param.window) + "_b" +
         std::to_string(info.param.batch) + "_k" +
         std::to_string(info.param.key_domain);
}

class BatchJoinOracleTest : public testing::TestWithParam<Params> {};

TEST_P(BatchJoinOracleTest, MatchesReferenceJoin) {
  const Params& p = GetParam();
  BatchJoinConfig cfg;
  cfg.num_workers = p.workers;
  cfg.window_size = p.window;
  cfg.batch_size = p.batch;
  BatchJoinEngine engine(cfg, JoinSpec::equi_on_key());

  stream::WorkloadConfig wl;
  wl.seed = 41;
  wl.key_domain = p.key_domain;
  stream::WorkloadGenerator gen(wl);
  // Odd total so the final batch is partial, plus enough volume to wrap
  // the windows several times (logical expiry within batches).
  const auto tuples = gen.take(5 * p.window + 13);

  const SwRunReport report = engine.process(tuples);

  ReferenceJoin oracle(p.window, JoinSpec::equi_on_key());
  const auto expected = normalize(oracle.process_all(tuples));
  EXPECT_EQ(normalize(engine.results()), expected);
  EXPECT_EQ(report.results_emitted, expected.size());
}

// gtest prints each parameter's bytes into its test name, padding
// included. Static storage zero-fills the padding and ValuesIn copies the
// array whole, so the names stay the same from build to build.
constexpr Params kSweep[] = {
    {1, 32, 8, 8},      // single worker
    {2, 64, 64, 8},     // batch == window (edge)
    {4, 128, 32, 16},   // small batches
    {4, 128, 128, 4},   // hot keys, full batches
    {8, 256, 100, 32},  // batch not a divisor
    {3, 63, 21, 8},     // non-power-of-two everything
};

INSTANTIATE_TEST_SUITE_P(Sweep, BatchJoinOracleTest, testing::ValuesIn(kSweep),
                         name);

TEST(BatchJoinEngine, BatchOfOneEqualsStreaming) {
  BatchJoinConfig cfg;
  cfg.num_workers = 2;
  cfg.window_size = 32;
  cfg.batch_size = 1;
  BatchJoinEngine engine(cfg, JoinSpec::equi_on_key());
  stream::WorkloadConfig wl;
  wl.key_domain = 8;
  stream::WorkloadGenerator gen(wl);
  const auto tuples = gen.take(200);
  engine.process(tuples);
  ReferenceJoin oracle(32, JoinSpec::equi_on_key());
  EXPECT_EQ(normalize(engine.results()),
            normalize(oracle.process_all(tuples)));
}

TEST(BatchJoinEngine, LatencyFloorGrowsWithBatchSize) {
  stream::WorkloadConfig wl;
  wl.key_domain = 1u << 16;
  auto latency_at = [&](std::size_t batch) {
    BatchJoinConfig cfg;
    cfg.num_workers = 2;
    cfg.window_size = 1 << 12;
    cfg.batch_size = batch;
    BatchJoinEngine engine(cfg, JoinSpec::equi_on_key());
    stream::WorkloadGenerator gen(wl);
    engine.process(gen.take(1 << 13));
    return engine.batch_latency_seconds(/*input_rate_tps=*/1e6);
  };
  EXPECT_GT(latency_at(1 << 12), latency_at(1 << 6));
}

TEST(BatchJoinEngine, RejectsBatchLargerThanWindow) {
  BatchJoinConfig cfg;
  cfg.window_size = 64;
  cfg.batch_size = 65;
  EXPECT_THROW(BatchJoinEngine(cfg, JoinSpec::equi_on_key()),
               PreconditionError);
}

TEST(BatchJoinEngine, ResultsAccumulateAcrossProcessCalls) {
  BatchJoinConfig cfg;
  cfg.num_workers = 2;
  cfg.window_size = 32;
  cfg.batch_size = 16;
  BatchJoinEngine engine(cfg, JoinSpec::equi_on_key());
  stream::WorkloadConfig wl;
  wl.key_domain = 4;
  stream::WorkloadGenerator gen(wl);
  const auto batch1 = gen.take(64);
  const auto batch2 = gen.take(64);
  engine.process(batch1);
  engine.process(batch2);

  std::vector<stream::Tuple> all = batch1;
  all.insert(all.end(), batch2.begin(), batch2.end());
  ReferenceJoin oracle(32, JoinSpec::equi_on_key());
  EXPECT_EQ(normalize(engine.results()),
            normalize(oracle.process_all(all)));
}

}  // namespace
}  // namespace hal::sw
