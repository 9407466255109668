// Software SplitJoin (uni-flow on threads) correctness.
//
// The distributor broadcasts the merged input sequence in order, so every
// core observes the same sequence and the engine's results must equal the
// eager reference oracle exactly — same guarantee as the hardware
// uni-flow engine, checked over core/window/skew sweeps.
#include <gtest/gtest.h>

#include <filesystem>
#include <system_error>
#include <thread>

#include "stream/generator.h"
#include "stream/reference_join.h"
#include "sw/splitjoin.h"

namespace hal::sw {
namespace {

using stream::JoinSpec;
using stream::KeyDistribution;
using stream::normalize;
using stream::ReferenceJoin;
using stream::Tuple;

struct Params {
  std::uint32_t cores;
  std::size_t window;
  std::uint32_t key_domain;
  KeyDistribution dist;
};

std::string name(const testing::TestParamInfo<Params>& info) {
  return "c" + std::to_string(info.param.cores) + "_w" +
         std::to_string(info.param.window) + "_k" +
         std::to_string(info.param.key_domain) +
         (info.param.dist == KeyDistribution::kZipf ? "_zipf" : "_uni");
}

class SplitJoinOracleTest : public testing::TestWithParam<Params> {};

TEST_P(SplitJoinOracleTest, MatchesReferenceJoin) {
  const Params& p = GetParam();
  SplitJoinConfig cfg;
  cfg.num_cores = p.cores;
  cfg.window_size = p.window;
  SplitJoinEngine engine(cfg, JoinSpec::equi_on_key());

  stream::WorkloadConfig wl;
  wl.seed = 17;
  wl.key_domain = p.key_domain;
  wl.distribution = p.dist;
  stream::WorkloadGenerator gen(wl);
  const auto tuples = gen.take(4 * p.window + 7);

  const SwRunReport report = engine.process(tuples);
  EXPECT_EQ(report.tuples_processed, tuples.size());

  ReferenceJoin oracle(p.window, JoinSpec::equi_on_key());
  const auto expected = normalize(oracle.process_all(tuples));
  EXPECT_EQ(normalize(engine.results()), expected);
  EXPECT_EQ(report.results_emitted, expected.size());
}

// gtest prints each parameter's bytes into its test name, padding
// included. Static storage zero-fills the padding and ValuesIn copies the
// array whole, so the names stay the same from build to build.
constexpr Params kSweep[] = {
    {1, 16, 8, KeyDistribution::kUniform},
    {2, 64, 16, KeyDistribution::kUniform},
    {3, 63, 8, KeyDistribution::kUniform},
    {4, 128, 32, KeyDistribution::kZipf},
    {8, 256, 64, KeyDistribution::kUniform},
    {8, 256, 16, KeyDistribution::kZipf},
};

INSTANTIATE_TEST_SUITE_P(Sweep, SplitJoinOracleTest, testing::ValuesIn(kSweep),
                         name);

TEST(SplitJoinEngine, PrefillMatchesStreamedWarmup) {
  // prefill(first_k) + process(rest) must produce exactly the oracle's
  // results restricted to pairs involving at least one streamed tuple.
  const std::size_t window = 64;
  const std::size_t k = 160;
  stream::WorkloadConfig wl;
  wl.seed = 5;
  wl.key_domain = 16;
  stream::WorkloadGenerator gen(wl);
  const auto all = gen.take(k + 120);
  const std::vector<stream::Tuple> head(all.begin(),
                                        all.begin() + static_cast<long>(k));
  const std::vector<stream::Tuple> tail(all.begin() + static_cast<long>(k),
                                        all.end());

  SplitJoinConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = window;
  SplitJoinEngine engine(cfg, stream::JoinSpec::equi_on_key());
  engine.prefill(head);
  engine.process(tail);

  stream::ReferenceJoin oracle(window, stream::JoinSpec::equi_on_key());
  std::vector<stream::ResultTuple> expected_all = oracle.process_all(all);
  std::vector<stream::ResultTuple> expected;
  for (const auto& res : expected_all) {
    if (res.r.seq >= k || res.s.seq >= k) expected.push_back(res);
  }
  EXPECT_EQ(normalize(engine.results()), normalize(expected));
}

TEST(SplitJoinEngine, MultipleBatchesAccumulateWindowState) {
  SplitJoinConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 32;
  SplitJoinEngine engine(cfg, stream::JoinSpec::equi_on_key());

  stream::WorkloadConfig wl;
  wl.seed = 9;
  wl.key_domain = 8;
  stream::WorkloadGenerator gen(wl);
  const auto batch1 = gen.take(50);
  const auto batch2 = gen.take(50);
  engine.process(batch1);
  engine.process(batch2);

  std::vector<stream::Tuple> all = batch1;
  all.insert(all.end(), batch2.begin(), batch2.end());
  stream::ReferenceJoin oracle(32, stream::JoinSpec::equi_on_key());
  EXPECT_EQ(normalize(engine.results()),
            normalize(oracle.process_all(all)));
}

TEST(SplitJoinEngine, CountOnlyModeCountsWithoutCollecting) {
  SplitJoinConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 32;
  cfg.collect_results = false;
  SplitJoinEngine engine(cfg, stream::JoinSpec::equi_on_key());
  stream::WorkloadConfig wl;
  wl.key_domain = 4;
  stream::WorkloadGenerator gen(wl);
  const auto tuples = gen.take(200);
  const auto report = engine.process(tuples);

  stream::ReferenceJoin oracle(32, stream::JoinSpec::equi_on_key());
  EXPECT_EQ(report.results_emitted, oracle.process_all(tuples).size());
  EXPECT_TRUE(engine.results().empty());
}

TEST(SplitJoinEngine, TupleLatencyIsMeasurable) {
  SplitJoinConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 1 << 10;
  SplitJoinEngine engine(cfg, stream::JoinSpec::equi_on_key());
  stream::WorkloadConfig wl;
  wl.key_domain = 1 << 16;
  stream::WorkloadGenerator gen(wl);
  engine.prefill(gen.take(2 << 10));

  stream::Tuple probe;
  probe.origin = stream::StreamId::R;
  const double latency = engine.measure_tuple_latency_seconds(probe);
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 1.0);
}

// Threads of this process, or 0 where /proc/self/task is not available.
std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? 0 : n;
}

// A 1-core engine runs its core on the caller's thread and starts no
// thread at all; two cores bring two core threads and the collector.
TEST(SplitJoinEngine, OneCoreEngineStartsNoThreads) {
  // A sanitizer runtime starts a helper thread of its own on the first
  // thread creation; let that happen before the baseline count.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task on this host";
  SplitJoinConfig cfg;
  cfg.window_size = 32;
  stream::WorkloadConfig wl;
  wl.key_domain = 8;
  const auto tuples = stream::WorkloadGenerator(wl).take(100);
  {
    cfg.num_cores = 1;
    SplitJoinEngine engine(cfg, JoinSpec::equi_on_key());
    EXPECT_EQ(thread_count(), before);
    engine.process_batched(tuples, 16);
    EXPECT_EQ(thread_count(), before);
  }
  {
    cfg.num_cores = 2;
    SplitJoinEngine engine(cfg, JoinSpec::equi_on_key());
    EXPECT_EQ(thread_count(), before + 3);
  }
}

TEST(SplitJoinEngine, RejectsInvalidConfig) {
  SplitJoinConfig bad;
  bad.num_cores = 3;
  bad.window_size = 10;
  EXPECT_THROW(SplitJoinEngine(bad, stream::JoinSpec::equi_on_key()),
               PreconditionError);
}

}  // namespace
}  // namespace hal::sw
