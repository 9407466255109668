// End-to-end correctness of the uni-flow hardware engine against the
// reference oracle, across core counts, window sizes, network variants and
// key skews.
#include <gtest/gtest.h>

#include "hw/uniflow/engine.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::hw {
namespace {

using stream::JoinSpec;
using stream::KeyDistribution;
using stream::normalize;
using stream::ReferenceJoin;
using stream::Tuple;
using stream::WorkloadConfig;
using stream::WorkloadGenerator;

struct Params {
  std::uint32_t cores;
  std::size_t window;
  NetworkKind dist;
  NetworkKind gather;
  KeyDistribution keys;
  std::uint32_t key_domain;
};

std::string param_name(const testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  auto net = [](NetworkKind k) {
    switch (k) {
      case NetworkKind::kScalable: return "s";
      case NetworkKind::kLightweight: return "l";
      case NetworkKind::kChain: return "c";
    }
    return "?";
  };
  std::string s = "c" + std::to_string(p.cores) + "_w" +
                  std::to_string(p.window) + "_" + net(p.dist) + "d" +
                  net(p.gather) + "g_k" + std::to_string(p.key_domain);
  s += p.keys == KeyDistribution::kZipf
           ? "_zipf"
           : (p.keys == KeyDistribution::kSequential ? "_seq" : "_uni");
  return s;
}

class UniflowOracleTest : public testing::TestWithParam<Params> {};

TEST_P(UniflowOracleTest, MatchesReferenceJoin) {
  const Params& p = GetParam();
  UniflowConfig cfg;
  cfg.num_cores = p.cores;
  cfg.window_size = p.window;
  cfg.distribution = p.dist;
  cfg.gathering = p.gather;
  UniflowEngine engine(cfg);

  WorkloadConfig wl;
  wl.seed = 7;
  wl.key_domain = p.key_domain;
  wl.distribution = p.keys;
  WorkloadGenerator gen(wl);
  // Enough tuples to fill windows ~2x so expiry paths are exercised.
  const auto tuples = gen.take(4 * p.window + 37);

  const JoinSpec spec = JoinSpec::equi_on_key();
  engine.program(spec);
  engine.offer(tuples);
  engine.run_to_quiescence(/*max_cycles=*/200'000'000);

  ReferenceJoin oracle(p.window, spec);
  const auto expected = normalize(oracle.process_all(tuples));
  const auto actual = normalize(engine.result_tuples());
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual, expected);
}

// gtest prints each parameter's bytes into its test name, padding
// included. Static storage zero-fills the padding and ValuesIn copies the
// array whole, so the names stay the same from build to build.
constexpr Params kSweep[] = {
    {1, 8, NetworkKind::kScalable, NetworkKind::kScalable,
     KeyDistribution::kUniform, 4},
    {2, 16, NetworkKind::kScalable, NetworkKind::kScalable,
     KeyDistribution::kUniform, 8},
    {4, 64, NetworkKind::kScalable, NetworkKind::kScalable,
     KeyDistribution::kUniform, 32},
    {4, 64, NetworkKind::kLightweight, NetworkKind::kLightweight,
     KeyDistribution::kUniform, 32},
    {4, 64, NetworkKind::kLightweight, NetworkKind::kScalable,
     KeyDistribution::kZipf, 64},
    {8, 128, NetworkKind::kScalable, NetworkKind::kLightweight,
     KeyDistribution::kSequential, 16},
    {8, 256, NetworkKind::kScalable, NetworkKind::kScalable,
     KeyDistribution::kZipf, 128},
    {16, 256, NetworkKind::kScalable, NetworkKind::kScalable,
     KeyDistribution::kUniform, 64},
    {3, 63, NetworkKind::kScalable, NetworkKind::kScalable,
     KeyDistribution::kUniform, 16},
    {5, 40, NetworkKind::kLightweight, NetworkKind::kScalable,
     KeyDistribution::kUniform, 8},
    // OP-Chain layout = low-latency handshake join: replication +
    // fast-forward down a daisy-chain, eager semantics preserved.
    {4, 64, NetworkKind::kChain, NetworkKind::kChain,
     KeyDistribution::kUniform, 32},
    {8, 128, NetworkKind::kChain, NetworkKind::kChain,
     KeyDistribution::kZipf, 64},
    {6, 96, NetworkKind::kChain, NetworkKind::kScalable,
     KeyDistribution::kUniform, 16},
};

INSTANTIATE_TEST_SUITE_P(Sweep, UniflowOracleTest, testing::ValuesIn(kSweep),
                         param_name);

TEST(UniflowEngine, EmptyRunIsQuiescent) {
  UniflowEngine engine(UniflowConfig{});
  EXPECT_TRUE(engine.quiescent());
  engine.step(10);
  EXPECT_TRUE(engine.quiescent());
  EXPECT_TRUE(engine.results().empty());
}

TEST(UniflowEngine, TuplesBeforeProgrammingProduceNothingAndAreNotStored) {
  UniflowConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 8;
  UniflowEngine engine(cfg);
  stream::WorkloadGenerator gen(stream::WorkloadConfig{});
  engine.offer(gen.take(10));
  engine.run_to_quiescence(100'000);
  EXPECT_TRUE(engine.results().empty());
  EXPECT_EQ(engine.core(0).window_size(stream::StreamId::R), 0u);
  EXPECT_EQ(engine.core(1).window_size(stream::StreamId::S), 0u);
}

TEST(UniflowEngine, ReprogrammingMidStreamSwitchesOperator) {
  UniflowConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 8;
  UniflowEngine engine(cfg);

  // Phase 1: equi-join on key.
  const JoinSpec equi = JoinSpec::equi_on_key();
  // Phase 2: band join |r.key - s.key| <= 1.
  const JoinSpec band = JoinSpec::band_on_key(1);

  WorkloadConfig wl;
  wl.key_domain = 4;
  WorkloadGenerator gen(wl);
  const auto phase1 = gen.take(40);
  const auto phase2 = gen.take(40);

  engine.program(equi);
  engine.offer(phase1);
  engine.program(band);
  engine.offer(phase2);
  engine.run_to_quiescence(1'000'000);

  ReferenceJoin oracle(8, equi);
  std::vector<stream::ResultTuple> expected;
  for (const auto& t : phase1) oracle.process(t, expected);
  oracle.set_spec(band);
  for (const auto& t : phase2) oracle.process(t, expected);

  EXPECT_EQ(normalize(engine.result_tuples()), normalize(expected));
}

TEST(UniflowEngine, RoundRobinStorageIsBalanced) {
  UniflowConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = 64;
  UniflowEngine engine(cfg);
  engine.program(JoinSpec::equi_on_key());
  WorkloadGenerator gen(stream::WorkloadConfig{});
  engine.offer(gen.take(30));  // 15 R + 15 S (deterministic interleave)
  engine.run_to_quiescence(1'000'000);

  // 15 R tuples over 4 cores: occupancies 4,4,4,3 in round-robin order.
  std::size_t total_r = 0;
  std::size_t max_r = 0;
  std::size_t min_r = SIZE_MAX;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto sz = engine.core(i).window_size(stream::StreamId::R);
    total_r += sz;
    max_r = std::max(max_r, sz);
    min_r = std::min(min_r, sz);
  }
  EXPECT_EQ(total_r, 15u);
  EXPECT_LE(max_r - min_r, 1u);
}

TEST(UniflowEngine, DesignStatsReflectTopology) {
  UniflowConfig cfg;
  cfg.num_cores = 8;
  cfg.window_size = 64;
  cfg.distribution = NetworkKind::kScalable;
  cfg.gathering = NetworkKind::kScalable;
  cfg.fanout = 2;
  UniflowEngine engine(cfg);
  const DesignStats s = engine.design_stats();
  EXPECT_EQ(s.num_cores, 8u);
  EXPECT_EQ(s.sub_window_capacity, 8u);
  EXPECT_EQ(s.window_size_per_stream(), 64u);
  // Binary tree over 8 leaves: 1 + 2 + 4 = 7 DNodes.
  EXPECT_EQ(s.num_dnodes, 7u);
  // Gather: 4 + 2 + 1 pair nodes + root stage.
  EXPECT_GE(s.num_gnodes, 7u);
  EXPECT_EQ(s.io_channels_per_core, 2u);
  EXPECT_EQ(s.max_broadcast_fanout, 2u);
}

TEST(UniflowEngine, LightweightStatsUseWideFanout) {
  UniflowConfig cfg;
  cfg.num_cores = 16;
  cfg.window_size = 64;
  cfg.distribution = NetworkKind::kLightweight;
  cfg.gathering = NetworkKind::kLightweight;
  UniflowEngine engine(cfg);
  const DesignStats s = engine.design_stats();
  EXPECT_EQ(s.num_dnodes, 0u);
  EXPECT_EQ(s.num_gnodes, 0u);
  EXPECT_EQ(s.max_broadcast_fanout, 16u);
}

TEST(UniflowEngine, PrefillMatchesStreamedWarmup) {
  // prefill(head) + stream(tail) must equal stream(head+tail) restricted
  // to pairs involving at least one tail tuple — i.e., the warm-start
  // leaves the design in exactly the state streaming would have.
  const std::size_t window = 64;
  const std::size_t k = 200;
  WorkloadConfig wl;
  wl.seed = 12;
  wl.key_domain = 16;
  WorkloadGenerator gen(wl);
  const auto all = gen.take(k + 150);
  const std::vector<Tuple> head(all.begin(), all.begin() + k);
  const std::vector<Tuple> tail(all.begin() + k, all.end());

  UniflowConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = window;
  UniflowEngine engine(cfg);
  engine.program(JoinSpec::equi_on_key());
  engine.run_to_quiescence(10'000);
  engine.prefill(head);
  engine.offer(tail);
  engine.run_to_quiescence(10'000'000);

  ReferenceJoin oracle(window, JoinSpec::equi_on_key());
  std::vector<stream::ResultTuple> expected;
  for (const auto& res : oracle.process_all(all)) {
    if (res.r.seq >= k || res.s.seq >= k) expected.push_back(res);
  }
  EXPECT_EQ(normalize(engine.result_tuples()), normalize(expected));
}

TEST(UniflowEngine, HashCoresMatchOracle) {
  for (const std::uint32_t cores : {1u, 4u, 8u}) {
    UniflowConfig cfg;
    cfg.num_cores = cores;
    cfg.window_size = 32u * cores;
    cfg.algorithm = JoinAlgorithm::kHash;
    UniflowEngine engine(cfg);

    WorkloadConfig wl;
    wl.seed = 21;
    wl.key_domain = 16;
    WorkloadGenerator gen(wl);
    const auto tuples = gen.take(4 * cfg.window_size + 9);
    const JoinSpec spec = JoinSpec::equi_on_key();
    engine.program(spec);
    engine.offer(tuples);
    engine.run_to_quiescence(50'000'000);

    ReferenceJoin oracle(cfg.window_size, spec);
    EXPECT_EQ(normalize(engine.result_tuples()),
              normalize(oracle.process_all(tuples)))
        << cores << " hash cores";
  }
}

TEST(UniflowEngine, HashCoreRejectsNonEquiOperator) {
  UniflowConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 16;
  cfg.algorithm = JoinAlgorithm::kHash;
  UniflowEngine engine(cfg);
  engine.program(JoinSpec::band_on_key(2));
  EXPECT_THROW(engine.run_to_quiescence(10'000), PreconditionError);
}

TEST(UniflowEngine, HashCoresNeedFarFewerCyclesOnSparseKeys) {
  // Equi-join over a large key domain: the nested-loop core scans W/N
  // slots per tuple, the hash core touches only same-key candidates.
  auto run_cycles = [](JoinAlgorithm algorithm) {
    UniflowConfig cfg;
    cfg.num_cores = 4;
    cfg.window_size = 1024;
    cfg.algorithm = algorithm;
    UniflowEngine engine(cfg);
    engine.program(JoinSpec::equi_on_key());
    WorkloadConfig wl;
    wl.seed = 9;
    wl.key_domain = 1u << 20;
    WorkloadGenerator gen(wl);
    engine.run_to_quiescence(10'000);
    engine.prefill(gen.take(2048));
    engine.offer(gen.take(512));
    engine.run_to_quiescence(10'000'000);
    return engine.cycle();
  };
  const auto nlj = run_cycles(JoinAlgorithm::kNestedLoop);
  const auto hash = run_cycles(JoinAlgorithm::kHash);
  EXPECT_GT(nlj, 20 * hash)
      << "hash cores should be orders of magnitude faster on sparse keys";
}

TEST(UniflowEngine, RejectsInvalidConfigs) {
  UniflowConfig bad_window;
  bad_window.num_cores = 4;
  bad_window.window_size = 10;  // not a multiple of 4
  EXPECT_THROW(UniflowEngine{bad_window}, PreconditionError);

  UniflowConfig no_cores;
  no_cores.num_cores = 0;
  EXPECT_THROW(UniflowEngine{no_cores}, PreconditionError);

  UniflowConfig thin_links;
  thin_links.link_depth = 1;
  EXPECT_THROW(UniflowEngine{thin_links}, PreconditionError);
}

}  // namespace
}  // namespace hal::hw
