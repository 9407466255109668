// Software handshake join (bi-flow on threads): same laziness-aware
// invariants as the hardware bi-flow engine.
#include <gtest/gtest.h>

#include <set>

#include "stream/generator.h"
#include "stream/reference_join.h"
#include "sw/handshake_join.h"

namespace hal::sw {
namespace {

using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::ResultKey;
using stream::StreamId;
using stream::Tuple;

std::vector<Tuple> make_workload(std::size_t n, std::uint32_t key_domain,
                                 std::uint64_t seed) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  stream::WorkloadGenerator gen(wl);
  return gen.take(n);
}

struct Params {
  std::uint32_t cores;
  std::size_t window;
  std::uint32_t key_domain;
  std::uint64_t seed;
};

std::string name(const testing::TestParamInfo<Params>& info) {
  return "c" + std::to_string(info.param.cores) + "_w" +
         std::to_string(info.param.window) + "_s" +
         std::to_string(info.param.seed);
}

class SwHandshakeInvariantTest : public testing::TestWithParam<Params> {};

TEST_P(SwHandshakeInvariantTest, ExactlyOnceWithinWindowTolerance) {
  const Params& p = GetParam();
  HandshakeJoinConfig cfg;
  cfg.num_cores = p.cores;
  cfg.window_size = p.window;
  const JoinSpec spec = JoinSpec::equi_on_key();
  HandshakeJoinEngine engine(cfg, spec);

  const auto tuples = make_workload(4 * p.window + 11, p.key_domain, p.seed);
  engine.process(tuples);
  const auto results = engine.results();

  for (const auto& res : results) {
    EXPECT_TRUE(spec.matches(res.r, res.s));
  }

  const auto keys = normalize(results);
  const std::set<ResultKey> unique(keys.begin(), keys.end());
  ASSERT_EQ(unique.size(), keys.size()) << "duplicate pairs";

  const std::size_t sub = p.window / p.cores;
  std::size_t slack =
      2 * sub + 4 * p.cores + 2 * cfg.input_queue_capacity + 16;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  // The boundary eviction queues are unbounded, and their occupants stay
  // visible to crossing scans; a core thread descheduled by the
  // sanitizer's scheduler lets them pile up past the structural slack.
  slack += p.window;
#endif

  ReferenceJoin wide(p.window + slack, spec);
  const auto wide_keys = normalize(wide.process_all(tuples));
  const std::set<ResultKey> wide_set(wide_keys.begin(), wide_keys.end());
  for (const auto& k : keys) {
    ASSERT_TRUE(wide_set.contains(k))
        << "(" << k.r_seq << "," << k.s_seq << ") outside widened window";
  }

  if (p.window > slack) {
    ReferenceJoin narrow(p.window - slack, spec);
    const std::uint64_t cutoff = tuples.size() - 2 * p.window;
    std::size_t checked = 0;
    for (const auto& res : narrow.process_all(tuples)) {
      if (res.r.seq >= cutoff || res.s.seq >= cutoff) continue;
      ++checked;
      ASSERT_TRUE(unique.contains(key_of(res)))
          << "interior pair (" << res.r.seq << "," << res.s.seq
          << ") never met";
    }
    EXPECT_GT(checked, 0u);
  }
}

// gtest prints each parameter's bytes into its test name, padding
// included. Static storage zero-fills the padding and ValuesIn copies the
// array whole, so the names stay the same from build to build.
constexpr Params kSweep[] = {
    {2, 64, 8, 1},
    {4, 128, 16, 2},
    {4, 256, 32, 3},
    {8, 256, 16, 4},
};

INSTANTIATE_TEST_SUITE_P(Sweep, SwHandshakeInvariantTest,
                         testing::ValuesIn(kSweep), name);

TEST(SwHandshakeEngine, SingleCoreMatchesOracleExactly) {
  // One core, one input queue: entries are processed in offer order, so
  // the engine degenerates to the eager oracle.
  HandshakeJoinConfig cfg;
  cfg.num_cores = 1;
  cfg.window_size = 16;
  const JoinSpec spec = JoinSpec::equi_on_key();
  HandshakeJoinEngine engine(cfg, spec);
  const auto tuples = make_workload(150, 8, 7);
  engine.process(tuples);

  ReferenceJoin oracle(16, spec);
  EXPECT_EQ(normalize(engine.results()),
            normalize(oracle.process_all(tuples)));
}

TEST(SwHandshakeEngine, ReportsTupleAndResultCounts) {
  HandshakeJoinConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 32;
  HandshakeJoinEngine engine(cfg, JoinSpec::equi_on_key());
  const auto tuples = make_workload(100, 4, 3);
  const SwRunReport report = engine.process(tuples);
  EXPECT_EQ(report.tuples_processed, 100u);
  EXPECT_EQ(report.results_emitted, engine.results().size());
  EXPECT_GT(report.results_emitted, 0u);
}

}  // namespace
}  // namespace hal::sw
