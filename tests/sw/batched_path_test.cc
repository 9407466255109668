// Differential tests for the batched data path: for every software
// backend (and the cluster wrapping one), the batched dispatch
// (EngineConfig::dispatch_batch > 0 / process_batched) must be
// indistinguishable from the tuple-at-a-time oracle path in everything
// deterministic — result multiset and the deterministic observability
// projection (to_json with include_runtime=false) byte for byte. Only
// wall-clock numbers and runtime-tagged counters may differ.
//
// The handshake chain is special: its multi-core window semantics are
// interleaving-dependent by design, so the batched path is held to the
// same laziness-aware invariant as the tuple path (exactly-once within
// window tolerance), and to exact oracle equality on the 1-core chain
// where the engine degenerates to the eager oracle.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/stream_join.h"
#include "obs/export.h"
#include "stream/generator.h"
#include "stream/reference_join.h"
#include "sw/handshake_join.h"

namespace hal::core {
namespace {

using stream::JoinSpec;
using stream::KeyDistribution;
using stream::normalize;
using stream::ReferenceJoin;
using stream::ResultKey;
using stream::Tuple;

std::vector<Tuple> workload(KeyDistribution dist, std::size_t n,
                            std::uint32_t key_domain = 16,
                            std::uint64_t seed = 23) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  wl.distribution = dist;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

constexpr std::size_t kWindow = 128;

// `cores` 0 picks the default: 4 cores, or 2 per cluster worker.
EngineConfig config_for(Backend b, std::size_t dispatch_batch,
                        std::uint32_t cores = 0) {
  EngineConfig cfg;
  cfg.backend = b;
  cfg.window_size = kWindow;
  cfg.dispatch_batch = dispatch_batch;
  if (b == Backend::kCluster) {
    cfg.num_cores = 2;  // per-shard worker cores
    cfg.cluster_shards = 2;
    cfg.cluster_worker_backend = Backend::kSwSplitJoin;
  } else {
    cfg.num_cores = 4;
  }
  if (cores != 0) cfg.num_cores = cores;
  return cfg;
}

struct PathRun {
  std::vector<ResultKey> result_keys;
  std::string det_json;  // deterministic obs projection
};

PathRun run_once(Backend b, std::size_t dispatch_batch,
                 const std::vector<Tuple>& tuples, std::uint32_t cores = 0) {
  auto engine = make_engine(config_for(b, dispatch_batch, cores));
  const RunReport report = engine->process(tuples);
  PathRun out;
  out.result_keys = normalize(engine->take_results());
  obs::ExportOptions det;
  det.include_runtime = false;
  out.det_json = obs::to_json(snapshot_run(*engine, report), det);
  return out;
}

struct Params {
  Backend backend;
  // SplitJoin cores (per cluster worker); 0 = config_for's default. It
  // sits in what was padding, so the rows without it keep their names.
  std::uint8_t cores;
  std::size_t batch;
  KeyDistribution dist;
};

std::string name(const testing::TestParamInfo<Params>& info) {
  std::string backend = to_string(info.param.backend);
  for (auto& c : backend) {
    if (c == '-') c = '_';
  }
  const std::string cores =
      info.param.cores == 0 ? "" : "_c" + std::to_string(info.param.cores);
  return backend + cores + "_b" + std::to_string(info.param.batch) +
         (info.param.dist == KeyDistribution::kZipf ? "_zipf" : "_uni");
}

class BatchedPathTest : public testing::TestWithParam<Params> {};

TEST_P(BatchedPathTest, MatchesTuplePathExactly) {
  const Params& p = GetParam();
  const auto tuples = workload(p.dist, 4 * kWindow + 7);

  const PathRun tuple_path = run_once(p.backend, 0, tuples, p.cores);
  const PathRun batched = run_once(p.backend, p.batch, tuples, p.cores);

  EXPECT_EQ(batched.result_keys, tuple_path.result_keys);
  EXPECT_EQ(batched.det_json, tuple_path.det_json)
      << "deterministic obs projection diverged between dispatch paths";

  // Anchor both paths to the eager oracle, so equal-but-wrong cannot pass.
  ReferenceJoin oracle(kWindow, JoinSpec::equi_on_key());
  EXPECT_EQ(tuple_path.result_keys, normalize(oracle.process_all(tuples)));
}

// gtest prints each parameter's bytes into its test name, padding
// included. Static storage zero-fills the padding and ValuesIn copies the
// array whole, so the names stay the same from build to build.
// The 1-core rows run SplitJoin inline on the caller's (or the cluster
// worker's) thread.
constexpr Params kSweep[] = {
    {Backend::kSwSplitJoin, 0, 1, KeyDistribution::kUniform},
    {Backend::kSwSplitJoin, 0, 7, KeyDistribution::kUniform},
    {Backend::kSwSplitJoin, 0, 7, KeyDistribution::kZipf},
    {Backend::kSwSplitJoin, 0, 64, KeyDistribution::kUniform},
    {Backend::kSwSplitJoin, 0, kWindow, KeyDistribution::kZipf},
    {Backend::kSwSplitJoin, 1, 1, KeyDistribution::kUniform},
    {Backend::kSwSplitJoin, 1, 7, KeyDistribution::kZipf},
    {Backend::kSwSplitJoin, 1, 64, KeyDistribution::kUniform},
    {Backend::kCluster, 0, 1, KeyDistribution::kUniform},
    {Backend::kCluster, 0, 7, KeyDistribution::kZipf},
    {Backend::kCluster, 0, 64, KeyDistribution::kUniform},
    {Backend::kCluster, 0, kWindow, KeyDistribution::kUniform},
    {Backend::kCluster, 1, 7, KeyDistribution::kZipf},
    {Backend::kCluster, 1, 64, KeyDistribution::kUniform},
};

INSTANTIATE_TEST_SUITE_P(Sweep, BatchedPathTest, testing::ValuesIn(kSweep),
                         name);

// kSwBatch has batch-granular kernels either way; its logical-expiry
// cutoff makes the result multiset independent of the dispatch
// granularity, which is exactly what the differential asserts. The
// deterministic projection is compared at equal granularity only: the
// batch-fill histogram legitimately depends on the dispatch size.
TEST(BatchedPathBatchJoin, ResultsIndependentOfDispatchGranularity) {
  for (const auto dist :
       {KeyDistribution::kUniform, KeyDistribution::kZipf}) {
    const auto tuples = workload(dist, 4 * kWindow + 7);
    const PathRun base = run_once(Backend::kSwBatch, 0, tuples);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, kWindow}) {
      const PathRun batched = run_once(Backend::kSwBatch, batch, tuples);
      EXPECT_EQ(batched.result_keys, base.result_keys)
          << "dispatch batch " << batch;
    }
  }
}

TEST(BatchedPathBatchJoin, SameGranularityProjectionIsByteIdentical) {
  const auto tuples = workload(KeyDistribution::kUniform, 4 * kWindow + 7);
  const PathRun first = run_once(Backend::kSwBatch, 64, tuples);
  const PathRun second = run_once(Backend::kSwBatch, 64, tuples);
  EXPECT_EQ(first.det_json, second.det_json);
  EXPECT_EQ(first.result_keys, second.result_keys);
}

// 1-core handshake chain: entries are consumed in offer order, so both
// dispatch paths must degenerate to the eager oracle exactly.
TEST(BatchedPathHandshake, SingleCoreMatchesOracleExactly) {
  const JoinSpec spec = JoinSpec::equi_on_key();
  const auto tuples = workload(KeyDistribution::kUniform, 300, 8);
  ReferenceJoin oracle(64, spec);
  const auto expected = normalize(oracle.process_all(tuples));

  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    sw::HandshakeJoinConfig cfg;
    cfg.num_cores = 1;
    cfg.window_size = 64;
    sw::HandshakeJoinEngine engine(cfg, spec);
    engine.process_batched(tuples, batch);
    EXPECT_EQ(normalize(engine.results()), expected)
        << "dispatch batch " << batch;
  }
}

// Multi-core handshake, batched dispatch: the same exactly-once-within-
// window-tolerance invariant the tuple path is held to.
TEST(BatchedPathHandshake, MultiCoreBatchedHoldsWindowTolerance) {
  const JoinSpec spec = JoinSpec::equi_on_key();
  sw::HandshakeJoinConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = kWindow;
  sw::HandshakeJoinEngine engine(cfg, spec);

  const auto tuples = workload(KeyDistribution::kUniform, 4 * kWindow + 11);
  engine.process_batched(tuples, 7);
  const auto results = engine.results();
  EXPECT_GT(results.size(), 0u);

  for (const auto& res : results) {
    EXPECT_TRUE(spec.matches(res.r, res.s));
  }
  const auto keys = normalize(results);
  const std::set<ResultKey> unique(keys.begin(), keys.end());
  ASSERT_EQ(unique.size(), keys.size()) << "duplicate pairs";

  const std::size_t sub = cfg.window_size / cfg.num_cores;
  std::size_t slack = 2 * sub + 4 * cfg.num_cores +
                      2 * cfg.input_queue_capacity + 16;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  slack += cfg.window_size;  // see handshake_join_test.cc
#endif

  ReferenceJoin wide(cfg.window_size + slack, spec);
  const auto wide_keys = normalize(wide.process_all(tuples));
  const std::set<ResultKey> wide_set(wide_keys.begin(), wide_keys.end());
  for (const auto& k : keys) {
    ASSERT_TRUE(wide_set.contains(k))
        << "(" << k.r_seq << "," << k.s_seq << ") outside widened window";
  }
}

// The facade threads dispatch_batch through to the handshake adapter too.
TEST(BatchedPathHandshake, FacadeBatchedReportsFullTupleCount) {
  EngineConfig cfg = config_for(Backend::kSwHandshake, 7);
  auto engine = make_engine(cfg);
  const auto tuples = workload(KeyDistribution::kUniform, 200, 8);
  const RunReport report = engine->process(tuples);
  EXPECT_EQ(report.tuples_processed, tuples.size());
  EXPECT_EQ(report.results_emitted, engine->take_results().size());
}

}  // namespace
}  // namespace hal::core
