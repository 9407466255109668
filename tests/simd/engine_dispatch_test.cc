// End-to-end differential for the indexed/SIMD data path: every software
// backend (and the cluster wrapping one) must produce the same result
// multiset — and, where the engine is deterministic, the same byte-exact
// deterministic observability projection — no matter which ProbePath
// (indexed bucket probe vs full-lane scan) and which forced simd ISA
// (scalar / AVX2 / NEON) executes the kernels. The scan+scalar
// combination is bit-for-bit the pre-SIMD engine, so these tests pin the
// new default path to the old behavior across batch shapes 1/7/64/window.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/stream_join.h"
#include "obs/export.h"
#include "simd/probe.h"
#include "stream/generator.h"
#include "stream/reference_join.h"
#include "sw/handshake_join.h"
#include "sw/probe_path.h"

namespace hal::core {
namespace {

using simd::Isa;
using stream::JoinSpec;
using stream::KeyDistribution;
using stream::normalize;
using stream::ReferenceJoin;
using stream::ResultKey;
using stream::Tuple;
using sw::ProbePath;

constexpr std::size_t kWindow = 128;

std::vector<Tuple> workload(KeyDistribution dist, std::size_t n,
                            std::uint32_t key_domain = 16) {
  stream::WorkloadConfig wl;
  wl.seed = 23;
  wl.key_domain = key_domain;
  wl.distribution = dist;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

EngineConfig config_for(Backend b, std::size_t dispatch_batch,
                        ProbePath probe) {
  EngineConfig cfg;
  cfg.backend = b;
  cfg.window_size = kWindow;
  cfg.dispatch_batch = dispatch_batch;
  cfg.probe = probe;
  if (b == Backend::kCluster) {
    cfg.num_cores = 2;
    cfg.cluster_shards = 2;
    cfg.cluster_worker_backend = Backend::kSwSplitJoin;
  } else {
    cfg.num_cores = 4;
  }
  return cfg;
}

struct PathRun {
  std::vector<ResultKey> result_keys;
  std::string det_json;
};

PathRun run_once(Backend b, std::size_t dispatch_batch, ProbePath probe,
                 Isa isa, const std::vector<Tuple>& tuples) {
  const Isa installed = simd::force_isa(isa);
  EXPECT_EQ(installed, isa);  // caller skips unrunnable ISAs beforehand
  auto engine = make_engine(config_for(b, dispatch_batch, probe));
  const RunReport report = engine->process(tuples);
  PathRun out;
  out.result_keys = normalize(engine->take_results());
  obs::ExportOptions det;
  det.include_runtime = false;
  out.det_json = obs::to_json(snapshot_run(*engine, report), det);
  simd::reset_isa();
  return out;
}

struct Params {
  Backend backend;
  std::size_t batch;
  Isa isa;
};

std::string name(const testing::TestParamInfo<Params>& info) {
  std::string backend = to_string(info.param.backend);
  for (auto& c : backend) {
    if (c == '-') c = '_';
  }
  return backend + "_b" + std::to_string(info.param.batch) + "_" +
         simd::to_string(info.param.isa);
}

class EngineDispatchTest : public testing::TestWithParam<Params> {
 protected:
  void SetUp() override {
    const Isa want = GetParam().isa;
    const Isa installed = simd::force_isa(want);
    simd::reset_isa();
    if (installed != want) {
      GTEST_SKIP() << "ISA " << simd::to_string(want)
                   << " not runnable on this host";
    }
  }
};

// Indexed path under the parametrized ISA vs the pre-SIMD engine
// (scan + scalar): identical multisets, identical deterministic
// projection, both anchored to the eager oracle.
TEST_P(EngineDispatchTest, IndexedSimdPathMatchesScanScalarOracle) {
  const Params& p = GetParam();
  for (const auto dist :
       {KeyDistribution::kUniform, KeyDistribution::kZipf}) {
    const auto tuples = workload(dist, 4 * kWindow + 7);

    const PathRun legacy =
        run_once(p.backend, p.batch, ProbePath::kScan, Isa::kScalar, tuples);
    const PathRun indexed =
        run_once(p.backend, p.batch, ProbePath::kIndexed, p.isa, tuples);

    EXPECT_EQ(indexed.result_keys, legacy.result_keys)
        << "dist=" << (dist == KeyDistribution::kZipf ? "zipf" : "uniform");
    EXPECT_EQ(indexed.det_json, legacy.det_json)
        << "deterministic obs projection diverged between probe paths";

    ReferenceJoin oracle(kWindow, JoinSpec::equi_on_key());
    EXPECT_EQ(indexed.result_keys, normalize(oracle.process_all(tuples)));
  }
}

// gtest prints each parameter's bytes into its test name, padding
// included. Static storage zero-fills the padding and ValuesIn copies the
// array whole, so the names stay the same from build to build.
// Batch shapes 1 / 7 / 64 / window per backend, each under every
// candidate ISA (unrunnable ones skip at SetUp).
constexpr Params kSweep[] = {
    {Backend::kSwSplitJoin, 1, Isa::kScalar},
    {Backend::kSwSplitJoin, 7, Isa::kAvx2},
    {Backend::kSwSplitJoin, 7, Isa::kNeon},
    {Backend::kSwSplitJoin, 64, Isa::kAvx2},
    {Backend::kSwSplitJoin, kWindow, Isa::kScalar},
    {Backend::kSwBatch, 1, Isa::kAvx2},
    {Backend::kSwBatch, 7, Isa::kScalar},
    {Backend::kSwBatch, 64, Isa::kAvx2},
    {Backend::kSwBatch, 64, Isa::kNeon},
    {Backend::kSwBatch, kWindow, Isa::kAvx2},
    {Backend::kCluster, 1, Isa::kScalar},
    {Backend::kCluster, 7, Isa::kAvx2},
    {Backend::kCluster, 64, Isa::kNeon},
    {Backend::kCluster, kWindow, Isa::kAvx2},
};

INSTANTIATE_TEST_SUITE_P(Sweep, EngineDispatchTest, testing::ValuesIn(kSweep),
                         name);

// 1-core handshake degenerates to the eager oracle: exact equality across
// ProbePath × ISA there.
TEST(EngineDispatchHandshake, SingleCoreExactAcrossPathAndIsa) {
  const JoinSpec spec = JoinSpec::equi_on_key();
  const auto tuples = workload(KeyDistribution::kUniform, 300, 8);
  ReferenceJoin oracle(64, spec);
  const auto expected = normalize(oracle.process_all(tuples));

  for (const ProbePath path : {ProbePath::kIndexed, ProbePath::kScan}) {
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
      if (simd::force_isa(isa) != isa) {
        simd::reset_isa();
        continue;
      }
      sw::HandshakeJoinConfig cfg;
      cfg.num_cores = 1;
      cfg.window_size = 64;
      cfg.probe = path;
      sw::HandshakeJoinEngine engine(cfg, spec);
      engine.process_batched(tuples, 7);
      EXPECT_EQ(normalize(engine.results()), expected)
          << to_string(path) << "/" << simd::to_string(isa);
      simd::reset_isa();
    }
  }
}

// Multi-core handshake with the indexed path: held to the same
// exactly-once-within-window-tolerance invariant as the scan path (its
// window semantics are interleaving-dependent by design).
TEST(EngineDispatchHandshake, MultiCoreIndexedHoldsWindowTolerance) {
  const JoinSpec spec = JoinSpec::equi_on_key();
  sw::HandshakeJoinConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = kWindow;
  cfg.probe = ProbePath::kIndexed;
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

// The cluster's batched ingress hot path hashes keyslots through the simd
// kernel; the per-tuple route() path does not. Same owners either way.
TEST(EngineDispatchCluster, BatchedIngressMatchesTupleIngress) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
    if (simd::force_isa(isa) != isa) {
      simd::reset_isa();
      continue;
    }
    const auto tuples = workload(KeyDistribution::kZipf, 4 * kWindow + 7);
    auto run = [&](std::size_t batch) {
      auto engine =
          make_engine(config_for(Backend::kCluster, batch,
                                 ProbePath::kIndexed));
      engine->process(tuples);
      return normalize(engine->take_results());
    };
    const auto tuple_path = run(0);
    const auto batched = run(64);
    EXPECT_EQ(batched, tuple_path) << simd::to_string(isa);
    simd::reset_isa();
  }
}

}  // namespace
}  // namespace hal::core
