// ObsSnapshot end-to-end: every facade backend's run produces valid
// snapshot JSON, and the deterministic projection (ExportOptions with
// include_runtime=false) is byte-identical across two runs with the same
// seed and config — the determinism contract the Stability tagging exists
// to uphold. kSwHandshake participates too: its result counts race by
// design, but they are tagged kRuntime and therefore filtered out of the
// compared projection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/harness.h"
#include "core/stream_join.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "simd/probe.h"
#include "stream/generator.h"
#include "sw/probe_path.h"

namespace hal::core {
namespace {

std::vector<stream::Tuple> workload(std::uint64_t seed = 101) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = 16;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(400);
}

EngineConfig config_for(Backend b) {
  EngineConfig cfg;
  cfg.backend = b;
  cfg.window_size = 64;
  if (b == Backend::kCluster) {
    cfg.num_cores = 1;  // per-shard worker cores
    cfg.cluster_shards = 4;
    cfg.cluster_worker_backend = Backend::kSwSplitJoin;
  } else {
    cfg.num_cores = 4;
  }
  return cfg;
}

std::string deterministic_json(Backend b, std::uint64_t seed = 101) {
  auto engine = make_engine(config_for(b));
  const RunReport report = engine->process(workload(seed));
  obs::ExportOptions det;
  det.include_runtime = false;
  return obs::to_json(snapshot_run(*engine, report), det);
}

// Same, but pinning the probe path and the simd ISA for the run.
std::string deterministic_json_path(Backend b, sw::ProbePath probe,
                                    simd::Isa isa) {
  EXPECT_EQ(simd::force_isa(isa), isa);
  EngineConfig cfg = config_for(b);
  cfg.probe = probe;
  auto engine = make_engine(cfg);
  const RunReport report = engine->process(workload());
  obs::ExportOptions det;
  det.include_runtime = false;
  std::string json = obs::to_json(snapshot_run(*engine, report), det);
  simd::reset_isa();
  return json;
}

class SnapshotBackendTest : public testing::TestWithParam<Backend> {};

TEST_P(SnapshotBackendTest, RunProducesValidObsJson) {
  auto engine = make_engine(config_for(GetParam()));
  const RunReport report = engine->process(workload());
  const obs::ObsSnapshot snap = snapshot_run(*engine, report);

  const std::string full = obs::to_json(snap);
  EXPECT_TRUE(obs::json_lint(full));
  EXPECT_NE(full.find(to_string(GetParam())), std::string::npos);  // label

  const auto* tuples = snap.find("run.tuples_processed");
  ASSERT_NE(tuples, nullptr);
  EXPECT_EQ(tuples->counter_value, 400u);
  EXPECT_NE(snap.find("run.results_emitted"), nullptr);
  // Every backend threads its internals through collect_metrics.
  bool has_engine_metric = false;
  for (const auto& m : snap.metrics) {
    if (m.name.rfind("engine.", 0) == 0) has_engine_metric = true;
  }
  EXPECT_TRUE(has_engine_metric);
}

TEST_P(SnapshotBackendTest, DeterministicProjectionIsByteIdentical) {
  const std::string first = deterministic_json(GetParam());
  const std::string second = deterministic_json(GetParam());
  EXPECT_TRUE(obs::json_lint(first));
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SnapshotBackendTest,
    testing::Values(Backend::kHwUniflow, Backend::kHwBiflow,
                    Backend::kSwSplitJoin, Backend::kSwHandshake,
                    Backend::kSwBatch, Backend::kCluster),
    [](const testing::TestParamInfo<Backend>& info) {
      std::string s = to_string(info.param);
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

// The indexed/SIMD data path must not leak into the deterministic
// projection: indexed vs full-scan probes, and every runnable ISA, all
// produce the same bytes as the scalar-forced scan oracle. (Probe/match
// tallies are order-independent sums; this test is the tripwire should a
// future counter become path- or ISA-shaped without a kRuntime tag.)
TEST(Snapshot, ProjectionInvariantUnderProbePathAndIsa) {
  for (const Backend b :
       {Backend::kSwSplitJoin, Backend::kSwBatch, Backend::kCluster}) {
    const std::string oracle = deterministic_json_path(
        b, sw::ProbePath::kScan, simd::Isa::kScalar);
    EXPECT_EQ(deterministic_json_path(b, sw::ProbePath::kIndexed,
                                      simd::Isa::kScalar),
              oracle)
        << to_string(b) << ": indexed/scalar diverged";
    const simd::Isa wide = simd::detected_isa();
    if (wide != simd::Isa::kScalar) {
      EXPECT_EQ(deterministic_json_path(b, sw::ProbePath::kIndexed, wide),
                oracle)
          << to_string(b) << ": indexed/" << simd::to_string(wide)
          << " diverged";
      EXPECT_EQ(deterministic_json_path(b, sw::ProbePath::kScan, wide),
                oracle)
          << to_string(b) << ": scan/" << simd::to_string(wide)
          << " diverged";
    }
  }
}

TEST(Snapshot, ProjectionComparisonHasTeeth) {
  // A different workload must yield a different deterministic projection —
  // otherwise byte-equality above would be vacuous.
  EXPECT_NE(deterministic_json(Backend::kHwUniflow, 101),
            deterministic_json(Backend::kHwUniflow, 102));
}

TEST(Snapshot, HarnessPublishesIntoCallerRegistry) {
  obs::MetricRegistry reg;
  hw::UniflowConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 32;
  MeasureOptions opts;
  opts.num_tuples = 128;
  opts.registry = &reg;
  opts.obs_prefix = "t.";
  const HwThroughput t =
      measure_uniflow_throughput(cfg, hw::virtex5_xc5vlx50t(), opts);
  EXPECT_EQ(t.tuples, 128u);

  const obs::ObsSnapshot snap = reg.snapshot("harness");
  ASSERT_NE(snap.find("t.run.tuples"), nullptr);
  EXPECT_EQ(snap.find("t.run.tuples")->counter_value, 128u);
  EXPECT_NE(snap.find("t.run.cycles"), nullptr);
  EXPECT_NE(snap.find("t.run.fmax_mhz"), nullptr);
  bool has_engine_metric = false;
  for (const auto& m : snap.metrics) {
    if (m.name.rfind("t.engine.", 0) == 0) has_engine_metric = true;
  }
  EXPECT_TRUE(has_engine_metric);
}

}  // namespace
}  // namespace hal::core
