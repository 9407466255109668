// hal::guard shed-accounting property suite.
//
// The guard's contract is an identity, not a bound: whatever timing
// produced the shed set, the guarded engine's output must equal the
// reference join of (offered input − shed log), exactly. This suite
// sweeps that identity across batch granularities, key distributions,
// software backends, and the cluster over every link fabric — plus a
// replicated cluster taking a worker kill mid-stream — always with
// force_overload + kKeySample so the shed *set* is reproducible too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "core/stream_join.h"
#include "guard/guard.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::guard {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEngine;
using cluster::ClusterReport;
using cluster::FaultEvent;
using cluster::FaultKind;
using cluster::Partitioning;
using core::Backend;
using core::EngineConfig;
using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::Tuple;

std::vector<Tuple> make_workload(std::size_t n, std::uint64_t seed,
                                 bool zipf) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = 48;
  wl.deterministic_interleave = false;
  if (zipf) {
    wl.distribution = stream::KeyDistribution::kZipf;
    wl.zipf_theta = 1.1;
  }
  return stream::WorkloadGenerator(wl).take(n);
}

std::vector<std::vector<Tuple>> chunked(const std::vector<Tuple>& all,
                                        std::size_t chunks) {
  std::vector<std::vector<Tuple>> out(chunks);
  const std::size_t per = all.size() / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = c + 1 == chunks ? all.size() : lo + per;
    out[c].assign(all.begin() + static_cast<std::ptrdiff_t>(lo),
                  all.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

GuardConfig forced_guard(std::uint64_t seed) {
  GuardConfig g;
  g.enabled = true;
  g.policy = ShedPolicy::kKeySample;
  g.seed = seed;
  g.drop_permille = 400;
  g.force_overload = true;
  return g;
}

// Drives `engine` through the chunks and asserts the differential
// identity against its admission guard's shed log.
void assert_exact(core::StreamJoinEngine& engine, std::size_t window_size,
                  const JoinSpec& spec, const std::vector<Tuple>& all,
                  std::size_t chunks, const std::string& what) {
  std::vector<stream::ResultTuple> got;
  for (const auto& chunk : chunked(all, chunks)) {
    (void)engine.process(chunk);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
  }
  const AdmissionGuard* guard = engine.admission_guard();
  ASSERT_NE(guard, nullptr) << what;
  EXPECT_EQ(guard->stats().offered(), all.size()) << what;
  EXPECT_GT(guard->stats().shed, 0u) << what;
  EXPECT_GT(guard->stats().admitted, 0u) << what;

  ReferenceJoin oracle(window_size, spec);
  const auto expected = oracle.process_all(minus_shed(all, guard->log()));
  EXPECT_EQ(normalize(got), normalize(expected)) << what;
}

// --- Software backends ----------------------------------------------------

struct SwCase {
  Backend backend;
  std::size_t dispatch_batch;
  bool zipf;
};

std::string sw_case_name(const ::testing::TestParamInfo<SwCase>& info) {
  std::string name = core::to_string(info.param.backend);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += "_d" + std::to_string(info.param.dispatch_batch);
  name += info.param.zipf ? "_zipf" : "_uniform";
  return name;
}

class SwShedPropertyTest : public ::testing::TestWithParam<SwCase> {};

TEST_P(SwShedPropertyTest, GuardedOutputEqualsOracleMinusShed) {
  const SwCase& c = GetParam();
  EngineConfig cfg;
  cfg.backend = c.backend;
  cfg.num_cores = 2;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.dispatch_batch = c.dispatch_batch;
  cfg.guard = forced_guard(7 + c.dispatch_batch);

  const auto all = make_workload(700, 101 + c.dispatch_batch, c.zipf);
  const auto engine = core::make_engine(cfg);
  assert_exact(*engine, cfg.window_size, cfg.spec, all, 5,
               sw_case_name({GetParam(), 0}));
}

// gtest prints each parameter's bytes into its test name, padding
// included. Static storage zero-fills the padding and ValuesIn copies the
// array whole, so the names stay the same from build to build.
constexpr SwCase kSwCases[] = {
    {Backend::kSwSplitJoin, 1, false}, {Backend::kSwSplitJoin, 7, true},
    {Backend::kSwSplitJoin, 64, false}, {Backend::kSwBatch, 1, true},
    {Backend::kSwBatch, 7, false},      {Backend::kSwBatch, 64, true},
};

INSTANTIATE_TEST_SUITE_P(BackendsAndBatches, SwShedPropertyTest,
                         ::testing::ValuesIn(kSwCases), sw_case_name);

// --- Cluster over every link fabric --------------------------------------

struct ClusterCase {
  net::TransportKind link;
  std::size_t batch_size;
  bool zipf;
  std::uint64_t seed;  // of the workload
};

std::string cluster_case_name(
    const ::testing::TestParamInfo<ClusterCase>& info) {
  const ClusterCase& c = info.param;
  std::string name = "Tcp";
  if (c.link == net::TransportKind::kInProcess) name = "InProcess";
  if (c.link == net::TransportKind::kLoopback) name = "Loopback";
  name += "_b" + std::to_string(c.batch_size);
  if (c.zipf) name += "_zipf";
  return name;
}

class ClusterShedPropertyTest
    : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(ClusterShedPropertyTest, GuardedIngressStaysExact) {
  const ClusterCase& c = GetParam();
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 3;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = c.batch_size;
  cfg.transport.link_transport = c.link;
  cfg.guard = forced_guard(23);

  const auto all = make_workload(600, c.seed, c.zipf);
  ClusterEngine engine(cfg);
  assert_exact(engine, cfg.window_size, cfg.spec, all, 4,
               cluster_case_name({GetParam(), 0}));

  // The router only ever saw the admitted stream: offered input minus
  // shed equals what reached routing.
  const ClusterReport rep = engine.report();
  EXPECT_TRUE(rep.guard_enabled);
  EXPECT_EQ(rep.input_tuples, all.size());
  EXPECT_EQ(rep.guard.admitted + rep.guard.shed, all.size());
}

// Pointer-free and in static storage (zeroed padding), for the same
// reason as kSwCases.
constexpr ClusterCase kClusterCases[] = {
    {net::TransportKind::kInProcess, 1, false, 211},
    {net::TransportKind::kInProcess, 7, true, 211},
    {net::TransportKind::kLoopback, 64, false, 211},
    {net::TransportKind::kTcp, 16, true, 211},
};

INSTANTIATE_TEST_SUITE_P(Transports, ClusterShedPropertyTest,
                         ::testing::ValuesIn(kClusterCases),
                         cluster_case_name);

// --- Shedding composed with crash faults ----------------------------------

// A replicated cluster sheds at the ingress *and* loses one replica to a
// kill mid-stream: failover must hand the epoch to the surviving replica
// and the differential identity must still hold tuple-exactly.
TEST(ClusterShedProperty, SheddingUnderWorkerKillStaysExact) {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.replicas = 2;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 16;
  cfg.guard = forced_guard(31);
  cfg.faults.events.push_back(
      FaultEvent{.kind = FaultKind::kKillWorker, .worker = 0, .epoch = 2,
                 .after_batches = 1});

  const auto all = make_workload(600, 307, /*zipf=*/false);
  ClusterEngine engine(cfg);
  assert_exact(engine, cfg.window_size, cfg.spec, all, 4, "kill+shed");

  const ClusterReport rep = engine.report();
  EXPECT_GE(rep.failovers, 1u);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.lost_tuples, 0u);
}

// Runtime-disabled guard on the cluster: zero shed, zero log, and the
// output is the plain oracle — the one-branch-per-epoch path.
TEST(ClusterShedProperty, DisabledGuardIsTheIdentity) {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.transport.batch_size = 16;
  cfg.guard.enabled = false;
  cfg.guard.force_overload = true;  // must be inert while disabled

  const auto all = make_workload(400, 401, /*zipf=*/false);
  ClusterEngine engine(cfg);
  std::vector<stream::ResultTuple> got;
  for (const auto& chunk : chunked(all, 4)) {
    (void)engine.process(chunk);
    auto r = engine.take_results();
    got.insert(got.end(), r.begin(), r.end());
  }
  const AdmissionGuard* guard = engine.admission_guard();
  ASSERT_NE(guard, nullptr);
  EXPECT_TRUE(guard->log().empty());
  EXPECT_FALSE(engine.report().guard_enabled);
  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  EXPECT_EQ(normalize(got), normalize(oracle.process_all(all)));
}

}  // namespace
}  // namespace hal::guard
