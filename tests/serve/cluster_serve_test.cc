// ClusterTenantService differential suite — the fabric-level serving
// tier: N tenants over one supervised cluster join, hot-add/remove at
// epoch barriers, chaos kills on SPSC links.
//
// Ground truth is the fixed-tenant-set oracle: stream::ReferenceJoin over
// the full input, filtered per tenant by its MatchFilter and its
// [install_floor, remove_floor) seq envelope. WorkloadGenerator assigns
// seq as the 0-based global arrival index and every merged result's
// newest participant belongs to the epoch that emitted it, so the
// epoch-barrier floors are exact seq boundaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "recovery/chaos.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

#include "serve/cluster_serve.h"

namespace hal::serve {
namespace {

using cluster::ClusterConfig;
using cluster::Partitioning;
using core::Backend;
using stream::CmpOp;
using stream::JoinSpec;
using stream::ReferenceJoin;
using stream::ResultTuple;
using stream::Tuple;

// Tuple values are drawn uniformly from the full u32 range, so the
// midpoint splits the match stream roughly in half.
constexpr std::uint32_t kValueSplit = 1u << 31;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = 32;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

ClusterConfig serve_config() {
  ClusterConfig cfg;
  cfg.partitioning = Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  cfg.worker.backend = Backend::kSwSplitJoin;
  cfg.worker.num_cores = 2;
  cfg.transport.batch_size = 16;
  cfg.recovery.supervise = true;
  return cfg;
}

// Value-range filters partitioning the match stream by r.value halves.
MatchFilter low_half() {
  return MatchFilter{}.where_r(CmpOp::Lt, kValueSplit);
}
MatchFilter high_half() {
  return MatchFilter{}.where_r(CmpOp::Ge, kValueSplit);
}

// Oracle: full-run reference results, restricted to `filter` and to the
// tenant's [install_floor, remove_floor) delivery envelope (live tenants
// pass remove_floor = ~0).
std::vector<stream::ResultKey> oracle_slice(
    const std::vector<ResultTuple>& reference, const MatchFilter& filter,
    std::uint64_t install_floor,
    std::uint64_t remove_floor = ~std::uint64_t{0}) {
  std::vector<ResultTuple> kept;
  for (const ResultTuple& t : reference) {
    const std::uint64_t newest = std::max(t.r.seq, t.s.seq);
    if (newest >= install_floor && newest < remove_floor &&
        filter.matches(t)) {
      kept.push_back(t);
    }
  }
  return stream::normalize(kept);
}

void run_epochs(ClusterTenantService& svc, const std::vector<Tuple>& tuples,
                std::size_t epochs) {
  const std::size_t per_epoch = tuples.size() / epochs;
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto first =
        tuples.begin() + static_cast<std::ptrdiff_t>(e * per_epoch);
    const auto last = e + 1 == epochs
                          ? tuples.end()
                          : first + static_cast<std::ptrdiff_t>(per_epoch);
    svc.process(std::vector<Tuple>(first, last));
  }
}

TEST(ClusterServe, FixedTenantsPartitionTheSharedMatchStream) {
  ClusterTenantService svc(serve_config());
  const TenantId lo = svc.add_tenant("lo", low_half());
  const TenantId hi = svc.add_tenant("hi", high_half());
  const TenantId all = svc.add_tenant("all", MatchFilter{});

  const auto tuples = workload(1200, 171);
  run_epochs(svc, tuples, 4);

  ReferenceJoin oracle(64, JoinSpec::equi_on_key());
  const auto reference = oracle.process_all(tuples);
  EXPECT_EQ(stream::normalize(svc.output(lo)),
            oracle_slice(reference, low_half(), 0));
  EXPECT_EQ(stream::normalize(svc.output(hi)),
            oracle_slice(reference, high_half(), 0));
  EXPECT_EQ(stream::normalize(svc.output(all)),
            oracle_slice(reference, MatchFilter{}, 0));
  // The halves partition "all": one shared join served every tenant.
  EXPECT_EQ(svc.tenant(lo).matches + svc.tenant(hi).matches,
            svc.tenant(all).matches);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(svc.tenant(all).matches, reference.size());
}

TEST(ClusterServe, HotAddAndRemoveAreSeqExactAtEpochBarriers) {
  ClusterTenantService svc(serve_config());
  const TenantId early = svc.add_tenant("early", low_half());

  const auto tuples = workload(1500, 173);
  const std::size_t per_epoch = tuples.size() / 5;
  auto epoch_slice = [&](std::size_t e) {
    const auto first =
        tuples.begin() + static_cast<std::ptrdiff_t>(e * per_epoch);
    const auto last =
        e == 4 ? tuples.end()
               : first + static_cast<std::ptrdiff_t>(per_epoch);
    return std::vector<Tuple>(first, last);
  };

  svc.process(epoch_slice(0));
  svc.process(epoch_slice(1));
  // Hot-add at the epoch-2 barrier; remove "early" at the epoch-3 barrier.
  const TenantId late = svc.add_tenant("late", high_half());
  svc.process(epoch_slice(2));
  EXPECT_TRUE(svc.remove_tenant(early));
  EXPECT_FALSE(svc.remove_tenant(early)) << "double remove";
  svc.process(epoch_slice(3));
  svc.process(epoch_slice(4));

  EXPECT_EQ(svc.tenant(late).install_floor, 2 * per_epoch);
  EXPECT_EQ(svc.tenant(early).remove_floor, 3 * per_epoch);
  EXPECT_FALSE(svc.tenant(early).live);

  ReferenceJoin oracle(64, JoinSpec::equi_on_key());
  const auto reference = oracle.process_all(tuples);
  // late: everything its filter passes from its install floor on — the
  // shared join's windows were warm, so matches pairing a post-install
  // prober with a pre-install resident are included.
  EXPECT_EQ(stream::normalize(svc.output(late)),
            oracle_slice(reference, high_half(), 2 * per_epoch));
  // early: exactly the pre-removal envelope.
  EXPECT_EQ(stream::normalize(svc.output(early)),
            oracle_slice(reference, low_half(), 0, 3 * per_epoch));
  const auto frozen = svc.output(early).size();
  EXPECT_GT(frozen, 0u);

  // A warm hot-add must differ from a cold restart of the join: at least
  // one delivered match reaches back across the install barrier.
  bool crosses_barrier = false;
  for (const ResultTuple& t : svc.output(late)) {
    if (std::min(t.r.seq, t.s.seq) < 2 * per_epoch) crosses_barrier = true;
  }
  EXPECT_TRUE(crosses_barrier) << "workload never paired across the barrier";
}

// The acceptance property: hot-add/remove under a seeded chaos schedule
// (kills + an injected error on supervised SPSC links) delivers the same
// bytes as the fault-free fixed-set oracle.
TEST(ClusterServe, HotAddRemoveUnderChaosKillsStaysExact) {
  recovery::ChaosOptions opts;
  opts.workers = 2;
  opts.epochs = 5;
  opts.batches_per_epoch = 6;
  opts.kills = 2;
  opts.errors = 1;
  const recovery::ChaosPlan plan = recovery::ChaosPlan::generate(20170605, opts);

  ClusterConfig cfg = serve_config();
  plan.install(cfg);
  ClusterTenantService svc(cfg);
  const TenantId early = svc.add_tenant("early", low_half());

  const auto tuples = workload(1000, 179);
  const std::size_t per_epoch = tuples.size() / opts.epochs;
  TenantId late = 0;
  for (std::size_t e = 0; e < opts.epochs; ++e) {
    if (e == 2) late = svc.add_tenant("late", high_half());
    if (e == 4) {
      EXPECT_TRUE(svc.remove_tenant(early));
    }
    const auto first =
        tuples.begin() + static_cast<std::ptrdiff_t>(e * per_epoch);
    const auto last =
        e + 1 == opts.epochs
            ? tuples.end()
            : first + static_cast<std::ptrdiff_t>(per_epoch);
    svc.process(std::vector<Tuple>(first, last));
  }

  ReferenceJoin oracle(cfg.window_size, cfg.spec);
  const auto reference = oracle.process_all(tuples);
  EXPECT_EQ(stream::normalize(svc.output(early)),
            oracle_slice(reference, low_half(), 0, 4 * per_epoch))
      << plan.describe();
  EXPECT_EQ(stream::normalize(svc.output(late)),
            oracle_slice(reference, high_half(), 2 * per_epoch))
      << plan.describe();

  const cluster::ClusterReport rep = svc.engine().report();
  EXPECT_GE(rep.recovery.restarts, 1u) << plan.describe();
  EXPECT_EQ(rep.lost_tuples, 0u) << plan.describe();
  EXPECT_FALSE(rep.degraded) << plan.describe();
}

TEST(ClusterServe, ReportAndMetricsAreConsistent) {
  ClusterTenantService svc(serve_config());
  svc.add_tenant("a", low_half());
  const TenantId b = svc.add_tenant("b", high_half());
  const auto tuples = workload(600, 181);
  run_epochs(svc, tuples, 3);

  EXPECT_EQ(svc.tuples_fed(), tuples.size());
  const auto reports = svc.report();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].live);
  EXPECT_EQ(reports[1].name, "b");
  EXPECT_EQ(reports[1].matches, svc.output(b).size());

  obs::MetricRegistry registry;
  svc.collect_metrics(registry, "serve.");
  EXPECT_EQ(registry.counter("serve.tenants").value(), 2u);
}

}  // namespace
}  // namespace hal::serve
