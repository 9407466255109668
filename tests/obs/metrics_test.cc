// hal::obs unit suite: histogram bucket boundaries and quantiles on known
// distributions, order-independent merges, registry semantics, and the
// JSON/CSV exporters (including the deterministic-only projection and the
// json_lint checker the snapshot tests rely on).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace hal::obs {
namespace {

TEST(ExponentialBuckets, LadderShape) {
  const auto b = exponential_buckets(1.0, 2.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[4], 16.0);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpper) {
  // Buckets: (-inf,1], (1,2], (2,4], overflow (4,+inf).
  Histogram h({1.0, 2.0, 4.0});
  h.record(1.0);  // upper bound lands in its own bucket
  h.record(1.5);
  h.record(2.0);
  h.record(4.0);
  h.record(4.1);  // overflow
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.1);
  EXPECT_DOUBLE_EQ(s.sum, 1.0 + 1.5 + 2.0 + 4.0 + 4.1);
}

TEST(Histogram, QuantilesOnKnownDistribution) {
  // 100 samples uniform over (0, 100]: one per bucket of width 1.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(i);
  Histogram h(bounds);
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const auto s = h.snapshot();
  // Interpolated nearest-rank: p50 within the 50th bucket, p99 within the
  // 99th. The ladder is unit-width, so the error bound is one bucket.
  EXPECT_NEAR(s.p50(), 50.0, 1.0);
  EXPECT_NEAR(s.p99(), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), s.min);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
}

TEST(Histogram, SkewedDistributionTailQuantile) {
  // 98 fast samples and 2 slow outliers: p50 stays in the fast bucket,
  // p99 (nearest rank 99 of 100) must climb into the outliers' bucket,
  // max is exact.
  Histogram h(exponential_buckets(1.0, 2.0, 12));  // up to 2048
  for (int i = 0; i < 98; ++i) h.record(1.0);
  h.record(1500.0);
  h.record(1500.0);
  const auto s = h.snapshot();
  EXPECT_LE(s.p50(), 1.0);
  EXPECT_GT(s.p99(), 1024.0);
  EXPECT_DOUBLE_EQ(s.max, 1500.0);
}

TEST(Histogram, MergeIsOrderIndependent) {
  const auto bounds = exponential_buckets(1.0, 2.0, 8);
  Histogram a(bounds);
  Histogram b(bounds);
  Histogram c(bounds);
  for (int i = 0; i < 10; ++i) a.record(1.0 + i);
  for (int i = 0; i < 7; ++i) b.record(40.0 + i);
  for (int i = 0; i < 3; ++i) c.record(200.0 + i);

  Histogram abc(bounds);
  abc.merge(a);
  abc.merge(b);
  abc.merge(c);
  Histogram cba(bounds);
  cba.merge(c);
  cba.merge(b);
  cba.merge(a);

  const auto s1 = abc.snapshot();
  const auto s2 = cba.snapshot();
  EXPECT_EQ(s1.counts, s2.counts);
  EXPECT_EQ(s1.count, s2.count);
  EXPECT_DOUBLE_EQ(s1.sum, s2.sum);
  EXPECT_DOUBLE_EQ(s1.min, s2.min);
  EXPECT_DOUBLE_EQ(s1.max, s2.max);
  EXPECT_DOUBLE_EQ(s1.p99(), s2.p99());
}

TEST(Histogram, MergeRejectsMismatchedLadders) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  b.record(0.5);
  EXPECT_THROW(a.merge(b), PreconditionError);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h({1.0, 2.0});
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
}

TEST(Histogram, ConcurrentRecordsAllLand) {
  Histogram h(exponential_buckets(1.0, 2.0, 10));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(3.0);
    });
  }
  for (auto& t : threads) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(s.min, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(Registry, CountersGaugesAndReRegistration) {
  MetricRegistry reg;
  reg.counter("a.count").add(3);
  reg.counter("a.count").inc();
  reg.gauge("a.depth").set_max(7.0);
  reg.gauge("a.depth").set_max(5.0);  // lower: ignored
  EXPECT_EQ(reg.counter("a.count").value(), 4u);
  EXPECT_DOUBLE_EQ(reg.gauge("a.depth").value(), 7.0);
  EXPECT_EQ(reg.size(), 2u);
  // Same name with a different kind or stability is API misuse.
  EXPECT_THROW(reg.gauge("a.count"), PreconditionError);
  EXPECT_THROW(reg.counter("a.count", Stability::kRuntime),
               PreconditionError);
}

TEST(Registry, SnapshotIsNameSorted) {
  MetricRegistry reg;
  reg.set_counter("z.last", 1);
  reg.set_counter("a.first", 2);
  reg.set_gauge("m.middle", 3.0);
  const ObsSnapshot snap = reg.snapshot("test");
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.first");
  EXPECT_EQ(snap.metrics[1].name, "m.middle");
  EXPECT_EQ(snap.metrics[2].name, "z.last");
  ASSERT_NE(snap.find("m.middle"), nullptr);
  EXPECT_EQ(snap.find("m.middle")->kind, Kind::kGauge);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Export, JsonIsValidAndFiltersRuntime) {
  MetricRegistry reg;
  reg.set_counter("det.count", 42);
  reg.set_counter("rt.count", 7, Stability::kRuntime);
  reg.gauge("rt.gauge").set(1.25);
  reg.histogram("det.hist", {1.0, 2.0}, Stability::kDeterministic)
      .record(1.5);
  const ObsSnapshot snap = reg.snapshot("unit");

  const std::string full = to_json(snap);
  EXPECT_TRUE(json_lint(full));
  EXPECT_NE(full.find("\"rt.count\""), std::string::npos);
  EXPECT_NE(full.find("\"det.hist\""), std::string::npos);

  ExportOptions det_only;
  det_only.include_runtime = false;
  const std::string det = to_json(snap, det_only);
  EXPECT_TRUE(json_lint(det));
  EXPECT_NE(det.find("\"det.count\""), std::string::npos);
  EXPECT_EQ(det.find("\"rt.count\""), std::string::npos);
  EXPECT_EQ(det.find("\"rt.gauge\""), std::string::npos);
}

TEST(Export, CsvHasHeaderAndRows) {
  MetricRegistry reg;
  reg.set_counter("one", 1);
  reg.histogram("lat", {1.0, 2.0}).record(1.5);
  const std::string csv = to_csv(reg.snapshot("csv"));
  EXPECT_EQ(csv.find("name,kind,stability"), 0u);
  EXPECT_NE(csv.find("\none,counter,"), std::string::npos);
  EXPECT_NE(csv.find("\nlat,histogram,"), std::string::npos);
}

TEST(Export, JsonLintAcceptsAndRejects) {
  EXPECT_TRUE(json_lint("{}"));
  EXPECT_TRUE(json_lint("[1, 2.5, -3e4, \"s\", true, false, null]"));
  EXPECT_TRUE(json_lint("{\"a\": {\"b\": [{}]}, \"c\": \"\\\"quoted\\\"\"}"));
  EXPECT_FALSE(json_lint(""));
  EXPECT_FALSE(json_lint("{"));
  EXPECT_FALSE(json_lint("{\"a\": 1,}"));
  EXPECT_FALSE(json_lint("[1 2]"));
  EXPECT_FALSE(json_lint("{} trailing"));
  EXPECT_FALSE(json_lint("{\"a\": nul}"));
}

TEST(Export, EqualSnapshotsSerializeByteIdentically) {
  auto build = [] {
    MetricRegistry reg;
    reg.set_counter("x", 9);
    reg.gauge("g", Stability::kDeterministic).set(0.1 + 0.2);  // non-exact
    reg.histogram("h", {1.0, 2.0}, Stability::kDeterministic).record(1.0);
    return to_json(reg.snapshot("same"));
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace hal::obs
