// hal::guard targeted suite: shed-policy units (determinism of the
// per-key sample, watermark hysteresis, exact shed accounting), the
// slow-shard detector's suspicion dynamics, and the GuardedEngine
// decorator's differential contract — guarded output must equal the
// reference join of (input − shed log) on the deterministic software
// backends, whatever timing produced the shed set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/stream_join.h"
#include "guard/detector.h"
#include "guard/guard.h"
#include "guard/guarded_engine.h"
#include "obs/metrics.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::guard {
namespace {

using core::Backend;
using core::EngineConfig;
using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed,
                            std::uint32_t key_domain = 32) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

// --- Shed-policy units ---------------------------------------------------

TEST(KeySheds, DeterministicSeedSensitiveAndBounded) {
  // Same (seed, permille) → same decision, always.
  for (std::uint32_t key = 0; key < 256; ++key) {
    EXPECT_EQ(key_sheds(key, 7, 500), key_sheds(key, 7, 500));
  }
  // Degenerate permilles are absolute.
  for (std::uint32_t key = 0; key < 256; ++key) {
    EXPECT_FALSE(key_sheds(key, 7, 0));
    EXPECT_TRUE(key_sheds(key, 7, 1000));
  }
  // Different seeds shed different key sets (with overwhelming
  // probability over 4096 keys).
  std::uint32_t differing = 0;
  for (std::uint32_t key = 0; key < 4096; ++key) {
    if (key_sheds(key, 1, 500) != key_sheds(key, 2, 500)) ++differing;
  }
  EXPECT_GT(differing, 0u);
  // The shed fraction tracks the permille (±10 points over 4096 keys).
  std::uint32_t shed = 0;
  for (std::uint32_t key = 0; key < 4096; ++key) {
    if (key_sheds(key, 42, 300)) ++shed;
  }
  const double fraction = static_cast<double>(shed) / 4096.0;
  EXPECT_NEAR(fraction, 0.3, 0.1);
}

TEST(AdmissionGuard, WatermarkHysteresisLatchesAndReleases) {
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.policy = ShedPolicy::kTailDrop;
  cfg.high_watermark_us = 1000.0;
  cfg.low_watermark_us = 500.0;
  AdmissionGuard guard(cfg);

  EXPECT_FALSE(guard.overloaded());
  guard.observe_delay_us(999.0);  // below high: stays open
  EXPECT_FALSE(guard.overloaded());
  guard.observe_delay_us(1000.0);  // crosses high: latches
  EXPECT_TRUE(guard.overloaded());
  guard.observe_delay_us(700.0);  // inside the hysteresis band: held
  EXPECT_TRUE(guard.overloaded());
  guard.observe_delay_us(500.0);  // at/below low: releases
  EXPECT_FALSE(guard.overloaded());
  EXPECT_EQ(guard.stats().latch_transitions, 1u);
  EXPECT_EQ(guard.stats().observations, 4u);
  EXPECT_EQ(guard.stats().overload_observations, 2u);
}

TEST(AdmissionGuard, WatermarksDefaultFromSlo) {
  GuardConfig cfg;
  cfg.slo_delay_us = 4000.0;
  EXPECT_DOUBLE_EQ(cfg.high_us(), 4000.0);
  EXPECT_DOUBLE_EQ(cfg.low_us(), 2000.0);
  cfg.high_watermark_us = 6000.0;
  cfg.low_watermark_us = 1000.0;
  EXPECT_DOUBLE_EQ(cfg.high_us(), 6000.0);
  EXPECT_DOUBLE_EQ(cfg.low_us(), 1000.0);
}

TEST(AdmissionGuard, TailDropShedsEverythingWhileLatched) {
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.policy = ShedPolicy::kTailDrop;
  cfg.force_overload = true;
  AdmissionGuard guard(cfg);

  const auto tuples = workload(100, 3);
  std::vector<Tuple> admitted;
  guard.filter(tuples, admitted);
  EXPECT_TRUE(admitted.empty());
  EXPECT_EQ(guard.log().size(), tuples.size());
  EXPECT_EQ(guard.stats().shed, tuples.size());
  EXPECT_EQ(guard.stats().offered(), tuples.size());
  // The log preserves identity and shed order.
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(guard.log().records()[i].seq, tuples[i].seq);
    EXPECT_EQ(guard.log().records()[i].key, tuples[i].key);
    EXPECT_EQ(guard.log().records()[i].origin, tuples[i].origin);
  }
}

TEST(AdmissionGuard, KeySampleShedsExactlyThePredictedKeySet) {
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.policy = ShedPolicy::kKeySample;
  cfg.seed = 99;
  cfg.drop_permille = 400;
  cfg.force_overload = true;
  AdmissionGuard guard(cfg);

  const auto tuples = workload(500, 5);
  std::vector<Tuple> admitted;
  guard.filter(tuples, admitted);
  EXPECT_GT(guard.stats().shed, 0u);
  EXPECT_GT(guard.stats().admitted, 0u);
  for (const Tuple& t : admitted) {
    EXPECT_FALSE(key_sheds(t.key, cfg.seed, cfg.drop_permille));
  }
  for (const ShedRecord& r : guard.log().records()) {
    EXPECT_TRUE(key_sheds(r.key, cfg.seed, cfg.drop_permille));
  }
  // Both streams of a shed key vanish together: no admitted tuple shares
  // a key with a shed one.
  for (const Tuple& t : admitted) {
    for (const ShedRecord& r : guard.log().records()) {
      EXPECT_NE(t.key, r.key);
    }
  }
}

TEST(AdmissionGuard, PolicyOffObservesButNeverSheds) {
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.policy = ShedPolicy::kOff;
  cfg.force_overload = true;
  AdmissionGuard guard(cfg);

  const auto tuples = workload(64, 9);
  std::vector<Tuple> admitted;
  guard.filter(tuples, admitted);
  EXPECT_EQ(admitted.size(), tuples.size());
  EXPECT_TRUE(guard.log().empty());
  EXPECT_TRUE(guard.overloaded());  // the latch still reports
}

TEST(AdmissionGuard, DisabledGuardIsInert) {
  GuardConfig cfg;
  cfg.enabled = false;
  cfg.force_overload = true;  // must be ignored while disabled
  cfg.policy = ShedPolicy::kTailDrop;
  AdmissionGuard guard(cfg);

  guard.observe_delay_us(1e9);
  EXPECT_FALSE(guard.overloaded());
  const auto tuples = workload(64, 11);
  std::vector<Tuple> admitted;
  guard.filter(tuples, admitted);
  EXPECT_EQ(admitted.size(), tuples.size());
  EXPECT_TRUE(guard.log().empty());
  EXPECT_EQ(guard.stats().observations, 0u);
}

TEST(ShedLog, MinusShedRemovesExactlyTheLoggedSeqs) {
  const auto tuples = workload(200, 13);
  ShedLog log;
  std::vector<Tuple> expected;
  for (const Tuple& t : tuples) {
    if (t.seq % 3 == 0) {
      log.append(t);
    } else {
      expected.push_back(t);
    }
  }
  EXPECT_EQ(minus_shed(tuples, log), expected);
  // An empty log is the identity.
  EXPECT_EQ(minus_shed(tuples, ShedLog{}), tuples);
}

TEST(ShedPolicy, ToStringCoversEveryPolicy) {
  EXPECT_STREQ(to_string(ShedPolicy::kOff), "off");
  EXPECT_STREQ(to_string(ShedPolicy::kTailDrop), "tail-drop");
  EXPECT_STREQ(to_string(ShedPolicy::kKeySample), "key-sample");
}

TEST(AdmissionGuard, ServiceRateEwmaConvergesAndFeedsEstimate) {
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.service_alpha = 0.5;
  AdmissionGuard guard(cfg);

  EXPECT_DOUBLE_EQ(guard.estimate_delay_us(1000), 0.0);  // no samples yet
  guard.update_service_rate(1000.0, 100);  // 10 µs/tuple
  EXPECT_DOUBLE_EQ(guard.ewma_us_per_tuple(), 10.0);
  guard.update_service_rate(2000.0, 100);  // 20 µs/tuple sample
  EXPECT_DOUBLE_EQ(guard.ewma_us_per_tuple(), 15.0);
  EXPECT_DOUBLE_EQ(guard.estimate_delay_us(10), 150.0);
  guard.update_service_rate(1e9, 0);  // zero-tuple samples are ignored
  EXPECT_DOUBLE_EQ(guard.ewma_us_per_tuple(), 15.0);
}

// --- Slow-shard detector -------------------------------------------------

DetectorConfig fast_detector() {
  DetectorConfig d;
  d.alpha = 1.0;  // no smoothing: tests control the exact evidence
  d.slow_ratio = 3.0;
  d.suspicion_add = 1.0;
  d.suspicion_decay = 0.5;
  d.suspicion_threshold = 3.0;
  d.min_epochs = 2;
  return d;
}

TEST(SlowShardDetector, SustainedSlowShardIsSuspectedPeersAreNot) {
  SlowShardDetector det(fast_detector());
  bool newly = false;
  std::uint32_t epochs_to_suspect = 0;
  for (std::uint32_t epoch = 1; epoch <= 10; ++epoch) {
    det.observe(0, 1000.0, 100);   // 10 µs/tuple
    det.observe(1, 1100.0, 100);   // 11 µs/tuple
    det.observe(2, 40000.0, 100);  // 400 µs/tuple: 10×+ the median
    newly = det.end_epoch();
    if (newly) {
      epochs_to_suspect = epoch;
      break;
    }
  }
  ASSERT_TRUE(newly);
  // Warmup (min_epochs = 2) plus threshold/add slow epochs.
  EXPECT_LE(epochs_to_suspect, 5u);
  const ShardHealth* h = det.find(2);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->suspected);
  EXPECT_TRUE(h->slow_epoch);
  EXPECT_FALSE(det.find(0)->suspected);
  EXPECT_FALSE(det.find(1)->suspected);
  const auto suspects = det.suspects();
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 2u);
}

TEST(SlowShardDetector, SingleStutterDecaysAway) {
  SlowShardDetector det(fast_detector());
  // Warmup: everyone healthy.
  for (int epoch = 0; epoch < 3; ++epoch) {
    det.observe(0, 1000.0, 100);
    det.observe(1, 1000.0, 100);
    det.observe(2, 1000.0, 100);
    det.end_epoch();
  }
  // One GC-like stutter on shard 1.
  det.observe(0, 1000.0, 100);
  det.observe(1, 50000.0, 100);
  det.observe(2, 1000.0, 100);
  EXPECT_FALSE(det.end_epoch());  // one epoch cannot cross threshold 3
  // Healthy again: suspicion decays back to zero.
  for (int epoch = 0; epoch < 6; ++epoch) {
    det.observe(0, 1000.0, 100);
    det.observe(1, 1000.0, 100);
    det.observe(2, 1000.0, 100);
    EXPECT_FALSE(det.end_epoch());
  }
  const ShardHealth* h = det.find(1);
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->suspected);
  EXPECT_DOUBLE_EQ(h->suspicion, 0.0);
}

TEST(SlowShardDetector, LoneShardIsNeverJudged) {
  SlowShardDetector det(fast_detector());
  for (int epoch = 0; epoch < 10; ++epoch) {
    det.observe(0, 1e6, 1);  // absurdly slow, but no peers
    EXPECT_FALSE(det.end_epoch());
  }
  EXPECT_TRUE(det.suspects().empty());
}

TEST(SlowShardDetector, ForgetRemovesTheShardFromThePeerSet) {
  SlowShardDetector det(fast_detector());
  for (int epoch = 0; epoch < 6; ++epoch) {
    det.observe(0, 1000.0, 100);
    det.observe(1, 1000.0, 100);
    det.observe(2, 90000.0, 100);
    det.end_epoch();
  }
  ASSERT_NE(det.find(2), nullptr);
  det.forget(2);
  EXPECT_EQ(det.find(2), nullptr);
  EXPECT_TRUE(det.suspects().empty());
  EXPECT_EQ(det.health().size(), 2u);
}

TEST(SlowShardDetector, IdleShardContributesNoEvidence) {
  SlowShardDetector det(fast_detector());
  det.observe(0, 1000.0, 0);  // zero tuples: ignored
  det.observe(1, 1000.0, 100);
  det.end_epoch();
  EXPECT_EQ(det.find(0), nullptr);
  ASSERT_NE(det.find(1), nullptr);
}

// --- GuardedEngine differential ------------------------------------------

EngineConfig sw_config(Backend backend) {
  EngineConfig cfg;
  cfg.backend = backend;
  cfg.num_cores = 2;
  cfg.window_size = 64;
  cfg.spec = JoinSpec::equi_on_key();
  return cfg;
}

TEST(GuardedEngine, DisabledGuardNeverWrapsTheEngine) {
  EngineConfig cfg = sw_config(Backend::kSwSplitJoin);
  cfg.guard.enabled = false;
  const auto engine = core::make_engine(cfg);
  EXPECT_EQ(engine->admission_guard(), nullptr);
}

TEST(GuardedEngine, OutputIsOracleMinusShedOnDeterministicBackends) {
  // kSwHandshake is excluded: its result multiset races by design (the
  // chain's window semantics depend on thread interleaving), so only the
  // accounting identity — not the result set — is assertable there.
  for (const Backend backend : {Backend::kSwSplitJoin, Backend::kSwBatch}) {
    EngineConfig cfg = sw_config(backend);
    cfg.guard.enabled = true;
    cfg.guard.policy = ShedPolicy::kKeySample;
    cfg.guard.seed = 17;
    cfg.guard.drop_permille = 350;
    cfg.guard.force_overload = true;  // makes the shed *set* reproducible
    const auto engine = core::make_engine(cfg);
    ASSERT_NE(engine->admission_guard(), nullptr);

    const auto tuples = workload(800, 23);
    engine->process(tuples);
    const auto guarded = engine->take_results();

    const AdmissionGuard& guard = *engine->admission_guard();
    EXPECT_GT(guard.stats().shed, 0u);
    EXPECT_EQ(guard.stats().offered(), tuples.size());
    ReferenceJoin oracle(cfg.window_size, cfg.spec);
    const auto expected =
        oracle.process_all(minus_shed(tuples, guard.log()));
    EXPECT_EQ(normalize(guarded), normalize(expected))
        << "backend=" << to_string(backend);
  }
}

TEST(GuardedEngine, HandshakeShedAccountingBalances) {
  EngineConfig cfg = sw_config(Backend::kSwHandshake);
  cfg.guard.enabled = true;
  cfg.guard.policy = ShedPolicy::kKeySample;
  cfg.guard.seed = 4;
  cfg.guard.drop_permille = 500;
  cfg.guard.force_overload = true;
  const auto engine = core::make_engine(cfg);
  ASSERT_NE(engine->admission_guard(), nullptr);

  const auto tuples = workload(400, 31);
  engine->process(tuples);
  const AdmissionGuard& guard = *engine->admission_guard();
  EXPECT_EQ(guard.stats().offered(), tuples.size());
  EXPECT_EQ(guard.stats().shed, guard.log().size());
  EXPECT_EQ(minus_shed(tuples, guard.log()).size(), guard.stats().admitted);
}

TEST(GuardedEngine, LatchedShedsRecoverWhenTheBacklogDrains) {
  // Drive the latch from the real delay estimate: a huge first batch
  // inflates the estimated queue delay past the watermark, a small later
  // batch falls below the low watermark and re-opens admission.
  EngineConfig cfg = sw_config(Backend::kSwBatch);
  cfg.guard.enabled = true;
  cfg.guard.policy = ShedPolicy::kTailDrop;
  // Any measurable service rate makes 4096 pending tuples exceed 1 µs.
  cfg.guard.high_watermark_us = 1.0;
  cfg.guard.low_watermark_us = 0.5;
  const auto engine = core::make_engine(cfg);
  const AdmissionGuard& guard = *engine->admission_guard();

  // First batch: no service-rate estimate yet, delay estimate 0 → all
  // admitted; the RunReport seeds the EWMA.
  engine->process(workload(512, 41));
  EXPECT_EQ(guard.stats().shed, 0u);
  ASSERT_GT(guard.ewma_us_per_tuple(), 0.0);

  // Second big batch: estimate = 4096 × ewma ≫ 1 µs → latched, all shed.
  const auto big = workload(4096, 43);
  engine->process(big);
  EXPECT_EQ(guard.stats().shed, big.size());
  EXPECT_TRUE(guard.overloaded());
  EXPECT_EQ(guard.stats().latch_transitions, 1u);
  // Empty batch: estimate 0 ≤ low watermark → the latch releases and
  // admission reopens. (A data batch would re-estimate from its own size,
  // so the drain is what an idle ingress tick looks like.)
  engine->process({});
  EXPECT_FALSE(guard.overloaded());
  EXPECT_EQ(guard.stats().shed, big.size());
  EXPECT_EQ(guard.stats().latch_transitions, 1u);  // off→on edges only
}

TEST(GuardedEngine, MetricsSurfaceUnderTheGuardPrefix) {
  EngineConfig cfg = sw_config(Backend::kSwBatch);
  cfg.guard.enabled = true;
  cfg.guard.force_overload = true;
  const auto engine = core::make_engine(cfg);
  engine->process(workload(128, 53));

  obs::MetricRegistry registry;
  engine->collect_metrics(registry, "engine.");
  const auto snap = registry.snapshot("guarded");
  const obs::MetricSnapshot* shed = snap.find("engine.guard.shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->counter_value, 128u);
  EXPECT_EQ(shed->stability, obs::Stability::kRuntime);
  EXPECT_NE(snap.find("engine.guard.admitted"), nullptr);
}

}  // namespace
}  // namespace hal::guard
