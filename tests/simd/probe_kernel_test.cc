// Differential tests for the hal::simd probe kernels: every ISA variant
// the host can run (scalar always; AVX2/NEON when detected) must return
// byte-identical results to an independent naive reference, across batch
// shapes (empty, sub-vector, vector-aligned, vector+tail, large),
// unaligned base pointers, duplicate-heavy lanes, and no-match probes.
// This suite is the authority the engines and the router lean on when
// they call simd:: without re-checking results per call.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "cluster/keyspace.h"
#include "simd/probe.h"

namespace hal::simd {
namespace {

// --- Independent references (no branchless tricks: obviously correct) ----
std::size_t ref_count(const std::uint32_t* keys, std::size_t n,
                      std::uint32_t key) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == key) ++hits;
  }
  return hits;
}

std::vector<std::uint32_t> ref_collect(const std::uint32_t* keys,
                                       std::size_t n, std::uint32_t key) {
  std::vector<std::uint32_t> idx;
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == key) idx.push_back(static_cast<std::uint32_t>(i));
  }
  return idx;
}

std::size_t ref_count_since(const std::uint32_t* keys,
                            const std::uint64_t* arrivals, std::size_t n,
                            std::uint32_t key, std::uint64_t cutoff) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == key && arrivals[i] >= cutoff) ++hits;
  }
  return hits;
}

std::vector<std::uint32_t> ref_collect_since(const std::uint32_t* keys,
                                             const std::uint64_t* arrivals,
                                             std::size_t n, std::uint32_t key,
                                             std::uint64_t cutoff) {
  std::vector<std::uint32_t> idx;
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == key && arrivals[i] >= cutoff) {
      idx.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return idx;
}

// Lane shapes chosen to straddle the vector widths (8×u32 for AVX2, 4×u32
// for NEON): empty, scalar tail only, one vector exactly, vector ± 1,
// many vectors + tail, and large.
const std::size_t kSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17,
                              63, 64, 65, 1000, 4096};

struct Lane {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint64_t> arrivals;
};

Lane make_lane(std::size_t n, std::uint32_t key_domain, std::uint64_t seed) {
  Lane lane;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> key_dist(0, key_domain - 1);
  std::uniform_int_distribution<std::uint64_t> arr_dist(0, 2 * n + 2);
  lane.keys.reserve(n);
  lane.arrivals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lane.keys.push_back(key_dist(rng));
    lane.arrivals.push_back(arr_dist(rng));
  }
  return lane;
}

class ProbeKernelIsaTest : public testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    const Isa installed = force_isa(GetParam());
    if (installed != GetParam()) {
      reset_isa();
      GTEST_SKIP() << "ISA " << to_string(GetParam())
                   << " not runnable on this host (clamped to "
                   << to_string(installed) << ")";
    }
  }
  void TearDown() override { reset_isa(); }
};

TEST_P(ProbeKernelIsaTest, CountAndCollectMatchReference) {
  for (const std::size_t n : kSizes) {
    // key_domain 4 ⇒ duplicate-heavy at any interesting n.
    for (const std::uint32_t domain : {4u, 1024u}) {
      const Lane lane = make_lane(n, domain, 17 * n + domain);
      // Probe keys: present (dup-heavy), boundary, and absent (no match).
      for (const std::uint32_t key : {0u, domain - 1, domain + 7}) {
        ASSERT_EQ(probe_count(lane.keys.data(), n, key),
                  ref_count(lane.keys.data(), n, key))
            << "n=" << n << " domain=" << domain << " key=" << key;
        std::vector<std::uint32_t> idx(n + 1, 0xDEADBEEF);
        const std::size_t hits =
            probe_collect(lane.keys.data(), n, key, idx.data());
        const auto expect = ref_collect(lane.keys.data(), n, key);
        ASSERT_EQ(hits, expect.size());
        for (std::size_t j = 0; j < hits; ++j) {
          ASSERT_EQ(idx[j], expect[j]) << "n=" << n << " j=" << j;
        }
      }
    }
  }
}

TEST_P(ProbeKernelIsaTest, MaskedVariantsMatchReference) {
  for (const std::size_t n : kSizes) {
    const Lane lane = make_lane(n, 8, 29 * n + 5);
    // Cutoffs: everything windowed, nothing windowed, mid, and the
    // unsigned-compare stress value with the top bit set (the AVX2 path
    // compares u64 via the sign-flip trick; this catches a signed slip).
    const std::uint64_t cutoffs[] = {0, 2 * n + 3, n / 2,
                                     0x8000000000000001ULL};
    for (const std::uint64_t cutoff : cutoffs) {
      for (const std::uint32_t key : {0u, 7u, 99u}) {
        ASSERT_EQ(probe_count_since(lane.keys.data(), lane.arrivals.data(),
                                    n, key, cutoff),
                  ref_count_since(lane.keys.data(), lane.arrivals.data(), n,
                                  key, cutoff))
            << "n=" << n << " cutoff=" << cutoff << " key=" << key;
        std::vector<std::uint32_t> idx(n + 1, 0xDEADBEEF);
        const std::size_t hits =
            probe_collect_since(lane.keys.data(), lane.arrivals.data(), n,
                                key, cutoff, idx.data());
        const auto expect = ref_collect_since(
            lane.keys.data(), lane.arrivals.data(), n, key, cutoff);
        ASSERT_EQ(hits, expect.size());
        for (std::size_t j = 0; j < hits; ++j) {
          ASSERT_EQ(idx[j], expect[j]);
        }
      }
    }
  }
}

TEST_P(ProbeKernelIsaTest, ArrivalTopBitHandledUnsigned) {
  // Dedicated probe of the u64 ≥ comparison across the sign boundary.
  const std::uint32_t keys[] = {5, 5, 5, 5, 5, 5, 5, 5, 5};
  const std::uint64_t arrivals[] = {0,
                                    1,
                                    0x7FFFFFFFFFFFFFFFULL,
                                    0x8000000000000000ULL,
                                    0x8000000000000001ULL,
                                    0xFFFFFFFFFFFFFFFFULL,
                                    42,
                                    0x8000000000000000ULL,
                                    0};
  const std::uint64_t cutoffs[] = {0, 1, 0x7FFFFFFFFFFFFFFFULL,
                                   0x8000000000000000ULL,
                                   0xFFFFFFFFFFFFFFFFULL};
  for (const std::uint64_t cutoff : cutoffs) {
    EXPECT_EQ(probe_count_since(keys, arrivals, 9, 5, cutoff),
              ref_count_since(keys, arrivals, 9, 5, cutoff))
        << "cutoff=" << cutoff;
  }
}

TEST_P(ProbeKernelIsaTest, UnalignedBasePointers) {
  const std::size_t n = 257;
  const Lane lane = make_lane(n + 8, 4, 91);
  for (const std::size_t off : {std::size_t{1}, std::size_t{3},
                                std::size_t{5}, std::size_t{7}}) {
    const std::uint32_t* keys = lane.keys.data() + off;
    const std::uint64_t* arrivals = lane.arrivals.data() + off;
    for (const std::uint32_t key : {0u, 2u}) {
      ASSERT_EQ(probe_count(keys, n, key), ref_count(keys, n, key))
          << "offset " << off;
      ASSERT_EQ(probe_count_since(keys, arrivals, n, key, n / 3),
                ref_count_since(keys, arrivals, n, key, n / 3))
          << "offset " << off;
      std::vector<std::uint32_t> idx(n, 0);
      const std::size_t hits = probe_collect(keys, n, key, idx.data());
      const auto expect = ref_collect(keys, n, key);
      ASSERT_EQ(hits, expect.size()) << "offset " << off;
      for (std::size_t j = 0; j < hits; ++j) ASSERT_EQ(idx[j], expect[j]);
    }
  }
}

TEST_P(ProbeKernelIsaTest, HashMatchesKeyspaceMapLaneByLane) {
  // The router's batched fast path routes through this kernel; the
  // per-tuple path routes through KeyspaceMap::hash_key. Pin them equal.
  for (const std::size_t n : kSizes) {
    std::vector<std::uint32_t> keys;
    keys.reserve(n);
    std::mt19937 rng(static_cast<std::uint32_t>(n * 7 + 1));
    for (std::size_t i = 0; i < n; ++i) keys.push_back(rng());
    // Extremes worth pinning explicitly.
    if (n >= 3) {
      keys[0] = 0;
      keys[1] = 0xFFFFFFFFu;
      keys[2] = 2654435761u;
    }
    std::vector<std::uint32_t> out(n + 1, 0xDEADBEEF);
    hash_fib_hi16(keys.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], cluster::KeyspaceMap::hash_key(keys[i]))
          << "n=" << n << " i=" << i << " key=" << keys[i];
      ASSERT_EQ(out[i] % cluster::KeyspaceMap::kKeyslots,
                cluster::KeyspaceMap::keyslot_of(keys[i]));
    }
    ASSERT_EQ(out[n], 0xDEADBEEF) << "kernel wrote past n";
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, ProbeKernelIsaTest,
                         testing::Values(Isa::kScalar, Isa::kAvx2,
                                         Isa::kNeon),
                         [](const testing::TestParamInfo<Isa>& info) {
                           return std::string(to_string(info.param));
                         });

// --- CRC32C: every ISA's kernel against the byte-wise table --------------

// CRC32C bit by bit, straight from the reflected polynomial: independent
// of the table the scalar kernel looks up.
std::uint32_t ref_crc32c(const std::uint8_t* data, std::size_t n,
                         std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

class Crc32cIsaTest : public ProbeKernelIsaTest {
 protected:
  // The table's CRC (the scalar kernel), then back to the ISA under test.
  std::uint32_t table_crc(const std::uint8_t* data, std::size_t n,
                          std::uint32_t seed) {
    force_isa(Isa::kScalar);
    const std::uint32_t crc = crc32c(data, n, seed);
    force_isa(GetParam());
    return crc;
  }
};

// Lengths 0..300 straddle every tail shape of an 8-byte step; 2744 is one
// 80-result frame payload. Every start offset of an 8-byte word, seed 0
// and random seeds.
TEST_P(Crc32cIsaTest, MatchesTheTableAtEveryLengthOffsetAndSeed) {
  const std::vector<std::uint8_t> buf = random_bytes(2744 + 8, 91);
  std::vector<std::size_t> lengths(301);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(2744);
  std::mt19937_64 rng(5);
  for (const std::size_t n : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* data = buf.data() + offset;
      for (const std::uint32_t seed :
           {std::uint32_t{0}, static_cast<std::uint32_t>(rng())}) {
        const std::uint32_t got = crc32c(data, n, seed);
        ASSERT_EQ(got, ref_crc32c(data, n, seed))
            << "n=" << n << " offset=" << offset << " seed=" << seed;
        ASSERT_EQ(got, table_crc(data, n, seed))
            << "n=" << n << " offset=" << offset << " seed=" << seed;
      }
    }
  }
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c(digits, sizeof digits, 0), 0xE3069283u);
}

// crc32c(b, crc32c(a)) == crc32c(a ‖ b) at every split point.
TEST_P(Crc32cIsaTest, SplitPointsComposeThroughTheSeed) {
  const std::vector<std::uint8_t> buf = random_bytes(2744 + 8, 92);
  for (const std::size_t n : {std::size_t{300}, std::size_t{2744}}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* data = buf.data() + offset;
      const std::uint32_t whole = crc32c(data, n, 0);
      ASSERT_EQ(whole, table_crc(data, n, 0)) << "n=" << n;
      const std::size_t step = n <= 300 ? 1 : 7;
      for (std::size_t split = 0; split <= n; split += step) {
        const std::uint32_t head = crc32c(data, split, 0);
        ASSERT_EQ(crc32c(data + split, n - split, head), whole)
            << "n=" << n << " offset=" << offset << " split=" << split;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, Crc32cIsaTest,
                         testing::Values(Isa::kScalar, Isa::kAvx2,
                                         Isa::kNeon),
                         [](const testing::TestParamInfo<Isa>& info) {
                           return std::string(to_string(info.param));
                         });

// Forced scalar runs the table; AVX2 runs the CRC instruction; NEON keeps
// the table.
TEST(Crc32cDispatch, ForcedScalarRoutesToTheTable) {
  EXPECT_EQ(force_isa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(crc32c_isa(), Isa::kScalar);
  if (force_isa(Isa::kAvx2) == Isa::kAvx2) {
    EXPECT_EQ(crc32c_isa(), Isa::kAvx2);
  }
  if (force_isa(Isa::kNeon) == Isa::kNeon) {
    EXPECT_EQ(crc32c_isa(), Isa::kScalar);
  }
  reset_isa();
}

// --- Cross-ISA equivalence: wide vs forced-scalar on identical input ----
TEST(ProbeKernelDifferential, WideIsaMatchesScalarByteForByte) {
  const Isa wide = detected_isa();
  if (wide == Isa::kScalar) {
    GTEST_SKIP() << "host detects scalar only; nothing to differentiate";
  }
  const Lane lane = make_lane(4096 + 13, 16, 1234);
  const std::size_t n = lane.keys.size();

  struct Shot {
    std::size_t count, count_since, collected, collected_since;
    std::vector<std::uint32_t> idx, idx_since, hashes;
  };
  const auto shoot = [&](Isa isa) {
    EXPECT_EQ(force_isa(isa), isa);
    Shot s;
    s.count = probe_count(lane.keys.data(), n, 3);
    s.count_since = probe_count_since(lane.keys.data(),
                                      lane.arrivals.data(), n, 3, n / 2);
    s.idx.assign(n, 0);
    s.collected = probe_collect(lane.keys.data(), n, 3, s.idx.data());
    s.idx.resize(s.collected);
    s.idx_since.assign(n, 0);
    s.collected_since =
        probe_collect_since(lane.keys.data(), lane.arrivals.data(), n, 3,
                            n / 2, s.idx_since.data());
    s.idx_since.resize(s.collected_since);
    s.hashes.assign(n, 0);
    hash_fib_hi16(lane.keys.data(), n, s.hashes.data());
    reset_isa();
    return s;
  };

  const Shot scalar = shoot(Isa::kScalar);
  const Shot simd = shoot(wide);
  EXPECT_EQ(simd.count, scalar.count);
  EXPECT_EQ(simd.count_since, scalar.count_since);
  EXPECT_EQ(simd.collected, scalar.collected);
  EXPECT_EQ(simd.idx, scalar.idx);
  EXPECT_EQ(simd.collected_since, scalar.collected_since);
  EXPECT_EQ(simd.idx_since, scalar.idx_since);
  EXPECT_EQ(simd.hashes, scalar.hashes);
}

// --- Dispatch state machine ---------------------------------------------
TEST(ProbeKernelDispatch, ForceScalarAlwaysSticksAndResets) {
  // The reset default honours HAL_SIMD_ISA (the CI scalar-forced leg
  // sets it), so capture it rather than assuming detected_isa().
  reset_isa();
  const Isa resolved_default = active_isa();
  EXPECT_EQ(force_isa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  // Kernels run (and agree with the reference) under the forced ISA.
  const std::uint32_t keys[] = {1, 2, 1, 3, 1};
  EXPECT_EQ(probe_count(keys, 5, 1), 3u);
  reset_isa();
  EXPECT_EQ(active_isa(), resolved_default);
}

TEST(ProbeKernelDispatch, ForcingUnrunnableIsaClampsToRunnable) {
  // At most one of AVX2/NEON is runnable on any host; the other must
  // clamp. Whatever comes back must itself be runnable (idempotent).
  for (const Isa want : {Isa::kAvx2, Isa::kNeon}) {
    const Isa got = force_isa(want);
    EXPECT_EQ(force_isa(got), got) << "clamp result not stable";
  }
  reset_isa();
}

TEST(ProbeKernelDispatch, DetectionConsistentWithBuildKnob) {
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_NE(detected_isa(), Isa::kNeon) << "NEON detected on x86";
#endif
#if defined(__aarch64__)
  EXPECT_NE(detected_isa(), Isa::kAvx2) << "AVX2 detected on aarch64";
#endif
}

TEST(ProbeKernelDispatch, CycleCounterMonotonicNonTrivial) {
  const std::uint64_t a = cycles_now();
  // Some forward progress between reads.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + static_cast<unsigned>(i);
  const std::uint64_t b = cycles_now();
  EXPECT_GE(b, a);
  EXPECT_NE(cycle_counter_name()[0], '\0');
}

}  // namespace
}  // namespace hal::simd
