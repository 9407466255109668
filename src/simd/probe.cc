#include "simd/probe.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define HAL_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define HAL_SIMD_HAVE_AVX2 0
#endif

#if defined(__ARM_NEON)
#define HAL_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#else
#define HAL_SIMD_HAVE_NEON 0
#endif

#if defined(__x86_64__)
#include <x86intrin.h>
#endif
#if !defined(__x86_64__) && !defined(__aarch64__)
#include <chrono>
#endif

namespace hal::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernels — the reference every other ISA must match byte-for-byte.
// These are the PR-4 branchless loops lifted verbatim out of SoaWindow; the
// differential suite treats them as ground truth, so keep them boring.
// ---------------------------------------------------------------------------

std::size_t scalar_probe_count(const std::uint32_t* keys, std::size_t n,
                               std::uint32_t key) noexcept {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) hits += (keys[i] == key);
  return hits;
}

std::size_t scalar_probe_collect(const std::uint32_t* keys, std::size_t n,
                                 std::uint32_t key,
                                 std::uint32_t* idx_out) noexcept {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    idx_out[hits] = static_cast<std::uint32_t>(i);
    hits += (keys[i] == key);
  }
  return hits;
}

std::size_t scalar_probe_count_since(const std::uint32_t* keys,
                                     const std::uint64_t* arrivals,
                                     std::size_t n, std::uint32_t key,
                                     std::uint64_t cutoff) noexcept {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    hits += static_cast<std::size_t>(keys[i] == key) &
            static_cast<std::size_t>(arrivals[i] >= cutoff);
  }
  return hits;
}

std::size_t scalar_probe_collect_since(const std::uint32_t* keys,
                                       const std::uint64_t* arrivals,
                                       std::size_t n, std::uint32_t key,
                                       std::uint64_t cutoff,
                                       std::uint32_t* idx_out) noexcept {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    idx_out[hits] = static_cast<std::uint32_t>(i);
    hits += static_cast<std::size_t>(keys[i] == key) &
            static_cast<std::size_t>(arrivals[i] >= cutoff);
  }
  return hits;
}

void scalar_hash_fib_hi16(const std::uint32_t* keys, std::size_t n,
                          std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(keys[i]) * 2654435761ULL) >> 16);
  }
}

// Byte-wise CRC32C: the reference every hardware CRC kernel must match.
constexpr std::uint32_t kCrcPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrcPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

std::uint32_t scalar_crc32c(const std::uint8_t* data, std::size_t n,
                            std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrcTable[(crc ^ data[i]) & 0xFFu];
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// AVX2 kernels. Compiled with a per-function target attribute so the rest of
// the TU (and the build) stays baseline-ISA; only ever called after
// __builtin_cpu_supports("avx2") said yes.
// ---------------------------------------------------------------------------

#if HAL_SIMD_HAVE_AVX2

__attribute__((target("avx2"))) std::size_t avx2_probe_count(
    const std::uint32_t* keys, std::size_t n, std::uint32_t key) noexcept {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(key));
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    // cmpeq lanes are 0 or -1; subtracting accumulates +1 per hit.
    acc = _mm256_sub_epi32(acc, _mm256_cmpeq_epi32(lane, needle));
  }
  alignas(32) std::uint32_t partial[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(partial), acc);
  std::size_t hits = 0;
  for (int l = 0; l < 8; ++l) hits += partial[l];
  for (; i < n; ++i) hits += (keys[i] == key);
  return hits;
}

__attribute__((target("avx2"))) std::size_t avx2_probe_collect(
    const std::uint32_t* keys, std::size_t n, std::uint32_t key,
    std::uint32_t* idx_out) noexcept {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(key));
  std::size_t hits = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(lane, needle))));
    while (mask != 0) {
      idx_out[hits++] = static_cast<std::uint32_t>(
          i + static_cast<unsigned>(__builtin_ctz(mask)));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    idx_out[hits] = static_cast<std::uint32_t>(i);
    hits += (keys[i] == key);
  }
  return hits;
}

// Unsigned 64-bit >= via the sign-flip trick: x >= y  ⇔
// (x ^ MSB) >=signed (y ^ MSB). Keeps the kernel correct for arbitrary
// arrival counters, not just ones below 2^63.
__attribute__((target("avx2"))) inline unsigned avx2_arrival_ge_mask(
    const std::uint64_t* arrivals, __m256i cutoff_flipped) noexcept {
  const __m256i flip = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i lo = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arrivals)), flip);
  const __m256i hi = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arrivals + 4)),
      flip);
  // lt = arrival < cutoff (signed, post-flip); valid lanes are the rest.
  const unsigned lt_lo = static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(cutoff_flipped, lo))));
  const unsigned lt_hi = static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(cutoff_flipped, hi))));
  return 0xFFu & ~(lt_lo | (lt_hi << 4));
}

__attribute__((target("avx2"))) std::size_t avx2_probe_count_since(
    const std::uint32_t* keys, const std::uint64_t* arrivals, std::size_t n,
    std::uint32_t key, std::uint64_t cutoff) noexcept {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(key));
  const __m256i cutoff_flipped = _mm256_set1_epi64x(
      static_cast<long long>(cutoff ^ 0x8000000000000000ULL));
  std::size_t hits = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const unsigned key_mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(lane, needle))));
    const unsigned mask =
        key_mask & avx2_arrival_ge_mask(arrivals + i, cutoff_flipped);
    hits += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) {
    hits += static_cast<std::size_t>(keys[i] == key) &
            static_cast<std::size_t>(arrivals[i] >= cutoff);
  }
  return hits;
}

__attribute__((target("avx2"))) std::size_t avx2_probe_collect_since(
    const std::uint32_t* keys, const std::uint64_t* arrivals, std::size_t n,
    std::uint32_t key, std::uint64_t cutoff,
    std::uint32_t* idx_out) noexcept {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(key));
  const __m256i cutoff_flipped = _mm256_set1_epi64x(
      static_cast<long long>(cutoff ^ 0x8000000000000000ULL));
  std::size_t hits = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const unsigned key_mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(lane, needle))));
    unsigned mask =
        key_mask & avx2_arrival_ge_mask(arrivals + i, cutoff_flipped);
    while (mask != 0) {
      idx_out[hits++] = static_cast<std::uint32_t>(
          i + static_cast<unsigned>(__builtin_ctz(mask)));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    idx_out[hits] = static_cast<std::uint32_t>(i);
    hits += static_cast<std::size_t>(keys[i] == key) &
            static_cast<std::size_t>(arrivals[i] >= cutoff);
  }
  return hits;
}

__attribute__((target("avx2"))) void avx2_hash_fib_hi16(
    const std::uint32_t* keys, std::size_t n, std::uint32_t* out) noexcept {
  const __m256i mult = _mm256_set1_epi64x(2654435761LL);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    // vpmuludq multiplies the even 32-bit lanes into 64-bit products;
    // shift the odd lanes down to cover them with a second multiply.
    const __m256i prod_even = _mm256_mul_epu32(lane, mult);
    const __m256i prod_odd =
        _mm256_mul_epu32(_mm256_srli_epi64(lane, 32), mult);
    const __m256i even = _mm256_srli_epi64(prod_even, 16);
    const __m256i odd =
        _mm256_slli_epi64(_mm256_srli_epi64(prod_odd, 16), 32);
    // Even results sit in the low 32 bits of each 64-bit lane of `even`,
    // odd results in the high 32 bits of `odd`; interleave them back.
    const __m256i merged = _mm256_blend_epi32(even, odd, 0xAA);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), merged);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(keys[i]) * 2654435761ULL) >> 16);
  }
}

// CRC32C on the SSE4.2 crc32 instruction, which implements exactly this
// polynomial with the table's bit order: eight bytes per step, then the
// tail. Dispatched under kAvx2 — every AVX2 CPU has SSE4.2.
__attribute__((target("sse4.2"))) std::uint32_t sse42_crc32c(
    const std::uint8_t* data, std::size_t n, std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
#if defined(__x86_64__)
  std::uint64_t crc64 = crc;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, sizeof word);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<std::uint32_t>(crc64);
#endif
  for (; n >= 4; data += 4, n -= 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, data, sizeof word);
    crc = _mm_crc32_u32(crc, word);
  }
  for (; n > 0; ++data, --n) crc = _mm_crc32_u8(crc, *data);
  return ~crc;
}

#endif  // HAL_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// NEON kernels (aarch64). Same contracts as above; compile-guarded so x86
// builds never see them.
// ---------------------------------------------------------------------------

#if HAL_SIMD_HAVE_NEON

std::size_t neon_probe_count(const std::uint32_t* keys, std::size_t n,
                             std::uint32_t key) noexcept {
  const uint32x4_t needle = vdupq_n_u32(key);
  uint32x4_t acc = vdupq_n_u32(0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // vceqq lanes are all-ones on match; accumulate via subtract.
    acc = vsubq_u32(acc, vceqq_u32(vld1q_u32(keys + i), needle));
  }
  std::size_t hits = vaddvq_u32(acc);
  for (; i < n; ++i) hits += (keys[i] == key);
  return hits;
}

// Narrow a 4-lane u32 compare result into a 4-bit mask (bit l set iff
// lane l matched).
inline unsigned neon_mask4(uint32x4_t eq) noexcept {
  const uint32x4_t bits = {1u, 2u, 4u, 8u};
  return vaddvq_u32(vandq_u32(eq, bits));
}

std::size_t neon_probe_collect(const std::uint32_t* keys, std::size_t n,
                               std::uint32_t key,
                               std::uint32_t* idx_out) noexcept {
  const uint32x4_t needle = vdupq_n_u32(key);
  std::size_t hits = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    unsigned mask = neon_mask4(vceqq_u32(vld1q_u32(keys + i), needle));
    while (mask != 0) {
      idx_out[hits++] = static_cast<std::uint32_t>(
          i + static_cast<unsigned>(__builtin_ctz(mask)));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    idx_out[hits] = static_cast<std::uint32_t>(i);
    hits += (keys[i] == key);
  }
  return hits;
}

// 4-bit validity mask for arrivals[0..4) >= cutoff (unsigned 64-bit).
inline unsigned neon_arrival_ge_mask4(const std::uint64_t* arrivals,
                                      uint64x2_t cutoff) noexcept {
  const uint64x2_t ge_lo = vcgeq_u64(vld1q_u64(arrivals), cutoff);
  const uint64x2_t ge_hi = vcgeq_u64(vld1q_u64(arrivals + 2), cutoff);
  return (vgetq_lane_u64(ge_lo, 0) & 1u) | ((vgetq_lane_u64(ge_lo, 1) & 1u) << 1) |
         ((vgetq_lane_u64(ge_hi, 0) & 1u) << 2) |
         ((vgetq_lane_u64(ge_hi, 1) & 1u) << 3);
}

std::size_t neon_probe_count_since(const std::uint32_t* keys,
                                   const std::uint64_t* arrivals,
                                   std::size_t n, std::uint32_t key,
                                   std::uint64_t cutoff) noexcept {
  const uint32x4_t needle = vdupq_n_u32(key);
  const uint64x2_t cut = vdupq_n_u64(cutoff);
  std::size_t hits = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const unsigned mask =
        neon_mask4(vceqq_u32(vld1q_u32(keys + i), needle)) &
        neon_arrival_ge_mask4(arrivals + i, cut);
    hits += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) {
    hits += static_cast<std::size_t>(keys[i] == key) &
            static_cast<std::size_t>(arrivals[i] >= cutoff);
  }
  return hits;
}

std::size_t neon_probe_collect_since(const std::uint32_t* keys,
                                     const std::uint64_t* arrivals,
                                     std::size_t n, std::uint32_t key,
                                     std::uint64_t cutoff,
                                     std::uint32_t* idx_out) noexcept {
  const uint32x4_t needle = vdupq_n_u32(key);
  const uint64x2_t cut = vdupq_n_u64(cutoff);
  std::size_t hits = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    unsigned mask = neon_mask4(vceqq_u32(vld1q_u32(keys + i), needle)) &
                    neon_arrival_ge_mask4(arrivals + i, cut);
    while (mask != 0) {
      idx_out[hits++] = static_cast<std::uint32_t>(
          i + static_cast<unsigned>(__builtin_ctz(mask)));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    idx_out[hits] = static_cast<std::uint32_t>(i);
    hits += static_cast<std::size_t>(keys[i] == key) &
            static_cast<std::size_t>(arrivals[i] >= cutoff);
  }
  return hits;
}

void neon_hash_fib_hi16(const std::uint32_t* keys, std::size_t n,
                        std::uint32_t* out) noexcept {
  const std::uint32_t mult = 2654435761u;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t lane = vld1q_u32(keys + i);
    // Widening multiply: two u64x2 products, then (prod >> 16) narrowed
    // back to u32 via shift-right-narrow.
    const uint64x2_t lo = vmull_n_u32(vget_low_u32(lane), mult);
    const uint64x2_t hi = vmull_n_u32(vget_high_u32(lane), mult);
    const uint32x2_t lo32 = vmovn_u64(vshrq_n_u64(lo, 16));
    const uint32x2_t hi32 = vmovn_u64(vshrq_n_u64(hi, 16));
    vst1q_u32(out + i, vcombine_u32(lo32, hi32));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(keys[i]) * 2654435761ULL) >> 16);
  }
}

#endif  // HAL_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

Isa platform_best_isa() noexcept {
#if HAL_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
#if HAL_SIMD_HAVE_NEON
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

// True iff this build + CPU can actually execute kernels for `isa`.
bool isa_runnable(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if HAL_SIMD_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
      return HAL_SIMD_HAVE_NEON != 0;
  }
  return false;
}

Isa env_or_detected_isa() noexcept {
  const char* env = std::getenv("HAL_SIMD_ISA");
  if (env != nullptr) {
    Isa want = Isa::kScalar;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      want = Isa::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      want = Isa::kAvx2;
    } else if (std::strcmp(env, "neon") == 0) {
      want = Isa::kNeon;
    } else {
      known = false;
    }
    if (known && isa_runnable(want)) return want;
    // Unknown or un-runnable request: fall through to detection rather
    // than crash on an illegal instruction.
  }
  return platform_best_isa();
}

constexpr std::uint8_t kIsaUnresolved = 0xFF;

std::atomic<std::uint8_t> g_active{kIsaUnresolved};

Isa resolve_active() noexcept {
  std::uint8_t cur = g_active.load(std::memory_order_acquire);
  if (cur != kIsaUnresolved) return static_cast<Isa>(cur);
  const Isa resolved = env_or_detected_isa();
  std::uint8_t expected = kIsaUnresolved;
  // A racing first-use resolves to the same value; either store wins.
  g_active.compare_exchange_strong(expected,
                                   static_cast<std::uint8_t>(resolved),
                                   std::memory_order_acq_rel);
  return static_cast<Isa>(g_active.load(std::memory_order_acquire));
}

}  // namespace

const char* to_string(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

Isa detected_isa() noexcept { return platform_best_isa(); }

Isa active_isa() noexcept { return resolve_active(); }

Isa force_isa(Isa isa) noexcept {
  const Isa installed = isa_runnable(isa) ? isa : platform_best_isa();
  g_active.store(static_cast<std::uint8_t>(installed),
                 std::memory_order_release);
  return installed;
}

void reset_isa() noexcept {
  g_active.store(static_cast<std::uint8_t>(env_or_detected_isa()),
                 std::memory_order_release);
}

std::size_t probe_count(const std::uint32_t* keys, std::size_t n,
                        std::uint32_t key) noexcept {
  switch (resolve_active()) {
#if HAL_SIMD_HAVE_AVX2
    case Isa::kAvx2:
      return avx2_probe_count(keys, n, key);
#endif
#if HAL_SIMD_HAVE_NEON
    case Isa::kNeon:
      return neon_probe_count(keys, n, key);
#endif
    default:
      return scalar_probe_count(keys, n, key);
  }
}

std::size_t probe_collect(const std::uint32_t* keys, std::size_t n,
                          std::uint32_t key,
                          std::uint32_t* idx_out) noexcept {
  switch (resolve_active()) {
#if HAL_SIMD_HAVE_AVX2
    case Isa::kAvx2:
      return avx2_probe_collect(keys, n, key, idx_out);
#endif
#if HAL_SIMD_HAVE_NEON
    case Isa::kNeon:
      return neon_probe_collect(keys, n, key, idx_out);
#endif
    default:
      return scalar_probe_collect(keys, n, key, idx_out);
  }
}

std::size_t probe_count_since(const std::uint32_t* keys,
                              const std::uint64_t* arrivals, std::size_t n,
                              std::uint32_t key,
                              std::uint64_t cutoff) noexcept {
  switch (resolve_active()) {
#if HAL_SIMD_HAVE_AVX2
    case Isa::kAvx2:
      return avx2_probe_count_since(keys, arrivals, n, key, cutoff);
#endif
#if HAL_SIMD_HAVE_NEON
    case Isa::kNeon:
      return neon_probe_count_since(keys, arrivals, n, key, cutoff);
#endif
    default:
      return scalar_probe_count_since(keys, arrivals, n, key, cutoff);
  }
}

std::size_t probe_collect_since(const std::uint32_t* keys,
                                const std::uint64_t* arrivals, std::size_t n,
                                std::uint32_t key, std::uint64_t cutoff,
                                std::uint32_t* idx_out) noexcept {
  switch (resolve_active()) {
#if HAL_SIMD_HAVE_AVX2
    case Isa::kAvx2:
      return avx2_probe_collect_since(keys, arrivals, n, key, cutoff,
                                      idx_out);
#endif
#if HAL_SIMD_HAVE_NEON
    case Isa::kNeon:
      return neon_probe_collect_since(keys, arrivals, n, key, cutoff,
                                      idx_out);
#endif
    default:
      return scalar_probe_collect_since(keys, arrivals, n, key, cutoff,
                                        idx_out);
  }
}

void hash_fib_hi16(const std::uint32_t* keys, std::size_t n,
                   std::uint32_t* out) noexcept {
  switch (resolve_active()) {
#if HAL_SIMD_HAVE_AVX2
    case Isa::kAvx2:
      avx2_hash_fib_hi16(keys, n, out);
      return;
#endif
#if HAL_SIMD_HAVE_NEON
    case Isa::kNeon:
      neon_hash_fib_hi16(keys, n, out);
      return;
#endif
    default:
      scalar_hash_fib_hi16(keys, n, out);
      return;
  }
}

Isa crc32c_isa() noexcept {
  return resolve_active() == Isa::kAvx2 ? Isa::kAvx2 : Isa::kScalar;
}

std::uint32_t crc32c(const std::uint8_t* data, std::size_t n,
                     std::uint32_t seed) noexcept {
#if HAL_SIMD_HAVE_AVX2
  if (crc32c_isa() == Isa::kAvx2) return sse42_crc32c(data, n, seed);
#endif
  return scalar_crc32c(data, n, seed);
}

std::uint64_t cycles_now() noexcept {
#if defined(__x86_64__)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t ticks;
  asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
  return ticks;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

const char* cycle_counter_name() noexcept {
#if defined(__x86_64__)
  return "rdtsc";
#elif defined(__aarch64__)
  return "cntvct_el0";
#else
  return "steady_clock_ns";
#endif
}

}  // namespace hal::simd
