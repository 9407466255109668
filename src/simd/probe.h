// hal::simd — explicit, runtime-dispatched SIMD probe kernels.
//
// The batched data path (PR 4) leaned on auto-vectorization: dense
// `uint32_t` key lanes shaped so the compiler *may* vectorize the compare
// loop. This module replaces that hope with hand-written kernels — AVX2 on
// x86, NEON on aarch64, and a scalar fallback that is bit-for-bit the old
// branchless loop — behind one entry point per kernel with runtime CPU
// dispatch. The Hardware-Conscious Stream Processing survey's checklist
// (PAPERS.md) motivates the shapes: key-equality probe (count + index
// gather), the masked variant fused with the logical-expiry arrival
// cutoff, and the ingress keyslot hash. The wire codec's CRC32C
// (net/wire.h) rides the same dispatch: the CPU's CRC instruction where
// the active ISA has one, the byte-wise table otherwise.
//
// Contract shared by every kernel:
//   * Pointers need no particular alignment; `n` may be any size
//     (unaligned tails are handled in-kernel). n == 0 is valid.
//   * Every ISA variant returns byte-identical results for identical
//     inputs — the differential kernel suite (tests/simd/) pins this
//     across batch shapes, unaligned offsets, duplicate-heavy lanes and
//     empty buckets. Only speed may differ between ISAs.
//   * Kernels are pure functions of their arguments: safe to call from
//     any thread concurrently.
//
// Dispatch:
//   * detected_isa() — best ISA the CPU and the build support.
//   * active_isa()   — what the kernels currently run; defaults to
//     detected_isa(), overridable by force_isa() (tests) or the
//     HAL_SIMD_ISA environment variable ("scalar" | "avx2" | "neon"),
//     read once at first use. Forcing an ISA the platform cannot run
//     clamps to the best available — force_isa(kScalar) always sticks,
//     which is the fallback guarantee the dispatch test exercises. The
//     scalar kernels are always compiled: they are the reference the
//     differential suites compare against and the fallback on CPUs
//     without AVX2/NEON.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hal::simd {

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

[[nodiscard]] const char* to_string(Isa isa) noexcept;

// Best ISA this CPU supports.
[[nodiscard]] Isa detected_isa() noexcept;
// The ISA the kernels dispatch to right now.
[[nodiscard]] Isa active_isa() noexcept;
// Override dispatch (clamped to what the platform can run); returns the
// ISA actually installed. Thread-safe; takes effect for subsequent calls.
Isa force_isa(Isa isa) noexcept;
// Drop any override and re-resolve from HAL_SIMD_ISA / detection.
void reset_isa() noexcept;

// --- Probe kernels ---------------------------------------------------------

// Number of i in [0, n) with keys[i] == key.
[[nodiscard]] std::size_t probe_count(const std::uint32_t* keys,
                                      std::size_t n,
                                      std::uint32_t key) noexcept;

// Writes the matching positions (ascending) to idx_out, which must hold at
// least n entries; returns the match count.
std::size_t probe_collect(const std::uint32_t* keys, std::size_t n,
                          std::uint32_t key,
                          std::uint32_t* idx_out) noexcept;

// Masked variants fused with the logical-expiry predicate of the batch
// engine: a lane matches iff keys[i] == key AND arrivals[i] >= cutoff.
[[nodiscard]] std::size_t probe_count_since(const std::uint32_t* keys,
                                            const std::uint64_t* arrivals,
                                            std::size_t n, std::uint32_t key,
                                            std::uint64_t cutoff) noexcept;
std::size_t probe_collect_since(const std::uint32_t* keys,
                                const std::uint64_t* arrivals, std::size_t n,
                                std::uint32_t key, std::uint64_t cutoff,
                                std::uint32_t* idx_out) noexcept;

// Ingress keyslot hash: out[i] = (uint32_t)((keys[i] * 2654435761) >> 16)
// — the Fibonacci hash the cluster KeyspaceMap uses (keyslot = out[i] %
// kKeyslots; the caller applies the modulus so this kernel stays free of
// cluster-layer constants).
void hash_fib_hi16(const std::uint32_t* keys, std::size_t n,
                   std::uint32_t* out) noexcept;

// --- CRC32C ----------------------------------------------------------------

// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected) of data[0, n),
// continued from `seed`: crc32c(b, crc32c(a)) == crc32c(a ‖ b), and seed 0
// starts a fresh checksum. The scalar kernel is a byte-wise table — the
// reference; under kAvx2 the SSE4.2 crc32 instruction runs (every AVX2
// CPU has SSE4.2) eight bytes at a time; NEON keeps the table.
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t n,
                                   std::uint32_t seed) noexcept;
// The ISA whose kernel crc32c() runs right now: kAvx2 while active_isa()
// is kAvx2, else kScalar (the table).
[[nodiscard]] Isa crc32c_isa() noexcept;

// --- Cycle counting (bench/kernel_cycles methodology) ----------------------

// Monotonic cycle counter: RDTSC on x86-64 (invariant-TSC ticks at the
// base frequency — "cycles" below means TSC ticks), CNTVCT_EL0 on aarch64
// (a constant-rate timer, not core cycles; the bench reports the counter
// name so tables are comparable), steady_clock nanoseconds elsewhere.
[[nodiscard]] std::uint64_t cycles_now() noexcept;
[[nodiscard]] const char* cycle_counter_name() noexcept;

}  // namespace hal::simd
