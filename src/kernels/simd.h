// The one SIMD-variant-specific primitive behind the bit-packed kernels:
// planes_dot, which ANDs every (activation-plane, weight-plane)
// significance pair of two operand rows, counts the surviving ones and
// shift-adds the counts by plane weight — the software form of the
// paper's Eq. 2/Eq. 4 composition. Every packed kernel reaches popcount
// only through it.
//
// Everything above this call site is portable C++; the variant is chosen
// at RUNTIME, on the first planes_dot call, by cpuid — not at configure
// time. On x86-64 three implementations are compiled side by side via
// function target attributes (scalar baseline, AVX2+POPCNT, AVX-512
// VPOPCNTDQ) and the best one the host supports wins; on aarch64 NEON is
// part of the baseline ISA so it is simply the default. The environment
// variable BPVEC_SIMD forces a variant ("scalar", "avx2", "avx512",
// "neon", or "auto"); an unsupported or unknown force falls back to
// auto-detection rather than crashing on an illegal instruction.
//
// `simd_variant()` names the SELECTED variant; backend fingerprints fold
// it in so cache entries produced under one variant are never served to
// another (results are bit-identical across variants, but measured
// wall-clock is not).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bpvec::kernels {

/// Fused plane-pair dot: Σ_p Σ_q products[p·b_bits + q] ·
/// Σ_i popcount(a[p·a_stride + i] & b[q·b_stride + i]) over `words`
/// words. One call scores one (A-row, B-row) pair over ALL bits²
/// significance-plane combinations — the wide variants keep each loaded
/// A-vector live across two B-planes and amortize call/reduce overhead
/// bits² ways, which is where the blocked GEMM's throughput edge over a
/// loop of one-plane calls comes from. `a` points at the row's
/// plane 0 (consecutive planes `a_stride` words apart — BitPlanes
/// layout), likewise `b`; `products` is the precomputed
/// plane_weight(p)·plane_weight(q) table. Exact int64; bit-identical
/// across variants.
using PlanesDotFn = std::int64_t (*)(const std::uint64_t* a,
                                     std::size_t a_stride, int a_bits,
                                     const std::uint64_t* b,
                                     std::size_t b_stride, int b_bits,
                                     std::size_t words,
                                     const std::int64_t* products);
std::int64_t planes_dot(const std::uint64_t* a, std::size_t a_stride,
                        int a_bits, const std::uint64_t* b,
                        std::size_t b_stride, int b_bits, std::size_t words,
                        const std::int64_t* products);

/// The resolved planes_dot implementation as a raw function pointer.
/// The blocked GEMM tile loop fetches this once per kernel call and
/// invokes it directly, hoisting the dispatch lookup out of a loop that
/// runs once per (m, n, K-chunk). The pointer stays valid for the process
/// lifetime; it reflects the variant selected at the moment of the call
/// (re-fetch after simd_set_variant to follow a switch).
PlanesDotFn simd_planes_dot_fn();

/// Name of the variant planes_dot currently dispatches to: "avx512",
/// "avx2", "neon", or "scalar". Resolves the dispatch (cpuid +
/// BPVEC_SIMD override) if no call has done so yet.
const char* simd_variant();

/// Forces the dispatch to `name` ("scalar", "avx2", "avx512", "neon"),
/// or back to cpuid/BPVEC_SIMD resolution with "auto". Returns false —
/// and leaves the dispatch unchanged — when the host cannot execute the
/// requested variant (or the name is unknown). Tests and benches use
/// this to cover every reachable variant in one process; note that the
/// functional backend folds simd_variant() into its fingerprint, so
/// switching variants mid-run re-keys its caches as intended.
bool simd_set_variant(const std::string& name);

/// Every variant the host can execute, best first (always ends with
/// "scalar"). Each entry is accepted by simd_set_variant.
std::vector<std::string> simd_available_variants();

}  // namespace bpvec::kernels
