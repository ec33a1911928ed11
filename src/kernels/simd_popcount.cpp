// All ISA-specific code lives in this translation unit, compiled with
// the baseline flags. The wide variants are per-function, via
// __attribute__((target(...))) — the compiler emits AVX2/AVX-512 code
// only inside those bodies, and they stay out-of-line so no wide
// instruction can leak into baseline code paths. Which body runs is
// decided once at runtime (cpuid, overridable with BPVEC_SIMD) and
// cached in an atomic dispatch pointer.

#include "src/kernels/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace bpvec::kernels {

namespace {

inline std::int64_t scalar_fold(const std::uint64_t* a,
                                const std::uint64_t* b, std::size_t words) {
  std::int64_t count = 0;
  for (std::size_t i = 0; i < words; ++i) {
    count += __builtin_popcountll(a[i] & b[i]);
  }
  return count;
}

/// Fused plane-pair dot, scalar flavor. The wide variants below pair
/// B-planes so each loaded A-vector is reused twice; here the win is
/// purely amortization — one call (no per-pair dispatch) with the
/// compiler free to unroll the simple fold it already schedules best.
std::int64_t planes_dot_scalar(const std::uint64_t* a, std::size_t a_stride,
                               int a_bits, const std::uint64_t* b,
                               std::size_t b_stride, int b_bits,
                               std::size_t words,
                               const std::int64_t* products) {
  std::int64_t total = 0;
  for (int p = 0; p < a_bits; ++p) {
    const std::uint64_t* ap = a + static_cast<std::size_t>(p) * a_stride;
    const std::int64_t* row = products + static_cast<std::size_t>(p) * b_bits;
    for (int q = 0; q < b_bits; ++q) {
      total += row[q] *
               scalar_fold(ap, b + static_cast<std::size_t>(q) * b_stride,
                           words);
    }
  }
  return total;
}

#if defined(__x86_64__)

// Single plane-pair folds: each planes_dot variant below pairs B-planes
// and falls back to its fold for the last plane of an odd b_bits.

__attribute__((target("avx2,popcnt"))) std::int64_t fold_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  std::int64_t count = 0;
  std::size_t i = 0;
  // 4 words per vector AND; hardware POPCNT on the extracted lanes.
  // Unaligned loads: planes are packed back-to-back per
  // (row, significance), not over-aligned.
  for (; i + 4 <= words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i v = _mm256_and_si256(va, vb);
    count += __builtin_popcountll(
        static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0)));
    count += __builtin_popcountll(
        static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1)));
    count += __builtin_popcountll(
        static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2)));
    count += __builtin_popcountll(
        static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3)));
  }
  return count + scalar_fold(a + i, b + i, words - i);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::int64_t fold_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  // VPOPCNTDQ counts all 8 lanes of the AND in one instruction; the
  // per-lane counts accumulate vertically in int64 lanes (a plane word
  // contributes at most 64, so 2^57 iterations would be needed to wrap —
  // unreachable) and reduce once at the end.
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  // Reduce via a store rather than _mm512_reduce_add_epi64: the
  // intrinsic's expansion goes through _mm256_undefined_si256, which
  // GCC 12 flags as used-uninitialized under -Werror.
  alignas(64) std::int64_t lanes[8];
  _mm512_store_si512(reinterpret_cast<__m512i*>(lanes), acc);
  const std::int64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3] +
                             lanes[4] + lanes[5] + lanes[6] + lanes[7];
  return count + scalar_fold(a + i, b + i, words - i);
}

__attribute__((target("avx2,popcnt"))) std::int64_t planes_dot_avx2(
    const std::uint64_t* a, std::size_t a_stride, int a_bits,
    const std::uint64_t* b, std::size_t b_stride, int b_bits,
    std::size_t words, const std::int64_t* products) {
  std::int64_t total = 0;
  for (int p = 0; p < a_bits; ++p) {
    const std::uint64_t* ap = a + static_cast<std::size_t>(p) * a_stride;
    const std::int64_t* row = products + static_cast<std::size_t>(p) * b_bits;
    int q = 0;
    for (; q + 2 <= b_bits; q += 2) {
      const std::uint64_t* b0 = b + static_cast<std::size_t>(q) * b_stride;
      const std::uint64_t* b1 = b0 + b_stride;
      std::int64_t c0 = 0;
      std::int64_t c1 = 0;
      std::size_t i = 0;
      for (; i + 4 <= words; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap + i));
        const __m256i v0 = _mm256_and_si256(
            va, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + i)));
        const __m256i v1 = _mm256_and_si256(
            va, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b1 + i)));
        c0 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v0, 0)));
        c0 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v0, 1)));
        c0 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v0, 2)));
        c0 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v0, 3)));
        c1 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v1, 0)));
        c1 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v1, 1)));
        c1 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v1, 2)));
        c1 += __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(v1, 3)));
      }
      c0 += scalar_fold(ap + i, b0 + i, words - i);
      c1 += scalar_fold(ap + i, b1 + i, words - i);
      total += row[q] * c0 + row[q + 1] * c1;
    }
    if (q < b_bits) {
      const std::uint64_t* bq = b + static_cast<std::size_t>(q) * b_stride;
      total += row[q] * fold_avx2(ap, bq, words);
    }
  }
  return total;
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::int64_t
planes_dot_avx512(const std::uint64_t* a, std::size_t a_stride, int a_bits,
                  const std::uint64_t* b, std::size_t b_stride, int b_bits,
                  std::size_t words, const std::int64_t* products) {
  std::int64_t total = 0;
  for (int p = 0; p < a_bits; ++p) {
    const std::uint64_t* ap = a + static_cast<std::size_t>(p) * a_stride;
    const std::int64_t* row = products + static_cast<std::size_t>(p) * b_bits;
    int q = 0;
    for (; q + 2 <= b_bits; q += 2) {
      const std::uint64_t* b0 = b + static_cast<std::size_t>(q) * b_stride;
      const std::uint64_t* b1 = b0 + b_stride;
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      std::size_t i = 0;
      for (; i + 8 <= words; i += 8) {
        const __m512i va = _mm512_loadu_si512(ap + i);
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(
                      _mm512_and_si512(va, _mm512_loadu_si512(b0 + i))));
        acc1 = _mm512_add_epi64(
            acc1, _mm512_popcnt_epi64(
                      _mm512_and_si512(va, _mm512_loadu_si512(b1 + i))));
      }
      alignas(64) std::int64_t lanes[16];
      _mm512_store_si512(reinterpret_cast<__m512i*>(lanes), acc0);
      _mm512_store_si512(reinterpret_cast<__m512i*>(lanes + 8), acc1);
      std::int64_t c0 = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                        lanes[5] + lanes[6] + lanes[7];
      std::int64_t c1 = lanes[8] + lanes[9] + lanes[10] + lanes[11] +
                        lanes[12] + lanes[13] + lanes[14] + lanes[15];
      c0 += scalar_fold(ap + i, b0 + i, words - i);
      c1 += scalar_fold(ap + i, b1 + i, words - i);
      total += row[q] * c0 + row[q + 1] * c1;
    }
    if (q < b_bits) {
      const std::uint64_t* bq = b + static_cast<std::size_t>(q) * b_stride;
      total += row[q] * fold_avx512(ap, bq, words);
    }
  }
  return total;
}

#elif defined(__aarch64__)

// NEON is baseline on aarch64 — no target attribute, no cpuid needed.
std::int64_t fold_neon(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t words) {
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= words; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    const uint8x16_t bits = vcntq_u8(vreinterpretq_u8_u64(vandq_u64(va, vb)));
    count += vaddvq_u8(bits);
  }
  return count + scalar_fold(a + i, b + i, words - i);
}

std::int64_t planes_dot_neon(const std::uint64_t* a, std::size_t a_stride,
                             int a_bits, const std::uint64_t* b,
                             std::size_t b_stride, int b_bits,
                             std::size_t words, const std::int64_t* products) {
  std::int64_t total = 0;
  for (int p = 0; p < a_bits; ++p) {
    const std::uint64_t* ap = a + static_cast<std::size_t>(p) * a_stride;
    const std::int64_t* row = products + static_cast<std::size_t>(p) * b_bits;
    int q = 0;
    for (; q + 2 <= b_bits; q += 2) {
      const std::uint64_t* b0 = b + static_cast<std::size_t>(q) * b_stride;
      const std::uint64_t* b1 = b0 + b_stride;
      std::int64_t c0 = 0;
      std::int64_t c1 = 0;
      std::size_t i = 0;
      for (; i + 2 <= words; i += 2) {
        const uint64x2_t va = vld1q_u64(ap + i);
        c0 += vaddvq_u8(
            vcntq_u8(vreinterpretq_u8_u64(vandq_u64(va, vld1q_u64(b0 + i)))));
        c1 += vaddvq_u8(
            vcntq_u8(vreinterpretq_u8_u64(vandq_u64(va, vld1q_u64(b1 + i)))));
      }
      c0 += scalar_fold(ap + i, b0 + i, words - i);
      c1 += scalar_fold(ap + i, b1 + i, words - i);
      total += row[q] * c0 + row[q + 1] * c1;
    }
    if (q < b_bits) {
      const std::uint64_t* bq = b + static_cast<std::size_t>(q) * b_stride;
      total += row[q] * fold_neon(ap, bq, words);
    }
  }
  return total;
}

#endif

struct Dispatch {
  const char* name;
  PlanesDotFn dot;
};

constexpr Dispatch kScalar{"scalar", &planes_dot_scalar};
#if defined(__x86_64__)
constexpr Dispatch kAvx2{"avx2", &planes_dot_avx2};
constexpr Dispatch kAvx512{"avx512", &planes_dot_avx512};
#elif defined(__aarch64__)
constexpr Dispatch kNeon{"neon", &planes_dot_neon};
#endif

bool host_supports(const Dispatch& d) {
  if (std::strcmp(d.name, "scalar") == 0) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (std::strcmp(d.name, "avx2") == 0) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
  }
  if (std::strcmp(d.name, "avx512") == 0) {
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vpopcntdq");
  }
#elif defined(__aarch64__)
  if (std::strcmp(d.name, "neon") == 0) return true;
#endif
  return false;
}

/// Host-supported dispatches, best first. Scalar is always last.
std::vector<const Dispatch*> supported_dispatches() {
  std::vector<const Dispatch*> out;
#if defined(__x86_64__)
  if (host_supports(kAvx512)) out.push_back(&kAvx512);
  if (host_supports(kAvx2)) out.push_back(&kAvx2);
#elif defined(__aarch64__)
  out.push_back(&kNeon);
#endif
  out.push_back(&kScalar);
  return out;
}

const Dispatch* find_supported(const char* name) {
  for (const Dispatch* d : supported_dispatches()) {
    if (std::strcmp(d->name, name) == 0) return d;
  }
  return nullptr;
}

/// cpuid pick, after honoring a BPVEC_SIMD force. Unsupported or unknown
/// forces fall through to detection: a wrong env var must degrade, not
/// trap on an illegal instruction.
const Dispatch* resolve() {
  const char* env = std::getenv("BPVEC_SIMD");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    if (const Dispatch* forced = find_supported(env)) return forced;
  }
  return supported_dispatches().front();
}

std::atomic<const Dispatch*> g_dispatch{nullptr};

const Dispatch& active() {
  const Dispatch* d = g_dispatch.load(std::memory_order_acquire);
  if (d == nullptr) {
    // Benign race: concurrent first calls resolve to the same answer
    // (resolve() is deterministic in the host + environment).
    d = resolve();
    g_dispatch.store(d, std::memory_order_release);
  }
  return *d;
}

}  // namespace

const char* simd_variant() { return active().name; }

std::int64_t planes_dot(const std::uint64_t* a, std::size_t a_stride,
                        int a_bits, const std::uint64_t* b,
                        std::size_t b_stride, int b_bits, std::size_t words,
                        const std::int64_t* products) {
  return active().dot(a, a_stride, a_bits, b, b_stride, b_bits, words,
                      products);
}

PlanesDotFn simd_planes_dot_fn() { return active().dot; }

bool simd_set_variant(const std::string& name) {
  if (name == "auto") {
    g_dispatch.store(resolve(), std::memory_order_release);
    return true;
  }
  const Dispatch* d = find_supported(name.c_str());
  if (d == nullptr) return false;
  g_dispatch.store(d, std::memory_order_release);
  return true;
}

std::vector<std::string> simd_available_variants() {
  std::vector<std::string> out;
  for (const Dispatch* d : supported_dispatches()) out.emplace_back(d->name);
  return out;
}

}  // namespace bpvec::kernels
