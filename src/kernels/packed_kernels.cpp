#include "src/kernels/packed_kernels.h"

#include <algorithm>
#include <cstddef>

#include "src/common/error.h"
#include "src/dnn/quantize.h"
#include "src/kernels/simd.h"

namespace bpvec::kernels {

namespace {

/// Runs fn(0..n-1) over the pool (or inline when pool is null), choosing
/// a grain that amortizes queue overhead when each output is cheap.
/// Outputs are independent, so any schedule yields identical results.
void for_each_output(common::ThreadPool* pool, std::size_t n,
                     std::int64_t word_ops_per_output,
                     const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t grain = static_cast<std::size_t>(
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(
                                    1, word_ops_per_output)));
  pool->parallel_for(n, fn, grain);
}

/// Concurrent lanes a kernel's transient allocations can occupy:
/// parallel_for is caller-participating, so a k-thread pool runs k+1
/// tasks at once. Part of the analytic peak_bytes model — a pure
/// function of the pool, never a sampled high-water mark.
std::int64_t workers(common::ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads() + 1;
}

/// Storage footprint of a BitPlanes over rows×cols values at `bits`.
std::int64_t planes_bytes(std::int64_t rows, std::int64_t cols, int bits) {
  return rows * bits * ((cols + 63) / 64) * 8;
}

void note_peak(KernelStats* stats, std::int64_t bytes) {
  if (stats != nullptr) stats->peak_bytes = std::max(stats->peak_bytes, bytes);
}

void add_gemm_work(KernelStats* stats, const BitPlanes& a,
                   const BitPlanes& b) {
  if (stats == nullptr) return;
  // Work accounting is a pure function of the shapes — never touched
  // inside the parallel region, so it cannot race or drift.
  stats->macs += a.rows * b.rows * a.cols;
  stats->word_ops += a.rows * b.rows * static_cast<std::int64_t>(a.bits) *
                     b.bits * static_cast<std::int64_t>(a.words);
}

/// Bytes of one kGemmBlockM × kGemmBlockN int64 tile accumulator.
constexpr std::int64_t kTileAccBytes =
    kGemmBlockM * kGemmBlockN * static_cast<std::int64_t>(sizeof(std::int64_t));

/// The per-(p, q) significance products plane_weight(p)·plane_weight(q)
/// that planes_dot consumes, [p·b_bits + q].
std::vector<std::int64_t> plane_products(int a_bits, bool a_signed,
                                         int b_bits, bool b_signed) {
  std::vector<std::int64_t> products(static_cast<std::size_t>(a_bits) *
                                     b_bits);
  for (int p = 0; p < a_bits; ++p) {
    for (int q = 0; q < b_bits; ++q) {
      products[static_cast<std::size_t>(p) * b_bits + q] =
          plane_weight(p, a_bits, a_signed) * plane_weight(q, b_bits, b_signed);
    }
  }
  return products;
}

/// The one packed dot loop behind every MAC-bearing kernel: for a-rows
/// [m0, m1) × b-rows [n0, n1) (at most kGemmBlockM × kGemmBlockN),
/// writes out[m·m_stride + n·n_stride] = Σ_k a[m][k]·b[n][k]. K is
/// consumed in kGemmBlockWords chunks so the tile's plane segments stay
/// cache-resident across its bits² plane-pair passes, one fused `dot`
/// call per (m, n, chunk); per (m, n) the chunk sums are int64
/// additions, so the result is bit-identical to any other order. The
/// stride pair lets packed_gemm write [m][n] and packed_conv [oc][pixel].
void gemm_tile(const BitPlanes& a, std::int64_t m0, std::int64_t m1,
               const BitPlanes& b, std::int64_t n0, std::int64_t n1,
               PlanesDotFn dot, const std::int64_t* products,
               std::int64_t* out, std::int64_t m_stride,
               std::int64_t n_stride) {
  std::int64_t acc[kGemmBlockM][kGemmBlockN] = {};
  for (std::size_t w0 = 0; w0 < a.words; w0 += kGemmBlockWords) {
    const std::size_t chunk = std::min(kGemmBlockWords, a.words - w0);
    for (std::int64_t m = m0; m < m1; ++m) {
      for (std::int64_t n = n0; n < n1; ++n) {
        acc[m - m0][n - n0] +=
            dot(a.plane(m, 0) + w0, a.words, a.bits, b.plane(n, 0) + w0,
                b.words, b.bits, chunk, products);
      }
    }
  }
  for (std::int64_t m = m0; m < m1; ++m) {
    for (std::int64_t n = n0; n < n1; ++n) {
      out[m * m_stride + n * n_stride] = acc[m - m0][n - n0];
    }
  }
}

}  // namespace

std::vector<std::int64_t> packed_gemm(const BitPlanes& a, const BitPlanes& b,
                                      common::ThreadPool* pool,
                                      KernelStats* stats) {
  BPVEC_CHECK_MSG(a.cols == b.cols, "packed gemm: K dimensions disagree");
  const std::int64_t m_blocks = (a.rows + kGemmBlockM - 1) / kGemmBlockM;
  const std::int64_t n_blocks = (b.rows + kGemmBlockN - 1) / kGemmBlockN;
  const std::size_t tiles = static_cast<std::size_t>(m_blocks * n_blocks);
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.rows * b.rows), 0);
  const std::int64_t per_tile_words = kGemmBlockM * kGemmBlockN * a.bits *
                                      b.bits *
                                      static_cast<std::int64_t>(a.words);
  // Hoisted out of the tile loops: the resolved fused plane-pair dot and
  // the significance products it consumes.
  const PlanesDotFn dot = simd_planes_dot_fn();
  const std::vector<std::int64_t> products =
      plane_products(a.bits, a.is_signed, b.bits, b.is_signed);
  // One task per (m-block, n-block) output tile: disjoint writes, shared
  // immutable operands.
  for_each_output(pool, tiles, per_tile_words, [&](std::size_t ti) {
    const std::int64_t m0 =
        (static_cast<std::int64_t>(ti) / n_blocks) * kGemmBlockM;
    const std::int64_t n0 =
        (static_cast<std::int64_t>(ti) % n_blocks) * kGemmBlockN;
    gemm_tile(a, m0, std::min(a.rows, m0 + kGemmBlockM), b, n0,
              std::min(b.rows, n0 + kGemmBlockN), dot, products.data(),
              out.data(), b.rows, 1);
  });
  add_gemm_work(stats, a, b);
  // Transients: one tile accumulator per concurrent task.
  note_peak(stats, workers(pool) * kTileAccBytes);
  return out;
}

std::vector<std::int64_t> packed_conv(const dnn::Tensor& input,
                                      const BitPlanes& w,
                                      const dnn::ConvParams& p, int x_bits,
                                      common::ThreadPool* pool,
                                      KernelStats* stats) {
  const std::int64_t k = static_cast<std::int64_t>(p.in_c) * p.kh * p.kw;
  BPVEC_CHECK_MSG(w.rows == p.out_c && w.cols == k,
                  "packed conv: filter planes do not match the conv shape");
  BPVEC_CHECK(input.channels() == p.in_c && input.height() == p.in_h &&
              input.width() == p.in_w);
  const std::int64_t pixels =
      static_cast<std::int64_t>(p.out_h()) * p.out_w();
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(p.out_c) * pixels, 0);
  const std::size_t tiles =
      static_cast<std::size_t>((pixels + kConvPixelTile - 1) / kConvPixelTile);
  const std::int64_t per_tile_words =
      std::min(kConvPixelTile, pixels) * p.out_c * x_bits * w.bits *
      static_cast<std::int64_t>(w.words);
  const PlanesDotFn dot = simd_planes_dot_fn();
  // The window tiles are packed signed (pack_values' default).
  const std::vector<std::int64_t> products =
      plane_products(x_bits, /*a_signed=*/true, w.bits, w.is_signed);
  // Each task gathers ≤ kConvPixelTile windows straight from the input
  // tensor (at_padded supplies the zero padding), packs them, and runs
  // them through the GEMM tile loop against the shared filter planes,
  // writing its disjoint pixel range of every output channel in
  // reference order. The gathered tile is the ONLY activation transient
  // — the full im2col matrix never exists.
  for_each_output(pool, tiles, per_tile_words, [&](std::size_t ti) {
    const std::int64_t m0 = static_cast<std::int64_t>(ti) * kConvPixelTile;
    const std::int64_t m1 = std::min(pixels, m0 + kConvPixelTile);
    std::vector<std::int32_t> window(static_cast<std::size_t>((m1 - m0) * k));
    for (std::int64_t m = m0; m < m1; ++m) {
      const int oy = static_cast<int>(m / p.out_w());
      const int ox = static_cast<int>(m % p.out_w());
      std::int32_t* dst =
          window.data() + static_cast<std::size_t>(m - m0) * k;
      std::int64_t col = 0;
      // Same (ic, ky, kx) tap order as dnn::im2col — the filter planes
      // were packed over exactly this K layout.
      for (int ic = 0; ic < p.in_c; ++ic) {
        for (int ky = 0; ky < p.kh; ++ky) {
          const int iy = oy * p.stride - p.pad + ky;
          for (int kx = 0; kx < p.kw; ++kx, ++col) {
            const int ix = ox * p.stride - p.pad + kx;
            dst[col] = input.at_padded(ic, iy, ix);
          }
        }
      }
    }
    // The packed tile is the A operand of the GEMM tile loop; each
    // (pixel, oc) result lands at out[oc·pixels + m] directly.
    const BitPlanes x = pack_values(window.data(), m1 - m0, k, x_bits);
    for (std::int64_t t0 = 0; t0 < x.rows; t0 += kGemmBlockM) {
      for (std::int64_t oc0 = 0; oc0 < w.rows; oc0 += kGemmBlockN) {
        gemm_tile(x, t0, std::min(x.rows, t0 + kGemmBlockM), w, oc0,
                  std::min(w.rows, oc0 + kGemmBlockN), dot, products.data(),
                  out.data() + m0, 1, pixels);
      }
    }
  });
  if (stats != nullptr) {
    stats->macs += pixels * p.out_c * k;
    stats->word_ops += pixels * p.out_c * static_cast<std::int64_t>(x_bits) *
                       w.bits * static_cast<std::int64_t>(w.words);
  }
  // Transients: per concurrent task, one gathered int32 window tile, its
  // packed planes and one tile accumulator.
  const std::int64_t tile_rows =
      std::min(kConvPixelTile, std::max<std::int64_t>(pixels, 1));
  const std::int64_t window_bytes =
      tile_rows * k * static_cast<std::int64_t>(sizeof(std::int32_t));
  note_peak(stats, workers(pool) * (window_bytes +
                                    planes_bytes(tile_rows, k, x_bits) +
                                    kTileAccBytes));
  return out;
}

std::vector<std::int64_t> packed_fc(const std::vector<std::int32_t>& input,
                                    const BitPlanes& w, const dnn::FcParams& p,
                                    int x_bits, common::ThreadPool* pool,
                                    KernelStats* stats) {
  BPVEC_CHECK(static_cast<int>(input.size()) == p.in_features);
  BPVEC_CHECK_MSG(w.rows == p.out_features && w.cols == p.in_features,
                  "packed fc: weight planes do not match the fc shape");
  const BitPlanes x = pack_vector(input, x_bits);
  // Single-row GEMM: out[n] = Σ_k in[k]·w[n][k], already fc_reference
  // order.
  auto out = packed_gemm(x, w, pool, stats);
  note_peak(stats, planes_bytes(1, p.in_features, x_bits));
  return out;
}

std::vector<std::int32_t> packed_rnn_step(const std::vector<std::int32_t>& x,
                                          const std::vector<std::int32_t>& h,
                                          const BitPlanes& w, int hidden,
                                          int shift, int out_bits, int x_bits,
                                          common::ThreadPool* pool,
                                          KernelStats* stats) {
  const std::int64_t k = static_cast<std::int64_t>(x.size() + h.size());
  BPVEC_CHECK_MSG(w.rows == hidden && w.cols == k,
                  "packed rnn step: gate planes do not match [x; h]");
  std::vector<std::int32_t> xh;
  xh.reserve(static_cast<std::size_t>(k));
  xh.insert(xh.end(), x.begin(), x.end());
  xh.insert(xh.end(), h.begin(), h.end());
  const BitPlanes xp = pack_vector(xh, x_bits);
  const std::vector<std::int64_t> acc = packed_gemm(xp, w, pool, stats);
  std::vector<std::int32_t> out(static_cast<std::size_t>(hidden));
  for (int n = 0; n < hidden; ++n) {
    out[static_cast<std::size_t>(n)] =
        dnn::requantize(acc[static_cast<std::size_t>(n)], shift, out_bits);
  }
  note_peak(stats,
            k * static_cast<std::int64_t>(sizeof(std::int32_t)) +
                planes_bytes(1, k, x_bits) +
                static_cast<std::int64_t>(acc.size()) *
                    static_cast<std::int64_t>(sizeof(std::int64_t)));
  return out;
}

dnn::Tensor packed_pool(const dnn::Tensor& input, const dnn::PoolParams& p,
                        common::ThreadPool* pool, KernelStats* stats) {
  BPVEC_CHECK(input.channels() == p.channels && input.height() == p.in_h &&
              input.width() == p.in_w);
  const int oh = p.out_h(), ow = p.out_w();
  dnn::Tensor out(p.channels, oh, ow);
  // Clamped window bounds instead of per-element bounds checks — a
  // structurally different loop from pool_reference that must still
  // agree bit-for-bit on every element.
  const std::int64_t per_channel_work =
      static_cast<std::int64_t>(oh) * ow * p.k * p.k;
  for_each_output(
      pool, static_cast<std::size_t>(p.channels), per_channel_work,
      [&](std::size_t ci) {
        const int c = static_cast<int>(ci);
        for (int oy = 0; oy < oh; ++oy) {
          const int iy0 = oy * p.stride;
          const int iy1 = std::min(iy0 + p.k, p.in_h);
          for (int ox = 0; ox < ow; ++ox) {
            const int ix0 = ox * p.stride;
            const int ix1 = std::min(ix0 + p.k, p.in_w);
            const int count = (iy1 - iy0) * (ix1 - ix0);
            BPVEC_CHECK(count > 0);
            if (p.kind == dnn::PoolKind::kMax) {
              std::int32_t best = INT32_MIN;
              for (int iy = iy0; iy < iy1; ++iy) {
                for (int ix = ix0; ix < ix1; ++ix) {
                  best = std::max(best, input.at(c, iy, ix));
                }
              }
              out.at(c, oy, ox) = best;
            } else {
              std::int64_t sum = 0;
              for (int iy = iy0; iy < iy1; ++iy) {
                for (int ix = ix0; ix < ix1; ++ix) {
                  sum += input.at(c, iy, ix);
                }
              }
              const std::int64_t half = count / 2;
              out.at(c, oy, ox) = static_cast<std::int32_t>(
                  sum >= 0 ? (sum + half) / count : (sum - half) / count);
            }
          }
        }
      });
  if (stats != nullptr) {
    stats->word_ops +=
        static_cast<std::int64_t>(p.channels) * per_channel_work;
  }
  return out;
}

}  // namespace bpvec::kernels
