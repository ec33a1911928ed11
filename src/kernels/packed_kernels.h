// Bit-packed layer kernels — the fast functional execution path.
//
// Each kernel computes a layer's integer arithmetic exactly, via the
// bit-plane popcount GEMM (see bitplane.h), and is verified bit-for-bit
// against dnn/reference_ops (and, through the functional backend,
// against the scalar CVU executor in core/gemm_executor).
//
// Throughput design (this is the hot path of every functional probe):
//   * One dot path. Every MAC-bearing kernel runs the same blocked tile
//     loop: output tiles of kGemmBlockM × kGemmBlockN rows are computed
//     over K-word chunks of kGemmBlockWords, one fused planes_dot call
//     (simd.h) per (m, n, chunk), so the operand planes a tile touches
//     stay L1-resident instead of being streamed bits-squared times.
//     Blocking only reorders exact int64 additions, so results are
//     bit-identical to any other summation order.
//   * packed_conv is DIRECT (im2col-free): each filter is packed once,
//     and output pixels stream through per-task scratch tiles packed
//     straight from the input tensor, each run through the tile loop
//     against the filter planes — the O(out_h·out_w·k²·C) im2col
//     materialization never exists. bench/functional_kernels keeps an
//     im2col lowering as the baseline it is measured against.
//   * conv/fc/rnn kernels take only pre-packed weight planes
//     (BitPlanes), so a persistent weight cache (weight_cache.h) can
//     amortize packing across probes. A caller holding raw weights packs
//     them once with pack_values: [out_c][in_c·kh·kw], [out][in] and
//     [hidden][input+hidden] are already the GEMM row layouts.
//
// Parallelism: kernels take an optional common::ThreadPool and split
// output tiles across it. Tiles write disjoint output ranges and read
// shared immutable packed operands, so results are bit-identical at any
// thread count (integer arithmetic, no reduction reordering across
// tiles).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dnn/layer.h"
#include "src/dnn/tensor.h"
#include "src/kernels/bitplane.h"

namespace bpvec::kernels {

/// Work accounting for one kernel invocation (fills the measured half of
/// the measured-vs-modeled comparison).
struct KernelStats {
  std::int64_t macs = 0;      // multiply-accumulates computed
  std::int64_t word_ops = 0;  // 64-bit AND+popcount words consumed
  /// Peak transient working-set bytes the kernel allocated beyond its
  /// inputs and final output (packed operand planes, scratch window
  /// tiles, per-task tile accumulators). Weight planes are an input and
  /// are never counted.
  /// Computed analytically from the shapes and the worker count —
  /// deterministic, never sampled — and folded with max() across calls,
  /// so one KernelStats can track a whole probe. This is the number that
  /// proves direct conv beats an im2col lowering on memory.
  std::int64_t peak_bytes = 0;
};

// GEMM tile geometry. Two regimes drove the choices:
//   * kGemmBlockWords = 256 (16 Ki lanes per chunk). Below ~256 words a
//     per-(m,n) pass's operand planes (2 · bits · words · 8 B ≈ 18 KiB
//     for 8-bit fc6) are ALREADY L1-resident, so finer K-chunks only add
//     per-chunk call overhead (words = 32 measured ~30% slower than
//     words = 256 on fc6). The chunk exists to bound the working set for
//     pathological K (beyond ~16 Ki lanes a chunk of one tile touches
//     (8+8)·8·256·8 B = 256 KiB, held L2-resident across the tile's
//     bits² plane-pair passes instead of streaming from L3/DRAM).
//   * kGemmBlockM = kGemmBlockN = 8: an 8×8 output tile reuses each
//     loaded B-plane segment across 8 A-rows (and vice versa) while the
//     64-entry int64 accumulator tile lives on the stack; m/n choices
//     from 4 to 16 measured flat within noise at these probe sizes, so
//     the smallest geometry with full reuse wins.
inline constexpr std::int64_t kGemmBlockM = 8;
inline constexpr std::int64_t kGemmBlockN = 8;
inline constexpr std::size_t kGemmBlockWords = 256;

/// out[m·b.rows + n] = Σ_k a[m][k]·b[n][k], exact in int64, computed in
/// kGemmBlockM × kGemmBlockN output tiles over kGemmBlockWords K-chunks.
/// Output tiles are distributed over `pool` when given; pass nullptr for
/// the serial loop.
std::vector<std::int64_t> packed_gemm(const BitPlanes& a, const BitPlanes& b,
                                      common::ThreadPool* pool = nullptr,
                                      KernelStats* stats = nullptr);

/// Output pixels per direct-convolution scratch tile: bounds the only
/// transient the direct path allocates (one tile of gathered windows per
/// worker) while keeping enough rows per pack/dot pass to amortize
/// per-tile overhead.
inline constexpr std::int64_t kConvPixelTile = 64;

/// Direct packed convolution over pre-packed filter planes (`w` is
/// pack_values over the [out_c][in_c·kh·kw] weight vector): output
/// pixels stream through per-task scratch tiles of ≤ kConvPixelTile
/// gathered windows, each packed and run through packed_gemm's tile
/// loop against `w` — no im2col matrix is ever materialized. Returns
/// results in conv2d_reference order (out[(oc·out_h + oy)·out_w + ox]),
/// written straight from the tile accumulators.
std::vector<std::int64_t> packed_conv(const dnn::Tensor& input,
                                      const BitPlanes& w,
                                      const dnn::ConvParams& p, int x_bits,
                                      common::ThreadPool* pool = nullptr,
                                      KernelStats* stats = nullptr);

/// Packed fully-connected layer over pre-packed weight planes (`w` is
/// pack_values over the [out_features][in_features] vector),
/// fc_reference order.
std::vector<std::int64_t> packed_fc(const std::vector<std::int32_t>& input,
                                    const BitPlanes& w,
                                    const dnn::FcParams& p, int x_bits,
                                    common::ThreadPool* pool = nullptr,
                                    KernelStats* stats = nullptr);

/// One packed recurrent step over pre-packed gate planes (`w` is
/// pack_values over the [hidden][x.size() + h.size()] gate matrix),
/// bit-identical to rnn_step_reference:
/// h' = requantize(W·[x; h], shift, out_bits).
std::vector<std::int32_t> packed_rnn_step(
    const std::vector<std::int32_t>& x, const std::vector<std::int32_t>& h,
    const BitPlanes& w, int hidden, int shift, int out_bits, int x_bits,
    common::ThreadPool* pool = nullptr, KernelStats* stats = nullptr);

/// Pooling on integer tensors, bit-identical to pool_reference but
/// structured as an independent window-streaming implementation (the
/// cross-check would be vacuous if both sides shared one loop). Channels
/// are tiled over `pool` when given.
dnn::Tensor packed_pool(const dnn::Tensor& input, const dnn::PoolParams& p,
                        common::ThreadPool* pool = nullptr,
                        KernelStats* stats = nullptr);

}  // namespace bpvec::kernels
