// Integer reference operators (direct, unlowered). These are the ground
// truth the packed kernels and the CVU-backed execution path are verified
// against.
//
// Oracle contract: every operator here is a plain scalar loop nest — no
// intrinsics, no target attributes, no bit-plane packing, and no code
// shared with dnn::im2col or src/kernels, so a bug in the lowering or the
// kernels cannot hide by appearing on both sides of a check. The results
// are those of int32 operands with int64 accumulation. The dot-product
// ops (conv, fc, RNN step) store and accumulate narrower only where a
// bound checked on entry proves it exact: when max|x| ≤ 32767,
// max|w| ≤ 32767 and K·max|x|·max|w| ≤ INT32_MAX, the operands are read
// as int16 and summed in int32, which the compiler vectorizes; otherwise
// the int64 loop runs. The bound comes from the operand values, never
// from declared bitwidths. Speed otherwise comes only from memory
// layout: conv2d_reference pads its input once and gathers blocks of
// receptive fields contiguously, then dots each block with one weight
// row at a time, so the inner loop is a bounds-check-free dot product.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/dnn/layer.h"
#include "src/dnn/tensor.h"

namespace bpvec::dnn {

/// Direct convolution. `weights` is laid out [out_c][in_c][kh][kw].
/// Output element (oc, oy, ox) = Σ in(ic, oy·s − pad + ky, ox·s − pad + kx)
/// · w(oc, ic, ky, kx), exact 64-bit values returned per element
/// ([out_c][out_h][out_w]). Extra memory: one zero-padded copy of the
/// input, a block of in_c·kh·kw receptive fields (32 KiB, or one field
/// if that is larger) and one weight row, all int16 on the narrow path.
std::vector<std::int64_t> conv2d_reference(
    const Tensor& input, const std::vector<std::int32_t>& weights,
    const ConvParams& p);

/// Fully connected: out[n] = Σ_k in[k] · w[n][k] (row-major weights).
std::vector<std::int64_t> fc_reference(
    const std::vector<std::int32_t>& input,
    const std::vector<std::int32_t>& weights, const FcParams& p);

/// Max pooling on an integer tensor.
Tensor maxpool_reference(const Tensor& input, const PoolParams& p);

/// Average pooling (integer mean over the window's in-bounds elements,
/// round half up).
Tensor avgpool_reference(const Tensor& input, const PoolParams& p);

/// Dispatches on p.kind.
Tensor pool_reference(const Tensor& input, const PoolParams& p);

/// One vanilla-RNN step on integer state (tanh replaced by a hard clamp to
/// the activation bitwidth — standard for quantized recurrent inference):
/// h' = clamp(Wx·x + Wh·h >> shift). Weights: [hidden][input+hidden],
/// a view, so a caller can pass one gate of a larger draw without a copy.
std::vector<std::int32_t> rnn_step_reference(
    const std::vector<std::int32_t>& x, const std::vector<std::int32_t>& h,
    std::span<const std::int32_t> weights, int hidden, int shift,
    int out_bits);

}  // namespace bpvec::dnn
