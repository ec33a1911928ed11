// Integer reference operators (direct, unlowered). These are the ground
// truth the packed kernels and the CVU-backed execution path are verified
// against.
//
// Oracle contract: every operator here is a plain scalar loop nest over
// int32 operands with int64 accumulation — no intrinsics, no bit-plane
// packing, and no code shared with dnn::im2col or src/kernels, so a bug
// in the lowering or the kernels cannot hide by appearing on both sides
// of a check. Speed comes only from memory layout: conv2d_reference pads
// its input once and gathers each receptive field contiguously, so the
// inner loop is a bounds-check-free dot product.
#pragma once

#include <cstdint>
#include <vector>

#include "src/dnn/layer.h"
#include "src/dnn/tensor.h"

namespace bpvec::dnn {

/// Direct convolution. `weights` is laid out [out_c][in_c][kh][kw].
/// Output element (oc, oy, ox) = Σ in(ic, oy·s − pad + ky, ox·s − pad + kx)
/// · w(oc, ic, ky, kx), 64-bit accumulation returned per element
/// ([out_c][out_h][out_w]). Extra memory: one zero-padded copy of the
/// input plus one in_c·kh·kw receptive-field buffer.
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
/// h' = clamp(Wx·x + Wh·h >> shift). Weights: [hidden][input+hidden].
std::vector<std::int32_t> rnn_step_reference(
    const std::vector<std::int32_t>& x, const std::vector<std::int32_t>& h,
    const std::vector<std::int32_t>& weights, int hidden, int shift,
    int out_bits);

}  // namespace bpvec::dnn
