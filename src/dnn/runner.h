// Functional network runner: executes a whole quantized network layer by
// layer, either through the reference integer operators or through a
// CVU-backed GEMM path, with symmetric requantization between layers.
//
// This is the end-to-end numerical verification substrate: the two paths
// must agree bit for bit on every layer of every network shape, proving
// that an accelerator built from composable vector units computes exactly
// what the model specifies (the paper's correctness premise, which it
// asserts but cannot demonstrate without RTL simulation).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/dnn/gemm_lowering.h"
#include "src/dnn/network.h"
#include "src/dnn/tensor.h"

namespace bpvec::dnn {

/// Weights for one compute layer, in the layer's canonical layout.
struct LayerWeights {
  std::vector<std::int32_t> values;
};

/// A GEMM engine the runner dispatches every conv/FC/recurrent GEMM
/// through: (a, b, x_bits, w_bits) → out[m·b.rows + n] = Σ_k a[m][k]·b[n][k]
/// as exact 64-bit accumulators, gemm_reference's contract (e.g. a
/// wrapper around core::execute_gemm on a CVU).
using GemmEngine = std::function<std::vector<std::int64_t>(
    const Matrix&, const Matrix&, int, int)>;

/// Executes `net` on `input` with the given per-layer weights.
/// `engine == nullptr` runs every conv/FC GEMM through gemm_reference;
/// otherwise through `engine`.
/// After every layer, accumulators are requantized to the layer's
/// activation bitwidth with a *calibrated* right-shift (chosen from the
/// observed accumulator magnitudes, as post-training quantization does) —
/// deterministic, so the reference and CVU paths stay bit-identical.
/// Activations are additionally down-shifted at precision boundaries
/// (e.g. the 8-bit → 4-bit seam in Table I's heterogeneous CNNs).
/// Recurrent layers are rejected (use rnn_step_reference for cells).
std::vector<Tensor> run_network(const Network& net, const Tensor& input,
                                const std::vector<LayerWeights>& weights,
                                const GemmEngine& engine = nullptr);

/// Deterministic synthetic weights for every compute layer of `net`,
/// drawn at each layer's weight bitwidth.
std::vector<LayerWeights> random_weights(const Network& net,
                                         std::uint64_t seed);

/// The calibrated requantization shift for a set of layer accumulators:
/// the smallest shift that brings the largest magnitude into the signed
/// `bits` range (0 when everything already fits).
int calibration_shift(const std::vector<std::int64_t>& accumulators,
                      int bits);

/// Executes a vanilla-RNN layer step by step:
///   h_t = requantize(W · [x_t ; h_{t−1}])
/// with a per-step calibrated shift (identical across execution paths
/// because both paths produce identical accumulators). `inputs` is
/// [time_steps][input_size]; the initial hidden state is zero. Returns the
/// hidden state after every step. LSTM cells are rejected — their
/// element-wise gate nonlinearities are outside the dot-product datapath
/// this library models (verify their gate GEMVs via run_recurrent on an
/// equivalent vanilla cell or execute_gemm directly).
std::vector<std::vector<std::int32_t>> run_recurrent(
    const Layer& layer,
    const std::vector<std::vector<std::int32_t>>& inputs,
    const LayerWeights& weights, const GemmEngine& engine = nullptr);

}  // namespace bpvec::dnn
