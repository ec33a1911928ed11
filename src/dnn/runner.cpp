#include "src/dnn/runner.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/dnn/gemm_lowering.h"
#include "src/dnn/quantize.h"
#include "src/dnn/reference_ops.h"

namespace bpvec::dnn {

int calibration_shift(const std::vector<std::int64_t>& accumulators,
                      int bits) {
  BPVEC_CHECK(bits >= 2 && bits <= 31);
  std::int64_t max_abs = 0;
  for (std::int64_t a : accumulators) {
    max_abs = std::max(max_abs, a >= 0 ? a : -a);
  }
  int shift = 0;
  const std::int64_t limit = (std::int64_t{1} << (bits - 1)) - 1;
  while ((max_abs >> shift) > limit) ++shift;
  return shift;
}

namespace {

/// Runs one GEMM through the injected engine, or the reference loop.
std::vector<std::int64_t> dispatch_gemm(const Matrix& a, const Matrix& b,
                                        int x_bits, int w_bits,
                                        const GemmEngine& engine) {
  return engine ? engine(a, b, x_bits, w_bits) : gemm_reference(a, b);
}

Tensor accumulators_to_tensor(const std::vector<std::int64_t>& acc,
                              int out_c, int out_h, int out_w,
                              bool gemm_layout, int shift, int out_bits) {
  Tensor t(out_c, out_h, out_w);
  for (int c = 0; c < out_c; ++c) {
    for (int y = 0; y < out_h; ++y) {
      for (int x = 0; x < out_w; ++x) {
        const std::int64_t m = static_cast<std::int64_t>(y) * out_w + x;
        const std::int64_t idx =
            gemm_layout ? m * out_c + c
                        : (static_cast<std::int64_t>(c) * out_h + y) * out_w +
                              x;
        t.at(c, y, x) = requantize(acc[static_cast<std::size_t>(idx)],
                                   shift, out_bits);
      }
    }
  }
  return t;
}

}  // namespace

namespace {

/// Re-scales activations down when the consuming layer runs at a narrower
/// precision than the producing one (the inter-layer requantization step
/// of every mixed-precision inference pipeline, e.g. the 8-bit → 4-bit
/// boundary after the first layer in Table I's heterogeneous CNNs).
void align_precision(Tensor& t, int& current_bits, int target_bits) {
  if (current_bits <= target_bits) {
    current_bits = std::max(current_bits, 0);
    return;
  }
  const int shift = current_bits - target_bits;
  for (auto& v : t.data()) {
    v = requantize(v, shift, target_bits);
  }
  current_bits = target_bits;
}

}  // namespace

std::vector<Tensor> run_network(const Network& net, const Tensor& input,
                                const std::vector<LayerWeights>& weights,
                                const GemmEngine& engine) {
  std::vector<Tensor> activations;
  Tensor current = input;
  std::size_t w_index = 0;
  int current_bits =
      net.layers().empty() ? 8 : net.layers().front().x_bits;

  for (const Layer& layer : net.layers()) {
    switch (layer.kind) {
      case LayerKind::kConv: {
        BPVEC_CHECK(w_index < weights.size());
        align_precision(current, current_bits, layer.x_bits);
        const auto& p = layer.conv();
        const auto& w = weights[w_index++].values;
        const auto acc =
            dispatch_gemm(im2col(current, p), weights_as_matrix(w, p),
                          layer.x_bits, layer.w_bits, engine);
        const int shift = calibration_shift(acc, layer.x_bits);
        current = accumulators_to_tensor(acc, p.out_c, p.out_h(), p.out_w(),
                                         /*gemm_layout=*/true, shift,
                                         layer.x_bits);
        current_bits = layer.x_bits;
        break;
      }
      case LayerKind::kFullyConnected: {
        BPVEC_CHECK(w_index < weights.size());
        align_precision(current, current_bits, layer.x_bits);
        const auto& p = layer.fc();
        BPVEC_CHECK_MSG(current.size() == p.in_features,
                        "fc input size mismatch: " + layer.name);
        const auto& w = weights[w_index++].values;
        Matrix a{1, p.in_features, current.data()};
        Matrix b{p.out_features, p.in_features, w};
        const auto acc =
            dispatch_gemm(a, b, layer.x_bits, layer.w_bits, engine);
        const int shift = calibration_shift(acc, layer.x_bits);
        current = accumulators_to_tensor(acc, p.out_features, 1, 1,
                                         /*gemm_layout=*/true, shift,
                                         layer.x_bits);
        current_bits = layer.x_bits;
        break;
      }
      case LayerKind::kPool: {
        current = pool_reference(current, layer.pool());
        break;
      }
      case LayerKind::kRecurrent:
        throw Error("run_network does not execute recurrent layers; use "
                    "rnn_step_reference for cell-level verification");
    }
    activations.push_back(current);
  }
  return activations;
}

std::vector<std::vector<std::int32_t>> run_recurrent(
    const Layer& layer,
    const std::vector<std::vector<std::int32_t>>& inputs,
    const LayerWeights& weights, const GemmEngine& engine) {
  const auto& p = layer.recurrent();
  BPVEC_CHECK_MSG(p.cell == RecurrentCellKind::kVanillaRnn,
                  "run_recurrent executes vanilla RNN cells only");
  BPVEC_CHECK(static_cast<int>(inputs.size()) == p.time_steps);
  BPVEC_CHECK(static_cast<std::int64_t>(weights.values.size()) ==
              layer.weights());
  const int k = p.input_size + p.hidden_size;

  std::vector<std::vector<std::int32_t>> trace;
  trace.reserve(inputs.size());
  std::vector<std::int32_t> hidden(
      static_cast<std::size_t>(p.hidden_size), 0);

  Matrix w{p.hidden_size, k, weights.values};
  for (const auto& x_t : inputs) {
    BPVEC_CHECK(static_cast<int>(x_t.size()) == p.input_size);
    Matrix a{1, k, {}};
    a.data = x_t;
    a.data.insert(a.data.end(), hidden.begin(), hidden.end());
    const auto acc =
        dispatch_gemm(a, w, layer.x_bits, layer.w_bits, engine);
    const int shift = calibration_shift(acc, layer.x_bits);
    for (int n = 0; n < p.hidden_size; ++n) {
      hidden[static_cast<std::size_t>(n)] = requantize(
          acc[static_cast<std::size_t>(n)], shift, layer.x_bits);
    }
    trace.push_back(hidden);
  }
  return trace;
}

std::vector<LayerWeights> random_weights(const Network& net,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LayerWeights> weights;
  for (const Layer& layer : net.layers()) {
    if (layer.kind != LayerKind::kConv &&
        layer.kind != LayerKind::kFullyConnected) {
      continue;
    }
    LayerWeights w;
    w.values = rng.signed_vector(
        static_cast<std::size_t>(layer.weights()), layer.w_bits);
    weights.push_back(std::move(w));
  }
  return weights;
}

}  // namespace bpvec::dnn
