// End-to-end functional verification: whole quantized networks through the
// reference path vs the CVU-backed GEMM path must be bit-identical.
#include "src/dnn/runner.h"

#include <gtest/gtest.h>

#include "src/bitslice/cvu.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/core/gemm_executor.h"
#include "src/dnn/quantize.h"

namespace bpvec::dnn {
namespace {

/// A ResNet-style miniature: conv → pool → conv (stride) → conv 1×1 → fc,
/// with mixed bitwidths like Table I's heterogeneous regime.
Network tiny_net() {
  Network net("tiny-mixed", NetworkType::kCnn);
  net.add(make_conv("conv1", {2, 12, 12, 4, 3, 3, 1, 1}));
  net.add(make_pool("pool1", {4, 12, 12, 2, 2}));
  net.add(make_conv("conv2", {4, 6, 6, 8, 3, 3, 2, 1}));
  net.add(make_conv("conv3", {8, 3, 3, 8, 1, 1, 1, 0}));
  net.add(make_fc("fc", {8 * 3 * 3, 10}));
  auto& layers = net.layers();
  layers[0].x_bits = 8;
  layers[0].w_bits = 8;
  layers[2].x_bits = 4;
  layers[2].w_bits = 4;
  layers[3].x_bits = 4;
  layers[3].w_bits = 2;
  layers[4].x_bits = 8;
  layers[4].w_bits = 8;
  return net;
}

Tensor random_input(const Network& net, std::uint64_t seed) {
  Rng rng(seed);
  const auto& first = net.layers().front().conv();
  Tensor t(first.in_c, first.in_h, first.in_w);
  for (auto& v : t.data()) {
    v = rng.signed_value(net.layers().front().x_bits);
  }
  return t;
}

TEST(Runner, ReferencePathProducesQuantizedActivations) {
  const Network net = tiny_net();
  const auto weights = random_weights(net, 1);
  const auto acts = run_network(net, random_input(net, 2), weights);
  ASSERT_EQ(acts.size(), net.layers().size());
  for (std::size_t i = 0; i < acts.size(); ++i) {
    const int bits = net.layers()[i].x_bits;
    const std::int32_t hi = (1 << (bits - 1)) - 1;
    const std::int32_t lo = -(1 << (bits - 1));
    for (auto v : acts[i].data()) {
      EXPECT_GE(v, lo) << net.layers()[i].name;
      EXPECT_LE(v, hi) << net.layers()[i].name;
    }
  }
}

TEST(Runner, ShapesPropagate) {
  const Network net = tiny_net();
  const auto acts =
      run_network(net, random_input(net, 3), random_weights(net, 3));
  EXPECT_EQ(acts[0].shape_string(), "4x12x12");
  EXPECT_EQ(acts[1].shape_string(), "4x6x6");
  EXPECT_EQ(acts[2].shape_string(), "8x3x3");
  EXPECT_EQ(acts[3].shape_string(), "8x3x3");
  EXPECT_EQ(acts[4].shape_string(), "10x1x1");
}

TEST(Runner, ActivationsAreNotDegenerate) {
  // Guard against a requant shift that saturates or zeroes everything —
  // the verification below would pass vacuously otherwise.
  const Network net = tiny_net();
  const auto acts =
      run_network(net, random_input(net, 4), random_weights(net, 4));
  for (std::size_t i = 0; i < acts.size(); ++i) {
    int distinct = 0;
    std::int32_t first = acts[i].data()[0];
    for (auto v : acts[i].data()) distinct += (v != first);
    EXPECT_GT(distinct, 0) << "layer " << i << " collapsed to a constant";
  }
}

TEST(Runner, CvuPathIsBitIdenticalToReference) {
  const Network net = tiny_net();
  const Tensor input = random_input(net, 5);
  const auto weights = random_weights(net, 5);

  const auto reference = run_network(net, input, weights);

  bitslice::Cvu cvu({2, 8, 16});
  const GemmEngine engine = [&cvu](const Matrix& a, const Matrix& b, int xb,
                                   int wb) {
    return core::execute_gemm(cvu, a, b, xb, wb);
  };
  const auto through_cvu = run_network(net, input, weights, engine);

  ASSERT_EQ(reference.size(), through_cvu.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].data(), through_cvu[i].data())
        << "layer " << net.layers()[i].name;
  }
}

class RunnerSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunnerSeeds, CvuEquivalenceAcrossSeeds) {
  const Network net = tiny_net();
  const Tensor input = random_input(net, GetParam());
  const auto weights = random_weights(net, GetParam() ^ 0xabcdef);

  bitslice::Cvu cvu({2, 8, 16});
  const GemmEngine engine = [&cvu](const Matrix& a, const Matrix& b, int xb,
                                   int wb) {
    return core::execute_gemm(cvu, a, b, xb, wb);
  };
  const auto a = run_network(net, input, weights);
  const auto b = run_network(net, input, weights, engine);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].data(), b[i].data());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunnerSeeds,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(Runner, RecurrentLayersRejected) {
  Network net("r", NetworkType::kRnn);
  net.add(make_recurrent("rnn",
                         {RecurrentCellKind::kVanillaRnn, 4, 4, 2}));
  Tensor input(1, 1, 4);
  EXPECT_THROW(run_network(net, input, {}), Error);
}

TEST(Runner, RandomWeightsMatchLayerShapesAndBitwidths) {
  const Network net = tiny_net();
  const auto weights = random_weights(net, 9);
  ASSERT_EQ(weights.size(), 4u);  // conv1, conv2, conv3, fc
  std::size_t wi = 0;
  for (const auto& l : net.layers()) {
    if (l.kind == LayerKind::kPool) continue;
    const auto& w = weights[wi++].values;
    EXPECT_EQ(static_cast<std::int64_t>(w.size()), l.weights());
    const std::int32_t hi = (1 << (l.w_bits - 1)) - 1;
    for (auto v : w) {
      EXPECT_GE(v, -hi - 1);
      EXPECT_LE(v, hi);
    }
  }
}


TEST(RunRecurrent, ReferenceAndCvuPathsBitIdentical) {
  const Layer layer = make_recurrent(
      "rnn", {RecurrentCellKind::kVanillaRnn, 12, 10, 8});
  Layer quantized = layer;
  quantized.x_bits = 4;
  quantized.w_bits = 4;

  Rng rng(31);
  LayerWeights w;
  w.values = rng.signed_vector(
      static_cast<std::size_t>(quantized.weights()), 4);
  std::vector<std::vector<std::int32_t>> inputs;
  for (int t = 0; t < 8; ++t) inputs.push_back(rng.signed_vector(12, 4));

  const auto reference = run_recurrent(quantized, inputs, w);

  bitslice::Cvu cvu({2, 8, 16});
  const GemmEngine engine = [&cvu](const Matrix& a, const Matrix& b, int xb,
                                   int wb) {
    return core::execute_gemm(cvu, a, b, xb, wb);
  };
  const auto through_cvu = run_recurrent(quantized, inputs, w, engine);
  ASSERT_EQ(reference.size(), through_cvu.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    EXPECT_EQ(reference[t], through_cvu[t]) << "step " << t;
  }
}

TEST(RunRecurrent, HiddenStateEvolvesAndStaysQuantized) {
  const Layer layer = [] {
    Layer l = make_recurrent(
        "rnn", {RecurrentCellKind::kVanillaRnn, 6, 5, 10});
    l.x_bits = 4;
    l.w_bits = 4;
    return l;
  }();
  Rng rng(41);
  LayerWeights w;
  w.values = rng.signed_vector(static_cast<std::size_t>(layer.weights()), 4);
  std::vector<std::vector<std::int32_t>> inputs;
  for (int t = 0; t < 10; ++t) inputs.push_back(rng.signed_vector(6, 4));

  const auto trace = run_recurrent(layer, inputs, w);
  ASSERT_EQ(trace.size(), 10u);
  bool changed = false;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    for (auto v : trace[t]) {
      EXPECT_GE(v, -8);
      EXPECT_LE(v, 7);
    }
    if (t > 0 && trace[t] != trace[t - 1]) changed = true;
  }
  EXPECT_TRUE(changed) << "recurrence froze";
}

TEST(RunRecurrent, RejectsLstmAndBadShapes) {
  const Layer lstm =
      make_recurrent("l", {RecurrentCellKind::kLstm, 4, 4, 2});
  EXPECT_THROW(run_recurrent(lstm, {{0, 0, 0, 0}, {0, 0, 0, 0}}, {}),
               Error);
  const Layer rnn = make_recurrent(
      "r", {RecurrentCellKind::kVanillaRnn, 4, 4, 2});
  LayerWeights w;
  w.values.assign(static_cast<std::size_t>(rnn.weights()), 1);
  EXPECT_THROW(run_recurrent(rnn, {{1, 1, 1, 1}}, w), Error);  // T mismatch
}

TEST(CalibrationShift, SmallestShiftThatFits) {
  // 100 needs shift 4 to fit signed 4-bit (100 >> 4 = 6 ≤ 7).
  EXPECT_EQ(calibration_shift({100, -3, 7}, 4), 4);
  // Already in range: no shift (the bound is symmetric: |v| ≤ 2^(b-1)-1).
  EXPECT_EQ(calibration_shift({7, -7, 0}, 4), 0);
  // Negative extremes count by magnitude.
  EXPECT_EQ(calibration_shift({-1024}, 8), 4);  // 1024 >> 4 = 64 ≤ 127
  // Empty set: nothing to fit.
  EXPECT_EQ(calibration_shift({}, 8), 0);
}

TEST(CalibrationShift, ShiftedValuesAlwaysRepresentable) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::int64_t> acc;
    for (int i = 0; i < 64; ++i) acc.push_back(rng.uniform(-1e9, 1e9));
    for (int bits : {2, 4, 8}) {
      const int s = calibration_shift(acc, bits);
      const std::int64_t limit = (std::int64_t{1} << (bits - 1)) - 1;
      // The runner's actual path (shift + round + clamp) stays in range
      // and mostly avoids the clamp rails.
      std::int64_t max_abs = 0;
      for (auto a : acc) {
        const std::int32_t q = requantize(a, s, bits);
        EXPECT_GE(q, -limit - 1);
        EXPECT_LE(q, limit);
        max_abs = std::max(max_abs, std::abs(a));
      }
      EXPECT_LE(max_abs >> s, limit);  // calibration criterion
      // Minimality: one less shift would overflow (unless s == 0).
      if (s > 0) {
        EXPECT_GT(max_abs >> (s - 1), limit);
      }
    }
  }
}

}  // namespace
}  // namespace bpvec::dnn
