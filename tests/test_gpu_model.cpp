// The RTX 2080 Ti roofline model (Table II, Fig. 9), layer by layer
// through GpuBackend::price_layer and whole networks through
// GpuBackend::run.
#include "src/backend/gpu_backend.h"

#include <gtest/gtest.h>

#include "src/dnn/model_zoo.h"

namespace bpvec::backend {
namespace {

TEST(GpuSpec, PeakRates) {
  const GpuSpec s;
  // 544 cores × 64 MACs × 1.545 GHz ≈ 53.8 T MACs/s INT8.
  EXPECT_NEAR(s.peak_macs_per_s(8), 544 * 64 * 1.545e9, 1e6);
  // INT4 doubles the rate (Turing).
  EXPECT_DOUBLE_EQ(s.peak_macs_per_s(4), 2.0 * s.peak_macs_per_s(8));
  EXPECT_DOUBLE_EQ(s.peak_macs_per_s(2), s.peak_macs_per_s(4));
}

TEST(GpuModel, ConvLayersComputeScaled) {
  const GpuSpec spec;
  const GpuBackend gpu(spec);
  const auto conv = dnn::make_conv("c", {64, 56, 56, 64, 3, 3, 1, 1});
  const auto t = gpu.price_layer(conv);
  EXPECT_GT(t.runtime_s, spec.kernel_overhead_us * 1e-6);
  EXPECT_FALSE(t.memory_bound);
}

TEST(GpuModel, FcLayersBandwidthBound) {
  const GpuSpec spec;
  const GpuBackend gpu(spec);
  const auto fc = dnn::make_fc("fc", {9216, 4096});
  const auto t = gpu.price_layer(fc);
  EXPECT_TRUE(t.memory_bound);
  // Time at least the weight-streaming bound.
  const double bw =
      spec.memory_bandwidth_gbps * 1e9 * spec.gemv_bandwidth_fraction;
  EXPECT_GE(t.runtime_s, 9216.0 * 4096 / bw);
}

TEST(GpuModel, RecurrentPaysPerStepOverhead) {
  const GpuSpec spec;
  const GpuBackend gpu(spec);
  auto rnn = dnn::make_recurrent(
      "r", {dnn::RecurrentCellKind::kVanillaRnn, 256, 256, 100});
  const double t100 = gpu.price_layer(rnn).runtime_s;
  rnn = dnn::make_recurrent(
      "r", {dnn::RecurrentCellKind::kVanillaRnn, 256, 256, 200});
  const double t200 = gpu.price_layer(rnn).runtime_s;
  EXPECT_NEAR(t200 / t100, 2.0, 1e-6);
  EXPECT_GE(t100, 100 * spec.kernel_overhead_us * 1e-6);
}

TEST(GpuModel, PoolIsFused) {
  const GpuBackend gpu;
  const auto pool = dnn::make_pool("p", {64, 56, 56, 2, 2});
  const auto t = gpu.price_layer(pool);
  EXPECT_DOUBLE_EQ(t.runtime_s, 0.0);
  EXPECT_EQ(t.total_cycles, 0);
  EXPECT_DOUBLE_EQ(t.energy.total_pj(), 0.0);
}

TEST(GpuModel, Int4ModeSpeedsUpConvNets) {
  const GpuBackend gpu;
  const auto homog =
      gpu.run(dnn::make_resnet50(dnn::BitwidthMode::kHomogeneous8b));
  const auto heter =
      gpu.run(dnn::make_resnet50(dnn::BitwidthMode::kHeterogeneous));
  EXPECT_LT(heter.runtime_s, homog.runtime_s);
}

TEST(GpuModel, RealisticBatchOneLatencies) {
  const GpuBackend gpu;
  // Sanity band: batch-1 TensorRT-class latencies are hundreds of µs to a
  // few ms for these CNNs, tens of ms for the 512-step recurrent models.
  const auto rn18 =
      gpu.run(dnn::make_resnet18(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_GT(rn18.runtime_s, 100e-6);
  EXPECT_LT(rn18.runtime_s, 10e-3);
  const auto rnn = gpu.run(dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_GT(rnn.runtime_s, 10e-3);
  EXPECT_LT(rnn.runtime_s, 300e-3);
}

TEST(GpuModel, RnnEfficiencyFarBelowCnns) {
  // The Fig. 9 driver: GEMV-shaped recurrent nets waste the GPU.
  const GpuBackend gpu;
  const auto rn50 =
      gpu.run(dnn::make_resnet50(dnn::BitwidthMode::kHomogeneous8b));
  const auto lstm =
      gpu.run(dnn::make_lstm(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_GT(rn50.gops_per_w / lstm.gops_per_w, 3.0);
}

TEST(GpuModel, MetricsConsistent) {
  const GpuSpec spec;
  const GpuBackend gpu(spec);
  const auto r = gpu.run(dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_NEAR(r.gops_per_w, r.gops_per_s / spec.board_power_w, 1e-9);
  EXPECT_GT(r.gops_per_s, 0.0);
}

}  // namespace
}  // namespace bpvec::backend
