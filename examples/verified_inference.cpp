// Verified inference: run a complete quantized CNN twice — once through
// the integer reference operators, once with every GEMM dispatched
// through a real Composable Vector Unit — and check the two are identical
// bit for bit, layer by layer. This is the library's answer to "does the
// composable datapath really compute the same network?"
#include <chrono>
#include <cstdio>

#include "src/bpvec.h"
#include "src/common/rng.h"

int main() {
  using namespace bpvec;

  // A CIFAR-scale mixed-precision CNN (8-bit edges, 4-bit body — the
  // Table-I heterogeneous pattern).
  dnn::Network net("cifar-cnn", dnn::NetworkType::kCnn);
  net.add(dnn::make_conv("conv1", {3, 32, 32, 16, 3, 3, 1, 1}));
  net.add(dnn::make_pool("pool1", {16, 32, 32, 2, 2}));
  net.add(dnn::make_conv("conv2", {16, 16, 16, 32, 3, 3, 1, 1}));
  net.add(dnn::make_pool("pool2", {32, 16, 16, 2, 2}));
  net.add(dnn::make_conv("conv3", {32, 8, 8, 64, 3, 3, 1, 1}));
  net.add(dnn::make_pool("pool3", {64, 8, 8, 2, 2, dnn::PoolKind::kAverage}));
  net.add(dnn::make_fc("fc", {64 * 4 * 4, 10}));
  auto& layers = net.layers();
  for (auto& l : layers) {
    l.x_bits = 4;
    l.w_bits = 4;
  }
  layers.front().x_bits = layers.front().w_bits = 8;
  layers.back().x_bits = layers.back().w_bits = 8;

  const auto stats = net.stats();
  std::printf("%s: %d compute layers, %.2f M MACs, %.0f KB weights\n",
              net.name().c_str(), stats.compute_layers,
              static_cast<double>(stats.total_macs) / 1e6,
              static_cast<double>(stats.total_weights) / 1024.0);

  // Synthetic image + weights (deterministic).
  Rng rng(7);
  dnn::Tensor image(3, 32, 32);
  for (auto& v : image.data()) v = rng.signed_value(8);
  const auto weights = dnn::random_weights(net, 99);

  const auto t0 = std::chrono::steady_clock::now();
  const auto reference = dnn::run_network(net, image, weights);
  const auto t1 = std::chrono::steady_clock::now();

  bitslice::Cvu cvu({2, 8, 16});
  const dnn::GemmEngine engine = [&cvu](const dnn::Matrix& a,
                                        const dnn::Matrix& b, int xb,
                                        int wb) {
    return core::execute_gemm(cvu, a, b, xb, wb);
  };
  const auto through_cvu = dnn::run_network(net, image, weights, engine);
  const auto t2 = std::chrono::steady_clock::now();

  bool identical = true;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].data() != through_cvu[i].data()) {
      identical = false;
      std::printf("  MISMATCH at layer %s\n", net.layers()[i].name.c_str());
    }
  }
  const auto ms = [](auto a, auto b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  std::printf("reference path: %.1f ms | CVU path: %.1f ms | %s\n",
              ms(t0, t1), ms(t1, t2),
              identical ? "BIT-IDENTICAL across all layers" : "MISMATCH");

  // And what the accelerator would do with it, per Table II.
  const auto run = sim::Simulator(sim::bpvec_accelerator(),
                                  engine::make_memory(engine::Memory::kDdr4))
                       .run(net);
  std::printf("simulated on BPVeC/DDR4: %.0f cycles (%.1f us), %.1f uJ\n",
              static_cast<double>(run.total_cycles), run.runtime_s * 1e6,
              run.energy_j * 1e6);
  return identical ? 0 : 1;
}
