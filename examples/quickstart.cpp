// Quickstart: the three faces of the library in ~60 lines.
//
//  1. Functional — slice two integer vectors and compute an exact dot
//     product through a Composable Vector Unit.
//  2. Composition — see how the same silicon reconfigures for narrower
//     bitwidths and what throughput that buys.
//  3. Performance — simulate a real network on the Table-II platform.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/example_quickstart
#include <cstdio>

#include "src/bitslice/cvu.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/sim/simulator.h"

int main() {
  using namespace bpvec;

  // ---- 1. Exact arithmetic through bit-parallel vector composability.
  const sim::AcceleratorConfig config = sim::bpvec_accelerator();
  bitslice::Cvu cvu(config.cvu);
  const std::vector<std::int32_t> x{12, -7, 33, 101, -128, 5, 90, -44};
  const std::vector<std::int32_t> w{3, 14, -9, 27, 127, -61, 8, 2};

  const auto result = cvu.dot_product(x, w, /*x_bits=*/8, /*w_bits=*/8);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    expected += static_cast<std::int64_t>(x[i]) * w[i];
  }
  std::printf("dot(x, w) via CVU = %lld (reference %lld) — %s\n",
              static_cast<long long>(result.value),
              static_cast<long long>(expected),
              result.value == expected ? "exact" : "MISMATCH");
  std::printf("  consumed %lld CVU cycle(s), %lld narrow multiplies\n",
              static_cast<long long>(result.cycles),
              static_cast<long long>(result.mult_ops));

  // ---- 2. Dynamic composition: same silicon, narrower operands.
  std::puts("\nComposition plans (16 NBVEs, 2-bit slices, L = 16):");
  for (auto [xb, wb] : {std::pair{8, 8}, {8, 2}, {4, 4}, {2, 2}}) {
    const auto plan = bitslice::plan_composition(config.cvu, xb, wb);
    std::printf("  %db x %db : %2d cluster(s) -> %4d elements/cycle "
                "(%2.0fx vs 8-bit)\n",
                xb, wb, plan.clusters, plan.elements_per_cycle(),
                plan.speedup_vs_max_bitwidth());
  }

  // ---- 3. End-to-end simulation of a Table-I workload.
  const auto net = dnn::make_resnet18(dnn::BitwidthMode::kHeterogeneous);
  const auto run =
      sim::Simulator(config, engine::make_memory(engine::Memory::kDdr4))
          .run(net);
  std::printf("\n%s on %s/%s: %.2f ms, %.2f mJ, %.0f GOps/s, %.0f GOps/W\n",
              net.name().c_str(), run.platform.c_str(), run.memory.c_str(),
              run.runtime_s * 1e3, run.energy_j * 1e3, run.gops_per_s,
              run.gops_per_w);
  return 0;
}
