// ResNet-18 end to end: per-layer cycle/energy report on BPVeC vs the
// TPU-like baseline, showing where the composable design wins (wide-K
// convolutions) and where memory still rules (the classifier).
#include <cstdio>

#include "src/common/table.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/sim/simulator.h"

int main() {
  using namespace bpvec;

  const auto net = dnn::make_resnet18(dnn::BitwidthMode::kHomogeneous8b);
  const arch::DramModel ddr4 = engine::make_memory(engine::Memory::kDdr4);
  const auto baseline = sim::Simulator(sim::tpu_like_baseline(), ddr4).run(net);
  const auto bpvec = sim::Simulator(sim::bpvec_accelerator(), ddr4).run(net);

  Table t("ResNet-18, homogeneous 8-bit, DDR4 — per-layer");
  t.set_header({"Layer", "MACs (M)", "Base cycles (k)", "BPVeC cycles (k)",
                "Speedup", "BPVeC util", "Bound"});
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    const auto& lb = baseline.layers[i];
    const auto& lv = bpvec.layers[i];
    if (lb.macs == 0) continue;  // skip pools in the table
    t.add_row({lv.name, Table::num(static_cast<double>(lv.macs) / 1e6, 1),
               Table::num(static_cast<double>(lb.total_cycles) / 1e3, 0),
               Table::num(static_cast<double>(lv.total_cycles) / 1e3, 0),
               Table::ratio(static_cast<double>(lb.total_cycles) /
                            static_cast<double>(lv.total_cycles)),
               Table::num(lv.utilization, 2),
               lv.memory_bound ? "memory" : "compute"});
  }
  t.print();

  std::printf("\nTotals: baseline %.2f ms / %.2f mJ  |  BPVeC %.2f ms /"
              " %.2f mJ  ->  %.2fx speedup, %.2fx energy reduction\n",
              baseline.runtime_s * 1e3, baseline.energy_j * 1e3,
              bpvec.runtime_s * 1e3, bpvec.energy_j * 1e3,
              baseline.runtime_s / bpvec.runtime_s,
              baseline.energy_j / bpvec.energy_j);

  std::puts("\nNote how early wide-K 3x3 layers run compute-bound at ~2x,"
            " while the fc classifier (one pass over 0.5 MB of weights per"
            " image) stays memory-bound on both platforms.");
  return 0;
}
