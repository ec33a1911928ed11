// Ablation: spatial vector composability (this paper) vs temporal
// bit-serial composability (Stripes / Loom — paper Fig. 1 taxonomy, §V).
//
// Both design styles reach bitwidth-proportional throughput; they differ
// in *where* the flexibility cost sits: the CVU pays a (vector-amortized)
// shift/aggregation network and keeps single-cycle MACs; bit-serial
// engines pay latency (bw cycles per MAC) and lean on lane count.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/arch/cvu_cost.h"
#include "src/backend/bit_serial_backend.h"
#include "src/sim/config.h"

int main() {
  using namespace bpvec;
  std::puts(
      "Ablation: spatial (BPVeC CVU) vs temporal (bit-serial) "
      "composability\nper-MAC metrics normalized to a conventional 8-bit "
      "MAC; throughput per engine of 16 lanes");

  const arch::CvuCostModel model;
  const bitslice::CvuGeometry cvu{2, 8, 16};
  const backend::BitSerialConfig stripes{
      backend::SerialMode::kActivationSerial, 16, 8};
  const backend::BitSerialConfig loom{
      backend::SerialMode::kFullySerial, 16, 8};
  const auto stripes_cost =
      backend::bit_serial_cost(arch::tech_45nm(), stripes);
  const auto loom_cost = backend::bit_serial_cost(arch::tech_45nm(), loom);
  const auto cvu_cost = model.normalized_per_mac(cvu);

  Table c("Cost per 8bx8b MAC (power x, area x; lower is better)");
  c.set_header({"Design style", "Power/op", "Area-time/op"});
  c.add_row({"BPVeC CVU (spatial vector)", Table::ratio(cvu_cost.power_total()),
             Table::ratio(cvu_cost.area_total())});
  c.add_row({"Stripes-like (activation-serial)",
             Table::ratio(stripes_cost.power_per_mac),
             Table::ratio(stripes_cost.area_per_mac)});
  c.add_row({"Loom-like (fully serial)",
             Table::ratio(loom_cost.power_per_mac),
             Table::ratio(loom_cost.area_per_mac)});
  c.print();

  std::puts("");
  Table t("Effective MACs/cycle per 16-lane engine vs operand bitwidths");
  t.set_header({"x_bits x w_bits", "CVU (clusters x L)", "Stripes-like",
                "Loom-like"});
  const sim::AcceleratorConfig bp = sim::bpvec_accelerator();
  for (auto [xb, wb] :
       {std::pair{8, 8}, {8, 4}, {4, 4}, {8, 2}, {2, 2}}) {
    const double cvu_rate =
        bp.composability_boost(xb, wb) * 16.0;  // one CVU, L = 16
    t.add_row({std::to_string(xb) + "x" + std::to_string(wb),
               Table::num(cvu_rate, 0),
               Table::num(stripes.macs_per_cycle(xb, wb), 1),
               Table::num(loom.macs_per_cycle(xb, wb), 2)});
  }
  t.print();

  std::puts(
      "\nReading: the CVU matches/precedes the temporal designs' bitwidth"
      " proportionality (and Loom's quadratic scaling only catches up at"
      " 2x2) while each of its MACs still completes in one cycle — no"
      " serial latency to hide, no extra lanes needed to recover it.");
  return 0;
}
