// Reproduces Fig. 1's landscape quantitatively: one representative per
// design style, priced by our models — functional-unit type (scalar vs
// vectorized) × bit flexibility × composability (temporal vs spatial).
// The vacancy the paper fills is the vectorized/flexible/spatial cell.
//
// Two views:
//   1. Per-MAC power/area from the cost models (the seed table).
//   2. Measured end-to-end cycles on AlexNet, priced as ONE mixed
//      cost-backend engine batch ({bpvec, bit_serial, bit_serial_loom}
//      through the unified CostBackend path): the quantization boost
//      column shows temporal designs buying linear speedup at serial
//      latency while spatial composability keeps single-cycle MACs.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/arch/cvu_cost.h"
#include "src/backend/bit_serial_backend.h"

int main() {
  using namespace bpvec;
  using namespace bpvec::bench;
  std::puts(
      "Figure 1 (quantified): the DNN-accelerator design landscape\n"
      "per-8bx8b-MAC power/area normalized to a conventional MAC;\n"
      "'boost@4b' = throughput multiplier with 4-bit operands");

  const arch::CvuCostModel model;
  const auto stripes = backend::bit_serial_cost(
      arch::tech_45nm(), {backend::SerialMode::kActivationSerial, 16, 8});

  Table t;
  t.set_header({"Design style (exemplars)", "Units", "Bit-flexible",
                "Composability", "Power/op", "Area/op", "Boost@4b"});
  t.add_row({"Fixed scalar MAC (TPU/Eyeriss PE)", "scalar", "no", "-",
             Table::ratio(1.0), Table::ratio(1.0), "1x"});
  t.add_row({"Fixed vector engine (Brainwave-like)", "vector", "no", "-",
             Table::ratio(0.85), Table::ratio(0.85), "1x"});
  t.add_row({"Bit-serial (Stripes/Loom)", "vector", "yes", "temporal",
             Table::ratio(stripes.power_per_mac),
             Table::ratio(stripes.area_per_mac), "2x"});
  const auto bitfusion = model.normalized_per_mac({2, 8, 1});
  t.add_row({"Scalar spatial composable (BitFusion)", "scalar", "yes",
             "spatial", Table::ratio(bitfusion.power_total()),
             Table::ratio(bitfusion.area_total()), "4x"});
  const auto bpvec = model.normalized_per_mac({2, 8, 16});
  t.add_row({"BPVeC (this paper)", "vector", "yes", "spatial",
             Table::ratio(bpvec.power_total()),
             Table::ratio(bpvec.area_total()), "4x"});
  t.print();

  // ---- Measured: one mixed-backend batch over AlexNet at 8-bit and
  // quantized bitwidths. Each design style is a (backend, platform) cell
  // of the same engine batch.
  const struct {
    const char* style;
    const char* backend;
    engine::Platform platform;
  } designs[] = {
      {"Fixed scalar MAC", "bpvec", engine::Platform::kTpuLike},
      {"Bit-serial (Stripes)", "bit_serial", engine::Platform::kTpuLike},
      {"Bit-serial (Loom)", "bit_serial_loom", engine::Platform::kTpuLike},
      {"Spatial scalar (BitFusion)", "bpvec", engine::Platform::kBitFusion},
      {"Spatial vector (BPVeC)", "bpvec", engine::Platform::kBpvec},
  };
  const dnn::BitwidthMode modes[] = {dnn::BitwidthMode::kHomogeneous8b,
                                     dnn::BitwidthMode::kHeterogeneous};

  std::vector<engine::Scenario> batch;
  for (const auto& d : designs) {
    for (const auto mode : modes) {
      batch.push_back(engine::make_scenario(d.backend, d.platform,
                                            engine::Memory::kDdr4,
                                            dnn::make_alexnet(mode)));
    }
  }

  engine::SimEngine eng;
  BenchJson json("fig1");
  const auto results = price_batch(eng, batch, json);

  // Compute cycles only: the quantization boost is the compute-side law
  // (bit-serial linear, spatial composability up to 4x, fixed MAC 1x);
  // total cycles would fold in DRAM stalls that don't scale with bits.
  const auto compute_cycles = [](const sim::RunResult& r) {
    std::int64_t cycles = 0;
    for (const auto& l : r.layers) cycles += l.compute_cycles;
    return static_cast<double>(cycles);
  };
  Table m("Measured: AlexNet/DDR4, compute cycles by design style");
  m.set_header({"Design style", "Backend", "Cycles @8b (M)",
                "Cycles @quantized (M)", "Quantization boost"});
  for (std::size_t i = 0; i < std::size(designs); ++i) {
    const auto& at8 = results[2 * i];
    const auto& quant = results[2 * i + 1];
    const double boost = compute_cycles(at8) / compute_cycles(quant);
    m.add_row({designs[i].style, at8.backend,
               Table::num(compute_cycles(at8) / 1e6, 2),
               Table::num(compute_cycles(quant) / 1e6, 2),
               Table::ratio(boost)});
    json.add_metric(std::string("boost_") + designs[i].backend + "_" +
                        to_string(designs[i].platform),
                    boost);
  }
  m.print();

  std::puts(
      "\nNotes: the fixed vector engine shares operand/accumulator\n"
      "registers across lanes (~15% saving) but cannot exploit\n"
      "quantization at all; Stripes gets linear (activation-only) scaling\n"
      "at serial latency; BitFusion pays the ~40% scalar-composability\n"
      "area premium; BPVeC amortizes that same aggregation logic across\n"
      "the vector and ends *cheaper* than the fixed design while keeping\n"
      "the full composability boost — the paper's vacancy, filled.");
  json.write();
  return 0;
}
