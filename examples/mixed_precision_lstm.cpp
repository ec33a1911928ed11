// Heterogeneous-bitwidth LSTM inference: the workload class the paper's
// intro motivates (bandwidth-starved recurrent models) across all four
// design points — {BitFusion, BPVeC} × {DDR4, HBM2} — plus a functional
// check that a quantized recurrent step through the CVU is bit-exact.
#include <cstdio>

#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/core/gemm_executor.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/reference_ops.h"
#include "src/engine/scenario.h"
#include "src/sim/simulator.h"

int main() {
  using namespace bpvec;

  // ---- Functional: one 4-bit LSTM-gate GEMV through the CVU.
  Rng rng(2024);
  const int hidden = 64, input = 32;
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(hidden * (hidden + input)), 4);
  const auto x = rng.signed_vector(input, 4);
  const auto h = rng.signed_vector(hidden, 4);

  dnn::Matrix act{1, input + hidden, {}};
  act.data = x;
  act.data.insert(act.data.end(), h.begin(), h.end());
  dnn::Matrix wmat{hidden, input + hidden, weights};

  bitslice::Cvu cvu({2, 8, 16});
  const auto gate_acc = core::execute_gemm(cvu, act, wmat, 4, 4);
  const auto reference =
      dnn::rnn_step_reference(x, h, weights, hidden, /*shift=*/0,
                              /*out_bits=*/16);
  bool exact = true;
  for (int n = 0; n < hidden; ++n) {
    exact &= (gate_acc[static_cast<std::size_t>(n)] ==
              reference[static_cast<std::size_t>(n)]);
  }
  std::printf("4-bit recurrent gate through the CVU: %s\n",
              exact ? "bit-exact vs reference" : "MISMATCH");

  // ---- Performance: the Table-I LSTM across the four design points.
  const auto net = dnn::make_lstm(dnn::BitwidthMode::kHeterogeneous);
  const auto s = net.stats();
  std::printf("\n%s: %.1f MB weights, %.1f GOps, %s\n", net.name().c_str(),
              s.model_size_mb_int8, s.multiply_add_gops,
              net.bitwidth_note().c_str());

  Table t("512-step LSTM inference (heterogeneous 4-bit)");
  t.set_header({"Platform", "Memory", "Latency (ms)", "Energy (mJ)",
                "GOps/W", "Bound"});
  for (const auto& config :
       {sim::bitfusion_accelerator(), sim::bpvec_accelerator()}) {
    for (const auto memory : {engine::Memory::kDdr4, engine::Memory::kHbm2}) {
      const auto r =
          sim::Simulator(config, engine::make_memory(memory)).run(net);
      t.add_row({r.platform, r.memory, Table::num(r.runtime_s * 1e3, 2),
                 Table::num(r.energy_j * 1e3, 2),
                 Table::num(r.gops_per_w, 0),
                 r.layers[0].memory_bound ? "memory" : "compute"});
    }
  }
  t.print();

  std::puts("\nUnder DDR4 both accelerators drown streaming 12 MB of gate"
            " weights every 16 time steps; HBM2 frees BPVeC's 4x-composed"
            " CVUs to pull ahead (the paper's Fig. 8 LSTM column).");
  return 0;
}
