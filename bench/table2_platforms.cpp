// Reproduces Table II: the evaluated hardware platforms, plus the derived
// core power/area that justify the MAC counts under the shared 250 mW
// budget.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/arch/cvu_cost.h"
#include "src/backend/gpu_backend.h"

int main() {
  using namespace bpvec;
  std::puts("Table II: Evaluated hardware platforms (paper Table II)");

  const arch::CvuCostModel cost;
  Table t("ASIC platforms");
  t.set_header({"Chip", "# of MACs", "Architecture", "On-chip memory",
                "Frequency", "Technology", "Core power (model)"});
  for (const auto& c : {sim::tpu_like_baseline(), sim::bitfusion_accelerator(),
                        sim::bpvec_accelerator()}) {
    const double power_mw = c.pe_energy_per_cycle_pj(cost) * c.num_pes() *
                            c.frequency_hz * 1e-9;
    t.add_row({c.name, std::to_string(c.equivalent_macs()), "Systolic",
               std::to_string(c.scratchpad_bytes / 1024) + " KB", "500 MHz",
               "45 nm", Table::num(power_mw, 0) + " mW"});
  }
  t.print();

  const backend::GpuSpec g;
  Table gt("GPU platform");
  gt.set_header({"GPU", "# of Tensor Cores", "Architecture", "Memory",
                 "Frequency", "Technology"});
  gt.add_row({g.name, std::to_string(g.tensor_cores), "Turing",
              "11 GB (GDDR6)", "1545 MHz", "12 nm"});
  gt.print();

  std::puts("\nAll three ASIC platforms share the 250 mW core budget; the"
            " CVU's lower per-MAC power is what lets BPVeC integrate 1024"
            " MAC-equivalents where the baseline fits 512.");
  return 0;
}
