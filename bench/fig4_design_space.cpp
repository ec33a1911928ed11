// Reproduces Fig. 4: design-space exploration over bit-slice width (1-bit
// vs 2-bit) and NBVE vector length L ∈ {1, 2, 4, 8, 16} — power and area
// per 8-bit × 8-bit MAC, normalized to a conventional 8-bit digital MAC,
// broken down over multiplication / addition / shifting / registering.
//
// Both sweeps are a plain nested loop over core::price_design_point,
// slice widths outer and lanes inner. The full sweep, scored over a
// deep-quantized bitwidth mix, also feeds a power/area/utilization
// dse::ParetoFrontier, and core::best_design's pick is checked to sit on
// it.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/design_space.h"
#include "src/dse/pareto.h"

int main() {
  using namespace bpvec;
  using namespace bpvec::bench;
  std::puts(
      "Figure 4: power/area per 8bx8b MAC vs slice width and vector "
      "length,\nnormalized to a conventional 8-bit MAC (lower is better)");

  BenchJson json("fig4");

  // §III-B conclusion input: the deep-quantized bitwidth mix.
  const std::vector<core::BitwidthMixEntry> mix{
      {8, 8, 0.2}, {4, 4, 0.6}, {8, 2, 0.1}, {2, 2, 0.1}};

  // The Fig. 4 grid, then the full sweep scored over the mix.
  std::vector<core::DesignPoint> points, full;
  for (int alpha : {1, 2}) {
    for (int l : {1, 2, 4, 8, 16}) {
      points.push_back(core::price_design_point({alpha, 8, l}));
    }
  }
  for (int alpha : {1, 2, 4}) {
    for (int l : {1, 2, 4, 8, 16}) {
      full.push_back(core::price_design_point({alpha, 8, l}, mix));
    }
  }

  // The full sweep's frontier trades per-MAC power and area against mix
  // utilization.
  dse::ParetoFrontier frontier({dse::objective(dse::Metric::kMacPower),
                                dse::objective(dse::Metric::kMacArea),
                                dse::objective(dse::Metric::kUtilization)});
  for (std::size_t i = 0; i < full.size(); ++i) {
    dse::Evaluation e;
    e.key = i;
    e.design = full[i];
    e.objectives = {full[i].cost.power_total(), full[i].cost.area_total(),
                    full[i].mix_utilization};
    (void)frontier.insert(e);
  }

  for (const char* metric : {"Power/op", "Area/op"}) {
    const bool power = metric[0] == 'P';
    Table t(metric);
    t.set_header({"Slicing", "L", "Multiplication", "Addition", "Shifting",
                  "Register", "TOTAL"});
    for (const auto& p : points) {
      const auto& c = p.cost;
      t.add_row({std::to_string(p.geometry.slice_bits) + "-bit",
                 std::to_string(p.geometry.lanes),
                 Table::num(power ? c.power_mult : c.area_mult, 3),
                 Table::num(power ? c.power_add : c.area_add, 3),
                 Table::num(power ? c.power_shift : c.area_shift, 3),
                 Table::num(power ? c.power_reg : c.area_reg, 3),
                 Table::ratio(power ? c.power_total() : c.area_total())});
    }
    t.print();
    std::puts("");
  }

  std::puts("Paper anchors: 1-bit L=1 ~3.6x; 2-bit L=16 ~0.5x power /"
            " ~0.59x area; 2-bit L=1 (BitFusion-like) ~1.4x area.");

  for (const auto& p : full) {
    json.add_entry(p.geometry.to_string(),
                   {{"power_total", p.cost.power_total()},
                    {"area_total", p.cost.area_total()},
                    {"mix_utilization", p.mix_utilization}});
  }

  const auto best = core::best_design(full, mix, 0.99);
  // best_design minimizes power·area/util² — a monotone scalarization of
  // the three frontier objectives, so its pick must be non-dominated. A
  // violation means the scalar and multi-objective paths disagree.
  bool best_on_frontier = false;
  for (const auto& e : frontier.entries()) {
    if (e.design.geometry.slice_bits == best.geometry.slice_bits &&
        e.design.geometry.lanes == best.geometry.lanes) {
      best_on_frontier = true;
    }
  }
  if (!best_on_frontier) {
    std::fprintf(stderr, "FAIL: best_design pick %s is not on the Pareto "
                         "frontier\n",
                 best.geometry.to_string().c_str());
    return 1;
  }
  std::printf("\nBest design over the quantized bitwidth mix: %s"
              " (on the Pareto frontier: %zu of %zu points)\n",
              best.geometry.to_string().c_str(), frontier.size(),
              full.size());
  json.add_metric("best_slice_bits", best.geometry.slice_bits);
  json.add_metric("best_lanes", best.geometry.lanes);
  json.add_metric("pareto_frontier_size",
                  static_cast<double>(frontier.size()));
  json.write();
  return 0;
}
