// Ablation: slice width (1/2/4-bit) across bitwidth mixes.
//
// DESIGN.md calls out the 2-bit choice (§III-B observation 3): 4-bit
// slicing is cheaper per CVU but pads sub-4-bit operands, wasting
// bit-level work; 1-bit slicing maximizes flexibility but drowns in
// aggregation cost. This binary quantifies cost × efficiency across mixes.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/design_space.h"

int main() {
  using namespace bpvec;
  std::puts(
      "Ablation: slice width vs bitwidth mix (L = 16, B = 8)\n"
      "score = power/op x area/op / bit-efficiency^2 (lower is better)");

  const struct {
    const char* name;
    std::vector<core::BitwidthMixEntry> mix;
  } mixes[] = {
      {"all 8-bit (homogeneous)", {{8, 8, 1.0}}},
      {"Table-I CNN mix (8b edges, 4b body)", {{8, 8, 0.15}, {4, 4, 0.85}}},
      {"all 4-bit", {{4, 4, 1.0}}},
      {"deep-quantized (4b + 8x2 + 2x2)",
       {{4, 4, 0.5}, {8, 2, 0.25}, {2, 2, 0.25}}},
      {"binary-ish (2-bit everywhere)", {{2, 2, 1.0}}},
  };

  std::vector<core::DesignPoint> points;
  for (int alpha : {1, 2, 4}) {
    points.push_back(core::price_design_point({alpha, 8, 16}));
  }

  for (const auto& m : mixes) {
    Table t(m.name);
    t.set_header({"Slicing", "Power/op", "Area/op", "Bit-efficiency",
                  "Score"});
    for (const auto& p : points) {
      const double util = core::mix_utilization(p.geometry, m.mix);
      const double score = p.cost.power_total() * p.cost.area_total() /
                           (util * util);
      t.add_row({std::to_string(p.geometry.slice_bits) + "-bit",
                 Table::ratio(p.cost.power_total()),
                 Table::ratio(p.cost.area_total()), Table::num(util, 3),
                 Table::num(score, 3)});
    }
    t.print();
    const auto best = core::best_design(points, m.mix, /*min_util=*/0.0);
    std::printf("  -> best: %d-bit slicing\n\n", best.geometry.slice_bits);
  }

  std::puts("Expected: 4-bit wins only when nothing dips below 4 bits;"
            " once 2-bit layers appear, 2-bit slicing dominates — the"
            " paper's design choice.");
  return 0;
}
