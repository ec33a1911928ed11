// Shared test helper: the Fig. 4 sweep. Every (slice width, lanes)
// geometry at 8-bit maximum precision, slice widths outer and lanes
// inner, priced one point at a time with core::price_design_point — the
// same loop bench/fig4_design_space runs.
#pragma once

#include <vector>

#include "src/core/design_space.h"

namespace bpvec {

/// An empty `mix` leaves every point's mix_utilization at its 1.0 default.
inline std::vector<core::DesignPoint> sequential_sweep(
    const std::vector<int>& slice_widths, const std::vector<int>& lanes,
    const std::vector<core::BitwidthMixEntry>& mix = {}) {
  std::vector<core::DesignPoint> points;
  for (int alpha : slice_widths) {
    for (int l : lanes) {
      const bitslice::CvuGeometry g{alpha, 8, l};
      points.push_back(mix.empty() ? core::price_design_point(g)
                                   : core::price_design_point(g, mix));
    }
  }
  return points;
}

}  // namespace bpvec
