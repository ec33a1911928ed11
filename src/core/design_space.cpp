#include "src/core/design_space.h"

#include <algorithm>
#include <limits>

#include "src/common/error.h"

namespace bpvec::core {

DesignPoint price_design_point(const bitslice::CvuGeometry& geometry) {
  const arch::CvuCostModel cost;
  DesignPoint p;
  p.geometry = geometry;
  p.cost = cost.normalized_per_mac(geometry);
  return p;
}

DesignPoint price_design_point(const bitslice::CvuGeometry& geometry,
                               const std::vector<BitwidthMixEntry>& mix) {
  DesignPoint p = price_design_point(geometry);
  p.mix_utilization = mix_utilization(geometry, mix);
  return p;
}

double mix_utilization(const bitslice::CvuGeometry& geometry,
                       const std::vector<BitwidthMixEntry>& mix) {
  BPVEC_CHECK(!mix.empty());
  double total_weight = 0.0;
  double acc = 0.0;
  for (const auto& e : mix) {
    const auto plan =
        bitslice::plan_composition(geometry, e.x_bits, e.w_bits);
    acc += plan.bit_efficiency() * e.weight;
    total_weight += e.weight;
  }
  BPVEC_CHECK(total_weight > 0.0);
  return acc / total_weight;
}

DesignPoint best_design(const std::vector<DesignPoint>& points,
                        const std::vector<BitwidthMixEntry>& mix,
                        double min_utilization) {
  if (points.empty()) throw Error("best_design: empty point set");
  const DesignPoint* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  double best_util_seen = 0.0;
  for (const auto& p : points) {
    const double util = mix_utilization(p.geometry, mix);
    best_util_seen = std::max(best_util_seen, util);
    if (util + 1e-12 < min_utilization) continue;
    // Power·area per effective MAC: divide by utilization so idle NBVEs
    // count against a design.
    const double score =
        p.cost.power_total() * p.cost.area_total() / (util * util);
    if (score < best_score) {
      best_score = score;
      best = &p;
    }
  }
  if (best == nullptr) {
    throw Error("best_design: no design point meets min_utilization=" +
                std::to_string(min_utilization) + " (best utilization over " +
                std::to_string(points.size()) +
                " points: " + std::to_string(best_util_seen) + ")");
  }
  DesignPoint result = *best;
  result.mix_utilization = mix_utilization(result.geometry, mix);
  return result;
}

}  // namespace bpvec::core
