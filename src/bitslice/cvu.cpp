#include "src/bitslice/cvu.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/common/mathutil.h"

namespace bpvec::bitslice {

namespace {
/// One assignment of a plan, resolved for one dot product.
struct Route {
  Nbve* engine;
  const std::int32_t* x;  // the x slice row it reads
  const std::int32_t* w;  // the w slice row it reads
  std::size_t offset;     // cluster · L: its first element in a cycle
  int shift;              // α·(j + k)
};
}  // namespace

Cvu::Cvu(CvuGeometry geometry) : geometry_(geometry) {
  geometry_.validate();
  engines_.reserve(static_cast<std::size_t>(geometry_.num_nbves()));
  for (int i = 0; i < geometry_.num_nbves(); ++i) {
    engines_.emplace_back(geometry_.lanes, geometry_.slice_bits);
  }
}

CompositionPlan Cvu::plan_for(int x_bits, int w_bits) const {
  return plan_composition(geometry_, x_bits, w_bits);
}

CvuResult Cvu::dot_product(const std::vector<std::int32_t>& x,
                           const std::vector<std::int32_t>& w, int x_bits,
                           int w_bits, bool x_signed, bool w_signed) {
  (void)plan_composition(geometry_, x_bits, w_bits);
  const int alpha = geometry_.slice_bits;
  return dot_product(x_signed ? slice_vector_signed(x, x_bits, alpha)
                              : slice_vector_unsigned(x, x_bits, alpha),
                     w_signed ? slice_vector_signed(w, w_bits, alpha)
                              : slice_vector_unsigned(w, w_bits, alpha));
}

CvuResult Cvu::dot_product(const SlicedVector& xs, const SlicedVector& ws) {
  // Every sub-vector of both operands must be as long as xs: the cycle
  // loop below reads them all over [0, xs.length()).
  for (const SlicedVector* v : {&xs, &ws}) {
    for (const std::vector<std::int32_t>& sub : v->sub) {
      BPVEC_CHECK_MSG(sub.size() == xs.length(),
                      "operand vectors differ in length");
    }
  }
  BPVEC_CHECK_MSG(xs.slice_bits == geometry_.slice_bits &&
                      ws.slice_bits == geometry_.slice_bits,
                  "operand slice width differs from the CVU's alpha");
  const CompositionPlan plan =
      plan_composition(geometry_, xs.operand_bits, ws.operand_bits);
  BPVEC_CHECK(xs.slices() == plan.x_slices);
  BPVEC_CHECK(ws.slices() == plan.w_slices);

  CvuResult result;
  result.utilization = plan.utilization();

  // Resolve each assignment's engine, slice rows and cluster offset once
  // per dot product, not once per cycle.
  const std::size_t lanes = static_cast<std::size_t>(geometry_.lanes);
  std::vector<Route> routes;
  routes.reserve(plan.assignments.size());
  for (const NbveAssignment& a : plan.assignments) {
    routes.push_back({&engines_[static_cast<std::size_t>(a.nbve_index)],
                      xs.sub[static_cast<std::size_t>(a.x_slice)].data(),
                      ws.sub[static_cast<std::size_t>(a.w_slice)].data(),
                      static_cast<std::size_t>(a.cluster) * lanes, a.shift});
  }

  const std::size_t n = xs.length();
  const std::size_t per_cycle =
      static_cast<std::size_t>(plan.elements_per_cycle());
  std::int64_t active_lanes = 0;
  for (std::size_t base = 0; base < n; base += per_cycle) {
    // One CVU cycle: each cluster c covers elements
    // [base + c·L, base + (c+1)·L) of the vectors.
    std::int64_t cycle_sum = 0;
    for (const Route& r : routes) {
      const std::size_t seg_begin = std::min(n, base + r.offset);
      const std::size_t len = std::min(n - seg_begin, lanes);
      if (len == 0) continue;
      const std::int64_t partial = r.engine->dot_cycle(
          std::span<const std::int32_t>(r.x + seg_begin, len),
          std::span<const std::int32_t>(r.w + seg_begin, len));
      // Shift by the combined significance position (Eq. 3 factor 2^(j+k)α)
      // and aggregate. Cluster-private vs global aggregation is a hardware
      // cost distinction (see arch::CvuCostModel); the sum is associative,
      // so the functional model folds both levels together.
      cycle_sum += partial << r.shift;
      active_lanes += static_cast<std::int64_t>(len);
      result.shift_ops += 1;
    }
    result.value += cycle_sum;
    result.cycles += 1;
  }
  result.mult_ops = active_lanes;
  result.add_ops = active_lanes;
  return result;
}

}  // namespace bpvec::bitslice
