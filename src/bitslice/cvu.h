// Composable Vector Unit (CVU): a dynamically composable collection of
// NBVEs (paper §III-A, Fig. 3).
//
// Functionally, a CVU evaluates exact integer vector dot-products by
// (1) bit-slicing both operand vectors,
// (2) dispatching each (x-slice, w-slice) significance pair to one NBVE,
// (3) shifting each NBVE's scalar output by α·(j+k), and
// (4) aggregating: first privately within a cluster (completing one
//     dot-product), then globally across clusters (extending the vector).
//
// The same object reports cycle counts under the paper's throughput model:
// per cycle the CVU consumes `clusters · L` elements of the operand
// vectors, where `clusters` grows as operand bitwidths shrink — the
// composability boost that fixed-bitwidth designs cannot reach.
#pragma once

#include <cstdint>
#include <vector>

#include "src/bitslice/bit_slicing.h"
#include "src/bitslice/composition.h"
#include "src/bitslice/nbve.h"

namespace bpvec::bitslice {

/// Outcome of executing one dot product on a CVU.
struct CvuResult {
  std::int64_t value = 0;      // exact dot-product value
  std::int64_t cycles = 0;     // cycles consumed under the throughput model
  std::int64_t mult_ops = 0;   // narrow multiplications actually issued
  std::int64_t shift_ops = 0;  // shift operations issued
  std::int64_t add_ops = 0;    // adder-tree input additions issued
  double utilization = 0.0;    // fraction of NBVEs engaged by the plan
};

class Cvu {
 public:
  explicit Cvu(CvuGeometry geometry);

  const CvuGeometry& geometry() const { return geometry_; }

  /// Exact dot product of x·w where x has `x_bits` and w has `w_bits`
  /// two's-complement bits (or unsigned when the flags say so). Vectors may
  /// be any equal length; the CVU iterates in chunks of
  /// plan.elements_per_cycle(). Validates the plan, slices both vectors
  /// and runs the sliced overload below.
  CvuResult dot_product(const std::vector<std::int32_t>& x,
                        const std::vector<std::int32_t>& w, int x_bits,
                        int w_bits, bool x_signed = true,
                        bool w_signed = true);

  /// The same dot product on operands sliced by the caller, so an operand
  /// reused across many dot products (a GEMM row) is sliced once. The
  /// bitwidths are xs.operand_bits / ws.operand_bits. Throws bpvec::Error
  /// unless the lengths are equal, both slice_bits equal the geometry's α,
  /// the bitwidths have a composition plan, and the slice counts equal the
  /// plan's x_slices / w_slices. Every cycle runs Nbve::dot_cycle on each
  /// engine the plan engages, and each such NBVE cycle range-checks every
  /// lane it consumes: one folded flag per cycle, the lanes walked again
  /// only when it is set, so a bad slice throws the per-lane check's
  /// error for the first bad lane in cycle, assignment, lane order.
  CvuResult dot_product(const SlicedVector& xs, const SlicedVector& ws);

  /// The plan the CVU would use for a bitwidth pair (for inspection).
  CompositionPlan plan_for(int x_bits, int w_bits) const;

 private:
  CvuGeometry geometry_;
  std::vector<Nbve> engines_;
};

}  // namespace bpvec::bitslice
