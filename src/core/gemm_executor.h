// Functional GEMM execution on composable vector units.
//
// Runs an M×N×K integer GEMM through a CVU exactly as the hardware would —
// bit-slicing the operands, dispatching slice pairs to NBVEs, shift-adding
// — and aggregates cycle/op statistics. Used to verify that a *lowered,
// quantized layer* executed through the paper's datapath is bit-identical
// to the reference operators.
#pragma once

#include <cstdint>
#include <vector>

#include "src/bitslice/cvu.h"
#include "src/dnn/gemm_lowering.h"

namespace bpvec::core {

struct GemmExecutionStats {
  std::int64_t cvu_cycles = 0;   // serialized on one CVU
  std::int64_t mult_ops = 0;
  double utilization = 0.0;      // NBVE utilization of the plan
};

/// out[m][n] = Σ_k a[m][k] · b[n][k], every dot product executed through
/// `cvu` at the given operand bitwidths. Returns the exact 64-bit results.
/// Each operand row is sliced once per GEMM (all a rows up front, then one
/// b row at a time) and reused across its dot products, so the transient
/// memory is (a.rows · ceil(x_bits/α) + ceil(w_bits/α)) · K int32.
std::vector<std::int64_t> execute_gemm(bitslice::Cvu& cvu,
                                       const dnn::Matrix& a,
                                       const dnn::Matrix& b, int x_bits,
                                       int w_bits,
                                       GemmExecutionStats* stats = nullptr);

}  // namespace bpvec::core
