#include "src/core/gemm_executor.h"

#include "src/common/error.h"

namespace bpvec::core {

std::vector<std::int64_t> execute_gemm(bitslice::Cvu& cvu,
                                       const dnn::Matrix& a,
                                       const dnn::Matrix& b, int x_bits,
                                       int w_bits,
                                       GemmExecutionStats* stats) {
  BPVEC_CHECK_MSG(a.cols == b.cols, "GEMM inner dimensions disagree");
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.rows * b.rows));
  GemmExecutionStats s;

  // Slice each operand row once per GEMM: every a row up front, then each
  // b row as its turn comes, one sliced dot product per output. Keeping
  // the a rows (1-2 in a functional probe's check block) rather than the
  // b rows keeps the transient small. Slicing range-checks every element,
  // as the vector overload of Cvu::dot_product would.
  const int alpha = cvu.geometry().slice_bits;
  std::vector<std::int32_t> row;
  const auto slice_row = [&](const dnn::Matrix& mat, std::int64_t r,
                             int bits) {
    const auto first = mat.data.begin() + r * mat.cols;
    row.assign(first, first + mat.cols);
    return bitslice::slice_vector_signed(row, bits, alpha);
  };
  std::vector<bitslice::SlicedVector> x_rows;
  x_rows.reserve(static_cast<std::size_t>(a.rows));
  for (std::int64_t m = 0; m < a.rows; ++m) {
    x_rows.push_back(slice_row(a, m, x_bits));
  }
  for (std::int64_t n = 0; n < b.rows; ++n) {
    const bitslice::SlicedVector ws = slice_row(b, n, w_bits);
    for (std::int64_t m = 0; m < a.rows; ++m) {
      const bitslice::CvuResult r =
          cvu.dot_product(x_rows[static_cast<std::size_t>(m)], ws);
      out[static_cast<std::size_t>(m * b.rows + n)] = r.value;
      s.cvu_cycles += r.cycles;
      s.mult_ops += r.mult_ops;
      s.utilization = r.utilization;
    }
  }
  if (stats != nullptr) *stats = s;
  return out;
}

}  // namespace bpvec::core
