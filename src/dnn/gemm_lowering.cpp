#include "src/dnn/gemm_lowering.h"

#include <algorithm>

#include "src/common/error.h"

namespace bpvec::dnn {

Matrix im2col(const Tensor& input, const ConvParams& p) {
  return im2col_rows(input, p, 0,
                     static_cast<std::int64_t>(p.out_h()) * p.out_w());
}

Matrix im2col_rows(const Tensor& input, const ConvParams& p,
                   std::int64_t first, std::int64_t count) {
  BPVEC_CHECK(input.channels() == p.in_c && input.height() == p.in_h &&
              input.width() == p.in_w);
  BPVEC_CHECK(first >= 0 && count >= 0);
  const std::int64_t pixels = static_cast<std::int64_t>(p.out_h()) * p.out_w();
  Matrix m;
  m.rows = std::max<std::int64_t>(0, std::min(count, pixels - first));
  m.cols = static_cast<std::int64_t>(p.in_c) * p.kh * p.kw;
  m.data.assign(static_cast<std::size_t>(m.rows * m.cols), 0);
  for (std::int64_t row = 0; row < m.rows; ++row) {
    const int oy = static_cast<int>((first + row) / p.out_w());
    const int ox = static_cast<int>((first + row) % p.out_w());
    std::int64_t col = 0;
    for (int ic = 0; ic < p.in_c; ++ic) {
      for (int ky = 0; ky < p.kh; ++ky) {
        for (int kx = 0; kx < p.kw; ++kx, ++col) {
          const int iy = oy * p.stride - p.pad + ky;
          const int ix = ox * p.stride - p.pad + kx;
          m.at(row, col) = input.at_padded(ic, iy, ix);
        }
      }
    }
  }
  return m;
}

Matrix weights_as_matrix(const std::vector<std::int32_t>& weights,
                         const ConvParams& p) {
  Matrix m;
  m.rows = p.out_c;
  m.cols = static_cast<std::int64_t>(p.in_c) * p.kh * p.kw;
  BPVEC_CHECK(static_cast<std::int64_t>(weights.size()) == m.rows * m.cols);
  m.data = weights;
  return m;
}

std::vector<std::int64_t> gemm_reference(const Matrix& a, const Matrix& b) {
  BPVEC_CHECK_MSG(a.cols == b.cols, "GEMM inner dimensions disagree");
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.rows * b.rows), 0);
  for (std::int64_t m = 0; m < a.rows; ++m) {
    for (std::int64_t n = 0; n < b.rows; ++n) {
      std::int64_t acc = 0;
      for (std::int64_t k = 0; k < a.cols; ++k) {
        acc += static_cast<std::int64_t>(a.at(m, k)) * b.at(n, k);
      }
      out[static_cast<std::size_t>(m * b.rows + n)] = acc;
    }
  }
  return out;
}

}  // namespace bpvec::dnn
