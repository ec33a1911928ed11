// Lowering of convolution to GEMM (im2col) — the form the systolic array
// executes. Produces explicit matrices so the CVU-backed functional path
// can run a real layer and be compared against conv2d_reference.
#pragma once

#include <cstdint>
#include <vector>

#include "src/dnn/layer.h"
#include "src/dnn/tensor.h"

namespace bpvec::dnn {

/// Row-major M×K matrix of int32 values.
struct Matrix {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int32_t> data;

  std::int32_t& at(std::int64_t r, std::int64_t c) {
    return data[static_cast<std::size_t>(r * cols + c)];
  }
  std::int32_t at(std::int64_t r, std::int64_t c) const {
    return data[static_cast<std::size_t>(r * cols + c)];
  }
};

/// im2col: patches matrix of shape [out_h·out_w, in_c·kh·kw]. Row m holds
/// the receptive field of output pixel m (zero-padded at borders).
Matrix im2col(const Tensor& input, const ConvParams& p);

/// Rows [first, first + count) of im2col(input, p), clamped to the last
/// output pixel (so the result may have fewer than `count` rows, or
/// none). Costs O(count·K) rather than O(out_h·out_w·K): the functional
/// backend's CVU cross-check reads only a few rows.
Matrix im2col_rows(const Tensor& input, const ConvParams& p,
                   std::int64_t first, std::int64_t count);

/// Reshapes [out_c][in_c][kh][kw] weights into [out_c, in_c·kh·kw].
Matrix weights_as_matrix(const std::vector<std::int32_t>& weights,
                         const ConvParams& p);

/// Plain GEMM on int matrices: out[m][n] = Σ_k a[m][k] · b[n][k]
/// (b in "weights-row per output" layout). 64-bit accumulation.
std::vector<std::int64_t> gemm_reference(const Matrix& a, const Matrix& b);

}  // namespace bpvec::dnn
