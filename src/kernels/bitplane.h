// Bit-plane packing: the memory layout that turns the paper's slice-major
// NBVE feed (bitslice/bit_slicing.h) into word-level CPU parallelism.
//
// A row of b-bit operands becomes b bit-planes; plane p of a row is a
// contiguous run of 64-bit words where bit i of word w holds bit p of
// element 64·w + i. One word therefore covers 64 lanes of one
// significance position — exactly the α = 1 degenerate case of the NBVE
// slice-major layout (each NBVE sees a full-length sub-vector of one
// significance position; here each popcount sees 64 lanes of one bit).
//
// With two's-complement weights per plane (2^p for the low planes,
// −2^(b−1) for the sign plane), a dot product expands into the same
// double sum as paper Eq. 2/Eq. 4:
//
//   Σ_k x_k·w_k = Σ_p Σ_q 2^(p+q)·σ_p·σ_q · popcount(X_p & W_q)
//
// where σ is ±1 sign-plane weighting — evaluated exactly in int64, so
// packed kernels are bit-identical to the integer reference operators.
// This file only packs; the double sum itself is kernels::planes_dot
// (simd.h), which every packed kernel reaches through the blocked GEMM
// tile loop in packed_kernels.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "src/dnn/gemm_lowering.h"

namespace bpvec::kernels {

/// A matrix of `rows` operand vectors (length `cols`, `bits` wide each)
/// packed into bit-planes. Storage is row-major, then plane-major, then
/// word-major: plane p of row r starts at data[(r·bits + p)·words].
/// Tail lanes beyond `cols` are zero in every plane, so they never
/// survive the AND in a dot product.
struct BitPlanes {
  std::int64_t rows = 0;
  std::int64_t cols = 0;       // logical lanes per row
  int bits = 0;                // operand bitwidth b
  bool is_signed = true;       // sign plane carries −2^(b−1) weight
  std::size_t words = 0;       // ceil(cols / 64)
  std::vector<std::uint64_t> data;  // [rows · bits · words]

  const std::uint64_t* plane(std::int64_t row, int p) const {
    return data.data() +
           (static_cast<std::size_t>(row) * bits + static_cast<std::size_t>(p)) *
               words;
  }
};

/// Weight of significance plane `p` in the recomposition sum: 2^p for the
/// low planes; for signed operands the top plane carries −2^(bits−1)
/// (the two's-complement sign weight, mirroring bitslice::slice_signed's
/// signed top-slice convention at α = 1).
std::int64_t plane_weight(int p, int bits, bool is_signed);

/// Packs a row-major span of `rows`×`cols` values into bit-planes —
/// the primitive behind every other packer, exported so callers with
/// contiguous data (a raw weight vector, a gate slice, a scratch window
/// tile) can pack WITHOUT first copying into a dnn::Matrix. Each value
/// must be representable in `bits` (signed two's-complement or unsigned,
/// matching `is_signed`); out-of-range values throw.
BitPlanes pack_values(const std::int32_t* values, std::int64_t rows,
                      std::int64_t cols, int bits, bool is_signed = true);

/// Packs every row of `m` into bit-planes (pack_values over m.data).
BitPlanes pack_rows(const dnn::Matrix& m, int bits, bool is_signed = true);

/// Packs a single vector (one-row convenience).
BitPlanes pack_vector(const std::vector<std::int32_t>& values, int bits,
                      bool is_signed = true);

/// Recomposes element `i` of row `row` — the packing inverse, used by
/// tests to prove pack ∘ unpack is the identity.
std::int64_t unpack_element(const BitPlanes& planes, std::int64_t row,
                            std::int64_t i);

}  // namespace bpvec::kernels
