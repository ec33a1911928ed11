// Two's-complement bit-slicing: the arithmetic identity behind bit-parallel
// vector composability (paper §II, Eqs. 1–4).
//
// A signed `n`-bit value v is split into ceil(n/α) slices of α bits each.
// Slice j covers bit positions [α·j, α·(j+1)). Lower slices are interpreted
// as unsigned α-bit values; the most-significant slice is interpreted as a
// signed α-bit value (it carries the two's-complement sign weight). With
// that convention,
//
//   v = Σ_j 2^(α·j) · slice_j                                    (exact)
//
// and a product of two sliced values expands into the double sum of
// Eq. 2/Eq. 4, which the CVU evaluates with narrow multipliers + shift-add.
#pragma once

#include <cstdint>
#include <vector>

namespace bpvec::bitslice {

/// Number of α-bit slices needed to cover an `operand_bits`-wide value.
int num_slices(int operand_bits, int slice_bits);

/// Smallest multiple of `slice_bits` that covers `operand_bits`.
int padded_bits(int operand_bits, int slice_bits);

/// Splits a signed two's-complement value into α-bit slices, least
/// significant slice first. `value` must be representable in `operand_bits`
/// bits. Lower slices are returned zero-extended (in [0, 2^α)), the top
/// slice sign-extended (in [-2^(α-1), 2^(α-1))). Operands are 32-bit:
/// `operand_bits` and `slice_bits` outside [1, 32] throw bpvec::Error (as
/// they do for every slicing function below).
std::vector<std::int32_t> slice_signed(std::int32_t value, int operand_bits,
                                       int slice_bits);

/// Splits an unsigned value into α-bit slices; every slice zero-extended.
std::vector<std::int32_t> slice_unsigned(std::uint32_t value,
                                         int operand_bits, int slice_bits);

/// Inverse of slicing: Σ_j 2^(α·j)·slice_j.
std::int64_t recompose(const std::vector<std::int32_t>& slices,
                       int slice_bits);

/// True iff `value` is representable as a signed `bits`-wide integer.
bool fits_signed(std::int64_t value, int bits);

/// True iff `value` is representable as an unsigned `bits`-wide integer.
bool fits_unsigned(std::int64_t value, int bits);

/// A sliced vector: slice-major layout. sub[j][i] is slice j of element i.
/// Keeping sub-vectors contiguous mirrors how the hardware feeds one slice
/// index to one NBVE (each NBVE sees a full-length sub-vector of one
/// significance position).
struct SlicedVector {
  int operand_bits = 0;   // original (unpadded) bitwidth
  int slice_bits = 0;     // α
  bool is_signed = true;  // interpretation of the original values
  std::vector<std::vector<std::int32_t>> sub;  // [num_slices][n]

  int slices() const { return static_cast<int>(sub.size()); }
  std::size_t length() const { return sub.empty() ? 0 : sub[0].size(); }
};

/// Slices every element of `values` (signed interpretation); element for
/// element the same slices as slice_signed, built in place.
SlicedVector slice_vector_signed(const std::vector<std::int32_t>& values,
                                 int operand_bits, int slice_bits);

/// Slices every element of `values` (unsigned interpretation). Values must
/// be non-negative and fit `operand_bits` unsigned bits.
SlicedVector slice_vector_unsigned(const std::vector<std::int32_t>& values,
                                   int operand_bits, int slice_bits);

/// Recomposes element `i` of a sliced vector.
std::int64_t recompose_element(const SlicedVector& sv, std::size_t i);

}  // namespace bpvec::bitslice
