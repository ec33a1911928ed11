#include "src/bitslice/bit_slicing.h"

#include "src/common/error.h"
#include "src/common/mathutil.h"

namespace bpvec::bitslice {

int num_slices(int operand_bits, int slice_bits) {
  BPVEC_CHECK(operand_bits >= 1 && slice_bits >= 1);
  return static_cast<int>(ceil_div(operand_bits, slice_bits));
}

int padded_bits(int operand_bits, int slice_bits) {
  return num_slices(operand_bits, slice_bits) * slice_bits;
}

bool fits_signed(std::int64_t value, int bits) {
  BPVEC_CHECK(bits >= 1 && bits <= 62);
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  return value >= lo && value <= hi;
}

bool fits_unsigned(std::int64_t value, int bits) {
  BPVEC_CHECK(bits >= 1 && bits <= 62);
  return value >= 0 && value <= (std::int64_t{1} << bits) - 1;
}

namespace {
// Operands are 32-bit, so a wider operand or slice would shift past the
// value's width.
void check_widths(int operand_bits, int slice_bits) {
  BPVEC_CHECK_MSG(operand_bits >= 1 && operand_bits <= 32,
                  "operand_bits must be in [1, 32]");
  BPVEC_CHECK_MSG(slice_bits >= 1 && slice_bits <= 32,
                  "slice_bits must be in [1, 32]");
}
}  // namespace

std::vector<std::int32_t> slice_signed(std::int32_t value, int operand_bits,
                                       int slice_bits) {
  check_widths(operand_bits, slice_bits);
  BPVEC_CHECK_MSG(fits_signed(value, operand_bits),
                  "value out of range for operand_bits");
  const int n = num_slices(operand_bits, slice_bits);
  const int width = n * slice_bits;
  // Two's-complement pattern of the value at the padded width.
  std::uint64_t pattern =
      static_cast<std::uint64_t>(value) & ((std::uint64_t{1} << width) - 1);

  std::vector<std::int32_t> slices(n);
  const std::uint64_t mask = (std::uint64_t{1} << slice_bits) - 1;
  for (int j = 0; j < n; ++j) {
    std::uint64_t raw = (pattern >> (j * slice_bits)) & mask;
    if (j == n - 1) {
      // Top slice: sign-extend from slice_bits.
      const std::uint64_t sign_bit = std::uint64_t{1} << (slice_bits - 1);
      if (raw & sign_bit) raw |= ~mask;
      slices[j] = static_cast<std::int32_t>(static_cast<std::int64_t>(raw));
    } else {
      slices[j] = static_cast<std::int32_t>(raw);
    }
  }
  return slices;
}

std::vector<std::int32_t> slice_unsigned(std::uint32_t value,
                                         int operand_bits, int slice_bits) {
  check_widths(operand_bits, slice_bits);
  BPVEC_CHECK_MSG(fits_unsigned(static_cast<std::int64_t>(value), operand_bits),
                  "value out of range for operand_bits");
  const int n = num_slices(operand_bits, slice_bits);
  std::vector<std::int32_t> slices(n);
  const std::uint32_t mask = (slice_bits >= 32)
                                 ? ~std::uint32_t{0}
                                 : ((std::uint32_t{1} << slice_bits) - 1);
  for (int j = 0; j < n; ++j) {
    slices[j] = static_cast<std::int32_t>((value >> (j * slice_bits)) & mask);
  }
  return slices;
}

std::int64_t recompose(const std::vector<std::int32_t>& slices,
                       int slice_bits) {
  std::int64_t acc = 0;
  for (std::size_t j = 0; j < slices.size(); ++j) {
    acc += static_cast<std::int64_t>(slices[j])
           << (static_cast<int>(j) * slice_bits);
  }
  return acc;
}

namespace {
// Writes slice j of every element into sv.sub[j], one slice row at a
// time; element for element the same slices as slice_signed /
// slice_unsigned, with no per-element allocation.
SlicedVector slice_vector_impl(const std::vector<std::int32_t>& values,
                               int operand_bits, int slice_bits,
                               bool is_signed) {
  check_widths(operand_bits, slice_bits);
  // The operand's range, once per vector (fits_signed / fits_unsigned).
  // In uint32, v - lo > hi - lo exactly when v lies outside [lo, hi]; an
  // unsigned operand is the int32's bit pattern.
  const std::uint32_t lo =
      is_signed ? ~std::uint32_t{0} << (operand_bits - 1) : 0;
  const std::uint32_t range =
      static_cast<std::uint32_t>((std::uint64_t{1} << operand_bits) - 1);
  std::uint32_t outside = 0;
  for (const std::int32_t v : values) {
    outside |= static_cast<std::uint32_t>(static_cast<std::uint32_t>(v) -
                                          lo > range);
  }
  if (outside != 0) {
    for (const std::int32_t value : values) {
      const std::int64_t v =
          is_signed ? std::int64_t{value}
                    : std::int64_t{static_cast<std::uint32_t>(value)};
      BPVEC_CHECK_MSG(is_signed ? fits_signed(v, operand_bits)
                                : fits_unsigned(v, operand_bits),
                      "value out of range for operand_bits");
    }
  }

  SlicedVector sv;
  sv.operand_bits = operand_bits;
  sv.slice_bits = slice_bits;
  sv.is_signed = is_signed;
  const int n = num_slices(operand_bits, slice_bits);
  sv.sub.assign(n, std::vector<std::int32_t>(values.size()));
  const std::size_t len = values.size();
  const std::int32_t* const in = values.data();
  // Every lower slice sits below bit operand_bits <= 32, so it reads the
  // same bits from the int32 as from the operand's two's-complement
  // pattern.
  for (int j = 0; j + 1 < n; ++j) {
    const int shift = j * slice_bits;
    const std::uint32_t mask = (std::uint32_t{1} << slice_bits) - 1;
    std::int32_t* const out = sv.sub[j].data();
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = static_cast<std::int32_t>(
          (static_cast<std::uint32_t>(in[i]) >> shift) & mask);
    }
  }
  // The value fits operand_bits, so the shift leaves exactly the top
  // slice: sign-extended (arithmetic) when signed, zero-extended when
  // unsigned.
  const int top_shift = (n - 1) * slice_bits;
  std::int32_t* const top = sv.sub[n - 1].data();
  for (std::size_t i = 0; i < len; ++i) {
    top[i] = is_signed ? in[i] >> top_shift
                       : static_cast<std::int32_t>(
                             static_cast<std::uint32_t>(in[i]) >> top_shift);
  }
  return sv;
}
}  // namespace

SlicedVector slice_vector_signed(const std::vector<std::int32_t>& values,
                                 int operand_bits, int slice_bits) {
  return slice_vector_impl(values, operand_bits, slice_bits, /*signed=*/true);
}

SlicedVector slice_vector_unsigned(const std::vector<std::int32_t>& values,
                                   int operand_bits, int slice_bits) {
  return slice_vector_impl(values, operand_bits, slice_bits,
                           /*signed=*/false);
}

std::int64_t recompose_element(const SlicedVector& sv, std::size_t i) {
  BPVEC_CHECK(i < sv.length());
  std::int64_t acc = 0;
  for (int j = 0; j < sv.slices(); ++j) {
    acc += static_cast<std::int64_t>(sv.sub[j][i]) << (j * sv.slice_bits);
  }
  return acc;
}

}  // namespace bpvec::bitslice
