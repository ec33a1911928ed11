#include "src/kernels/bitplane.h"

#include <algorithm>

#include "src/common/error.h"

namespace bpvec::kernels {

std::int64_t plane_weight(int p, int bits, bool is_signed) {
  BPVEC_CHECK(p >= 0 && p < bits);
  const std::int64_t magnitude = std::int64_t{1} << p;
  return (is_signed && p == bits - 1) ? -magnitude : magnitude;
}

namespace {

/// Bit `p` of each byte of `bytes`, gathered into the low eight bits
/// (byte j → bit j). The multiply moves the bit of byte j to bit 56 + j;
/// every partial product lands on a distinct bit, so nothing carries into
/// the top byte.
inline std::uint64_t gather_bit(std::uint64_t bytes, int p) {
  return (((bytes >> p) & 0x0101010101010101ull) * 0x0102040810204080ull) >>
         56;
}

}  // namespace

BitPlanes pack_values(const std::int32_t* values, std::int64_t rows,
                      std::int64_t cols, int bits, bool is_signed) {
  BPVEC_CHECK_MSG(bits >= 1 && bits <= 16,
                  "bit-plane packing supports 1..16-bit operands");
  BPVEC_CHECK(rows >= 0 && cols >= 0);
  BitPlanes planes;
  planes.rows = rows;
  planes.cols = cols;
  planes.bits = bits;
  planes.is_signed = is_signed;
  planes.words = static_cast<std::size_t>((cols + 63) / 64);
  planes.data.resize(static_cast<std::size_t>(rows) * bits * planes.words);

  // Representable range of a `bits`-wide operand, checked once per
  // 64-value block with one min/max pass.
  const std::int32_t lo = is_signed ? -(std::int32_t{1} << (bits - 1)) : 0;
  const std::int32_t hi = is_signed ? (std::int32_t{1} << (bits - 1)) - 1
                                    : (std::int32_t{1} << bits) - 1;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* row = values + r * cols;
    std::uint64_t* row_base =
        planes.data.data() + static_cast<std::size_t>(r) * bits * planes.words;
    for (std::size_t w = 0; w < planes.words; ++w) {
      const std::int32_t* block = row + w * 64;
      const int n = static_cast<int>(
          std::min<std::int64_t>(64, cols - static_cast<std::int64_t>(w) * 64));
      std::int32_t vmin = block[0], vmax = block[0];
      for (int i = 1; i < n; ++i) {
        vmin = std::min(vmin, block[i]);
        vmax = std::max(vmax, block[i]);
      }
      BPVEC_CHECK_MSG(vmin >= lo && vmax <= hi,
                      is_signed
                          ? "value does not fit signed operand bitwidth"
                          : "value does not fit unsigned operand bitwidth");
      // Two's-complement low `bits` bits; plane_weight() restores the
      // sign weight at recomposition time. Eight lanes at a time: the low
      // and high byte of each value become the byte lanes of two words,
      // and gather_bit() moves one plane's eight bits into place at once.
      // Lanes past `n` stay zero.
      std::uint64_t word[16] = {};
      for (int g = 0; g * 8 < n; ++g) {
        std::uint64_t low_bytes = 0, high_bytes = 0;
        const int m = std::min(8, n - g * 8);
        for (int j = 0; j < m; ++j) {
          const auto u = static_cast<std::uint32_t>(block[g * 8 + j]);
          low_bytes |= static_cast<std::uint64_t>(u & 0xFFu) << (8 * j);
          high_bytes |= static_cast<std::uint64_t>((u >> 8) & 0xFFu)
                        << (8 * j);
        }
        for (int p = 0; p < bits; ++p) {
          word[p] |= gather_bit(p < 8 ? low_bytes : high_bytes, p & 7)
                     << (8 * g);
        }
      }
      for (int p = 0; p < bits; ++p) {
        row_base[static_cast<std::size_t>(p) * planes.words + w] = word[p];
      }
    }
  }
  return planes;
}

BitPlanes pack_rows(const dnn::Matrix& m, int bits, bool is_signed) {
  BPVEC_CHECK(static_cast<std::int64_t>(m.data.size()) == m.rows * m.cols);
  return pack_values(m.data.data(), m.rows, m.cols, bits, is_signed);
}

BitPlanes pack_vector(const std::vector<std::int32_t>& values, int bits,
                      bool is_signed) {
  return pack_values(values.data(), 1,
                     static_cast<std::int64_t>(values.size()), bits,
                     is_signed);
}

std::int64_t unpack_element(const BitPlanes& planes, std::int64_t row,
                            std::int64_t i) {
  BPVEC_CHECK(row >= 0 && row < planes.rows && i >= 0 && i < planes.cols);
  const std::size_t word = static_cast<std::size_t>(i >> 6);
  const int lane = static_cast<int>(i & 63);
  std::int64_t value = 0;
  for (int p = 0; p < planes.bits; ++p) {
    const std::uint64_t bit = (planes.plane(row, p)[word] >> lane) & 1u;
    if (bit) value += plane_weight(p, planes.bits, planes.is_signed);
  }
  return value;
}

}  // namespace bpvec::kernels
