// Narrow-Bitwidth Vector Engine (NBVE): the building block of a CVU
// (paper §III-A, Fig. 3a).
//
// An NBVE is a spatial array of L narrow (α-bit × α-bit) multipliers whose
// products feed a private adder tree, producing one scalar per cycle: the
// dot product of two α-bit-sliced sub-vectors of length ≤ L. This class is
// the *functional* model (bit-exact behaviour); the area/power of the same
// structure is modelled in src/arch/cvu_cost.
#pragma once

#include <cstdint>
#include <span>

#include "src/bitslice/composition.h"

namespace bpvec::bitslice {

class Nbve {
 public:
  /// `lanes` = L, `slice_bits` = α. Both must be >= 1.
  Nbve(int lanes, int slice_bits);

  int lanes() const { return lanes_; }
  int slice_bits() const { return slice_bits_; }

  /// One cycle of the engine: multiplies x[i]·w[i] lane-wise and reduces
  /// through the adder tree. x and w must have equal size ≤ lanes(); unused
  /// lanes are gated off (contribute 0). Slice operands must fit in
  /// slice_bits as signed values when `signed_slice` or unsigned otherwise —
  /// the caller (the CVU) guarantees this by construction; the engine
  /// checks every lane it consumes to model the physical datapath width.
  /// The lanes' range tests fold into one flag per cycle; only a failing
  /// cycle walks its lanes again (reject_cycle), so the error names the
  /// same first bad lane a per-lane check would. Inline, so the CVU's
  /// cycle loop makes no call per cycle.
  std::int64_t dot_cycle(std::span<const std::int32_t> x,
                         std::span<const std::int32_t> w) {
    const std::size_t n = x.size();
    if (n != w.size() || n > static_cast<std::size_t>(lanes_)) [[unlikely]] {
      reject_cycle(x, w);
    }
    // The sums wrap instead of overflowing, so a cycle with a bad lane
    // reaches reject_cycle without undefined behaviour.
    std::uint32_t outside = 0;
    std::int64_t acc = 0;
    if (narrow_) {
      // lanes · max|slice product| <= INT32_MAX (checked on construction):
      // an in-range cycle's sum fits int32, so the wrapped sum is exact.
      // An in-range slice also fits int16 (|slice| <= 255 for α <= 8),
      // so its int16 product is exact too; it multiplies with pmaddwd on
      // baseline x86-64, which has no 32-bit vector multiply.
      std::uint32_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        outside |= out_of_range(x[i]) | out_of_range(w[i]);
        sum += static_cast<std::uint32_t>(
            std::int32_t{static_cast<std::int16_t>(x[i])} *
            static_cast<std::int16_t>(w[i]));
      }
      acc = static_cast<std::int32_t>(sum);
    } else {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        outside |= out_of_range(x[i]) | out_of_range(w[i]);
        sum += static_cast<std::uint64_t>(std::int64_t{x[i]} * w[i]);
      }
      acc = static_cast<std::int64_t>(sum);
    }
    if ((outside >> 31) != 0) [[unlikely]] {
      reject_cycle(x, w);
    }
    mult_ops_ += static_cast<std::int64_t>(n);
    cycles_ += 1;
    return acc;
  }

  /// Cumulative number of multiply operations issued (active lanes only).
  std::int64_t mult_ops() const { return mult_ops_; }
  /// Cumulative number of cycles executed.
  std::int64_t cycles() const { return cycles_; }
  void reset_stats();

 private:
  /// Runs the per-lane checks of one cycle in lane order and throws the
  /// first that fails; called only for a cycle that fails one.
  /// tests/test_cvu.cpp pins the messages of its two range checks,
  /// expression, file and line included.
  [[noreturn]] void reject_cycle(std::span<const std::int32_t> x,
                                 std::span<const std::int32_t> w) const;

  /// Top bit set exactly when `v` lies outside the datapath range
  /// [lo, hi]. With d = v - lo in uint32, v is inside iff d <= hi - lo,
  /// and as hi - lo < 2^31 that holds iff neither d nor hi - lo - d
  /// has its top bit set. ORs of these fold a whole cycle into one flag.
  std::uint32_t out_of_range(std::int32_t v) const {
    const std::uint32_t d = static_cast<std::uint32_t>(v) - lo_;
    return d | (range_ - d);
  }

  int lanes_;
  int slice_bits_;
  // Physical multiplier input range [lo, hi] as uint32: lo_ is lo's
  // two's-complement pattern, range_ is hi - lo.
  std::uint32_t lo_ = 0;
  std::uint32_t range_ = 0;
  bool narrow_ = false;  // a full cycle's sum provably fits int32
  std::int64_t mult_ops_ = 0;
  std::int64_t cycles_ = 0;
};

}  // namespace bpvec::bitslice
