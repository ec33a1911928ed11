#include "src/bitslice/nbve.h"

#include "src/common/error.h"

namespace bpvec::bitslice {

// Physical multiplier input range: a slice is either an unsigned α-bit
// value or (top slice) a signed α-bit value, so any input lies in
// [-2^(α-1), 2^α). The largest |product| is hi², hi = 2^α - 1.
Nbve::Nbve(int lanes, int slice_bits)
    : lanes_(lanes), slice_bits_(slice_bits) {
  BPVEC_CHECK(lanes >= 1);
  BPVEC_CHECK(slice_bits >= 1 && slice_bits <= 8);
  const std::int64_t hi = (std::int64_t{1} << slice_bits) - 1;
  lo_ = ~std::uint32_t{0} << (slice_bits - 1);  // -2^(α-1)
  range_ = static_cast<std::uint32_t>(hi) - lo_;
  narrow_ = lanes * hi * hi <= std::int64_t{INT32_MAX};
}

void Nbve::reject_cycle(std::span<const std::int32_t> x,
                        std::span<const std::int32_t> w) const {
  BPVEC_CHECK_MSG(x.size() == w.size(), "operand sub-vectors differ in size");
  BPVEC_CHECK_MSG(static_cast<int>(x.size()) <= lanes_,
                  "sub-vector longer than NBVE lane count");
  const int lo = -(1 << (slice_bits_ - 1)), hi = (1 << slice_bits_) - 1;
  for (std::size_t i = 0; i < x.size(); ++i) {
    BPVEC_CHECK_MSG(x[i] >= lo && x[i] <= hi, "x slice exceeds datapath");
    BPVEC_CHECK_MSG(w[i] >= lo && w[i] <= hi, "w slice exceeds datapath");
  }
  detail::fail_check("reject_cycle", __FILE__, __LINE__,
                     "cycle rejected with every lane in range");
}

void Nbve::reset_stats() {
  mult_ops_ = 0;
  cycles_ = 0;
}

}  // namespace bpvec::bitslice
