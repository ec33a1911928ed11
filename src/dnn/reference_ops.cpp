#include "src/dnn/reference_ops.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/dnn/quantize.h"

namespace bpvec::dnn {

std::vector<std::int64_t> conv2d_reference(
    const Tensor& input, const std::vector<std::int32_t>& weights,
    const ConvParams& p) {
  BPVEC_CHECK(input.channels() == p.in_c && input.height() == p.in_h &&
              input.width() == p.in_w);
  BPVEC_CHECK(static_cast<std::int64_t>(weights.size()) ==
              static_cast<std::int64_t>(p.out_c) * p.in_c * p.kh * p.kw);

  const int oh = p.out_h(), ow = p.out_w();
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(p.out_c) * oh * ow, 0);

  // Zero-pad once, so every window load below is in bounds without a
  // per-MAC check. The extent also covers a window that overhangs the
  // padded input: out_h() admits one when in + 2·pad < k and the stride
  // truncates the negative quotient to zero.
  const int ph = std::max(p.in_h + 2 * p.pad, (oh - 1) * p.stride + p.kh);
  const int pw = std::max(p.in_w + 2 * p.pad, (ow - 1) * p.stride + p.kw);
  std::vector<std::int32_t> padded(
      static_cast<std::size_t>(p.in_c) * ph * pw, 0);
  const std::int32_t* src = input.data().data();
  for (int ic = 0; ic < p.in_c; ++ic) {
    for (int y = 0; y < p.in_h; ++y, src += p.in_w) {
      std::copy(src, src + p.in_w,
                padded.begin() +
                    static_cast<std::ptrdiff_t>(
                        (static_cast<std::size_t>(ic) * ph + y + p.pad) * pw +
                        p.pad));
    }
  }

  // One receptive field at a time, gathered in the weights' (ic, ky, kx)
  // order, then dotted with each contiguous [oc][K] weight row.
  const std::size_t k = static_cast<std::size_t>(p.in_c) * p.kh * p.kw;
  std::vector<std::int32_t> field(k);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      std::size_t i = 0;
      for (int ic = 0; ic < p.in_c; ++ic) {
        for (int ky = 0; ky < p.kh; ++ky) {
          const std::int32_t* row =
              padded.data() +
              (static_cast<std::size_t>(ic) * ph + oy * p.stride + ky) * pw +
              ox * p.stride;
          for (int kx = 0; kx < p.kw; ++kx) field[i++] = row[kx];
        }
      }
      for (int oc = 0; oc < p.out_c; ++oc) {
        const std::int32_t* w =
            weights.data() + static_cast<std::size_t>(oc) * k;
        std::int64_t acc = 0;
        for (std::size_t j = 0; j < k; ++j) {
          acc += static_cast<std::int64_t>(field[j]) * w[j];
        }
        out[(static_cast<std::size_t>(oc) * oh + oy) * ow + ox] = acc;
      }
    }
  }
  return out;
}

std::vector<std::int64_t> fc_reference(
    const std::vector<std::int32_t>& input,
    const std::vector<std::int32_t>& weights, const FcParams& p) {
  BPVEC_CHECK(static_cast<int>(input.size()) == p.in_features);
  BPVEC_CHECK(static_cast<std::int64_t>(weights.size()) ==
              static_cast<std::int64_t>(p.in_features) * p.out_features);
  std::vector<std::int64_t> out(static_cast<std::size_t>(p.out_features), 0);
  for (int n = 0; n < p.out_features; ++n) {
    std::int64_t acc = 0;
    for (int k = 0; k < p.in_features; ++k) {
      acc += static_cast<std::int64_t>(input[static_cast<std::size_t>(k)]) *
             weights[static_cast<std::size_t>(n) * p.in_features + k];
    }
    out[static_cast<std::size_t>(n)] = acc;
  }
  return out;
}

Tensor maxpool_reference(const Tensor& input, const PoolParams& p) {
  BPVEC_CHECK(input.channels() == p.channels && input.height() == p.in_h &&
              input.width() == p.in_w);
  Tensor out(p.channels, p.out_h(), p.out_w());
  for (int c = 0; c < p.channels; ++c) {
    for (int oy = 0; oy < p.out_h(); ++oy) {
      for (int ox = 0; ox < p.out_w(); ++ox) {
        std::int32_t best = INT32_MIN;
        for (int ky = 0; ky < p.k; ++ky) {
          for (int kx = 0; kx < p.k; ++kx) {
            const int iy = oy * p.stride + ky;
            const int ix = ox * p.stride + kx;
            if (iy < p.in_h && ix < p.in_w) {
              best = std::max(best, input.at(c, iy, ix));
            }
          }
        }
        out.at(c, oy, ox) = best;
      }
    }
  }
  return out;
}

Tensor avgpool_reference(const Tensor& input, const PoolParams& p) {
  BPVEC_CHECK(input.channels() == p.channels && input.height() == p.in_h &&
              input.width() == p.in_w);
  Tensor out(p.channels, p.out_h(), p.out_w());
  for (int c = 0; c < p.channels; ++c) {
    for (int oy = 0; oy < p.out_h(); ++oy) {
      for (int ox = 0; ox < p.out_w(); ++ox) {
        std::int64_t sum = 0;
        int count = 0;
        for (int ky = 0; ky < p.k; ++ky) {
          for (int kx = 0; kx < p.k; ++kx) {
            const int iy = oy * p.stride + ky;
            const int ix = ox * p.stride + kx;
            if (iy < p.in_h && ix < p.in_w) {
              sum += input.at(c, iy, ix);
              ++count;
            }
          }
        }
        BPVEC_CHECK(count > 0);
        // Round half away from zero so the mean is unbiased for both
        // signs (matches common quantized-inference kernels).
        const std::int64_t half = count / 2;
        out.at(c, oy, ox) = static_cast<std::int32_t>(
            sum >= 0 ? (sum + half) / count : (sum - half) / count);
      }
    }
  }
  return out;
}

Tensor pool_reference(const Tensor& input, const PoolParams& p) {
  return p.kind == PoolKind::kMax ? maxpool_reference(input, p)
                                  : avgpool_reference(input, p);
}

std::vector<std::int32_t> rnn_step_reference(
    const std::vector<std::int32_t>& x, const std::vector<std::int32_t>& h,
    const std::vector<std::int32_t>& weights, int hidden, int shift,
    int out_bits) {
  const int k = static_cast<int>(x.size() + h.size());
  BPVEC_CHECK(static_cast<std::int64_t>(weights.size()) ==
              static_cast<std::int64_t>(hidden) * k);
  std::vector<std::int32_t> out(static_cast<std::size_t>(hidden));
  for (int n = 0; n < hidden; ++n) {
    std::int64_t acc = 0;
    const std::int32_t* row = &weights[static_cast<std::size_t>(n) * k];
    for (std::size_t i = 0; i < x.size(); ++i) acc += std::int64_t{x[i]} * row[i];
    for (std::size_t i = 0; i < h.size(); ++i) {
      acc += std::int64_t{h[i]} * row[x.size() + i];
    }
    out[static_cast<std::size_t>(n)] = requantize(acc, shift, out_bits);
  }
  return out;
}

}  // namespace bpvec::dnn
