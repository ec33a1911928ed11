#include "src/dnn/reference_ops.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/dnn/quantize.h"

namespace bpvec::dnn {

namespace {

/// Largest |v| over v[0, n), as an unsigned value so that |INT32_MIN| =
/// 2^31 is exact.
std::uint32_t max_magnitude(const std::int32_t* v, std::size_t n) {
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto sign = static_cast<std::uint32_t>(v[i] >> 31);
    m = std::max(m, (static_cast<std::uint32_t>(v[i]) ^ sign) - sign);
  }
  return m;
}

/// The narrow path (int16 operands, int32 sums) is exact when
/// max|x| ≤ INT16_MAX, max|w| ≤ INT16_MAX and k·max|x|·max|w| ≤
/// INT32_MAX: every product is then at most max|x|·max|w| in magnitude,
/// so no partial sum of at most k of them, in any order, can leave
/// int32. Given max|x| and k, this returns the largest max|w| the bound
/// admits, or −1 when max|x| alone rules the narrow path out.
std::int32_t weight_limit(std::uint32_t max_x, std::size_t k) {
  if (max_x > INT16_MAX) return -1;
  const std::uint64_t x_sum = std::uint64_t{max_x} * k;  // k·max|x|
  return static_cast<std::int32_t>(
      x_sum == 0 ? INT16_MAX
                 : std::min<std::uint64_t>(INT16_MAX, INT32_MAX / x_sum));
}

/// True when every |w[i]| ≤ limit (false for a negative limit unless
/// n = 0). Comparing against weight_limit is cheaper than finding
/// max|w|, since the weights are the larger operand.
bool within(const std::int32_t* w, std::size_t n, std::int32_t limit) {
  int outside = 0;
  for (std::size_t i = 0; i < n; ++i) {
    outside |= (w[i] < -limit) | (w[i] > limit);
  }
  return outside == 0;
}

/// Σ a[j]·b[j] over j < k: each operand read from storage type S as T
/// and multiplied in Acc. Instantiated narrow (T = int16, Acc = int32;
/// only behind weight_limit's bound, so the casts and the sum are
/// exact) and wide (T = int32, Acc = int64). The narrow form is the
/// widening multiply-add pattern the compiler vectorizes.
template <typename T, typename Acc, typename S>
Acc dot(const S* a, const S* b, std::size_t k) {
  Acc acc = 0;
  for (std::size_t j = 0; j < k; ++j) {
    acc += static_cast<Acc>(static_cast<T>(a[j])) * static_cast<T>(b[j]);
  }
  return acc;
}

/// Bytes of receptive fields gathered per block (at least one field).
/// A block this small stays in cache while every weight row passes over
/// it, and never needs a large allocation.
constexpr std::size_t kFieldBlockBytes = 32 * 1024;

/// conv2d_reference's loop nest with operands stored as T and an Acc
/// accumulator.
template <typename T, typename Acc>
void conv_windows(const Tensor& input, const std::vector<std::int32_t>& weights,
                  const ConvParams& p, std::int64_t* out) {
  const int oh = p.out_h(), ow = p.out_w();
  // Zero-pad once, so every window load below is in bounds without a
  // per-MAC check. The extent also covers a window that overhangs the
  // padded input: out_h() admits one when in + 2·pad < k and the stride
  // truncates the negative quotient to zero.
  const int ph = std::max(p.in_h + 2 * p.pad, (oh - 1) * p.stride + p.kh);
  const int pw = std::max(p.in_w + 2 * p.pad, (ow - 1) * p.stride + p.kw);
  std::vector<T> padded(static_cast<std::size_t>(p.in_c) * ph * pw, 0);
  const std::int32_t* src = input.data().data();
  for (int ic = 0; ic < p.in_c; ++ic) {
    for (int y = 0; y < p.in_h; ++y, src += p.in_w) {
      T* dst = padded.data() +
               (static_cast<std::size_t>(ic) * ph + y + p.pad) * pw + p.pad;
      for (int x = 0; x < p.in_w; ++x) dst[x] = static_cast<T>(src[x]);
    }
  }

  // A block of receptive fields at a time, each gathered contiguously in
  // the weights' (ic, ky, kx) order. Each [K] weight row is then copied
  // as T once per block and dotted with every field of the block; a
  // probe's 16 windows fit one block up to K = 1024.
  const std::size_t k = static_cast<std::size_t>(p.in_c) * p.kh * p.kw;
  const std::size_t windows = static_cast<std::size_t>(oh) * ow;
  const std::size_t block = std::max<std::size_t>(
      1, kFieldBlockBytes / (std::max<std::size_t>(k, 1) * sizeof(T)));
  std::vector<T> fields(std::min(block, windows) * k);
  std::vector<T> row(k);
  for (std::size_t w0 = 0; w0 < windows; w0 += block) {
    const std::size_t n = std::min(block, windows - w0);
    for (std::size_t f = 0; f < n; ++f) {
      const int oy = static_cast<int>((w0 + f) / ow);
      const int ox = static_cast<int>((w0 + f) % ow);
      T* field = fields.data() + f * k;
      for (int ic = 0; ic < p.in_c; ++ic) {
        for (int ky = 0; ky < p.kh; ++ky) {
          const T* in_row =
              padded.data() +
              (static_cast<std::size_t>(ic) * ph + oy * p.stride + ky) * pw +
              ox * p.stride;
          for (int kx = 0; kx < p.kw; ++kx) *field++ = in_row[kx];
        }
      }
    }
    for (int oc = 0; oc < p.out_c; ++oc) {
      const std::int32_t* w = weights.data() + static_cast<std::size_t>(oc) * k;
      for (std::size_t j = 0; j < k; ++j) row[j] = static_cast<T>(w[j]);
      std::int64_t* out_row = out + static_cast<std::size_t>(oc) * windows + w0;
      for (std::size_t f = 0; f < n; ++f) {
        out_row[f] = dot<T, Acc>(fields.data() + f * k, row.data(), k);
      }
    }
  }
}

}  // namespace

std::vector<std::int64_t> conv2d_reference(
    const Tensor& input, const std::vector<std::int32_t>& weights,
    const ConvParams& p) {
  BPVEC_CHECK(input.channels() == p.in_c && input.height() == p.in_h &&
              input.width() == p.in_w);
  BPVEC_CHECK(static_cast<std::int64_t>(weights.size()) ==
              static_cast<std::int64_t>(p.out_c) * p.in_c * p.kh * p.kw);

  std::vector<std::int64_t> out(
      static_cast<std::size_t>(p.out_c) * p.out_h() * p.out_w(), 0);
  const std::size_t k = static_cast<std::size_t>(p.in_c) * p.kh * p.kw;
  const std::vector<std::int32_t>& in = input.data();
  if (within(weights.data(), weights.size(),
             weight_limit(max_magnitude(in.data(), in.size()), k))) {
    conv_windows<std::int16_t, std::int32_t>(input, weights, p, out.data());
  } else {
    conv_windows<std::int32_t, std::int64_t>(input, weights, p, out.data());
  }
  return out;
}

std::vector<std::int64_t> fc_reference(
    const std::vector<std::int32_t>& input,
    const std::vector<std::int32_t>& weights, const FcParams& p) {
  BPVEC_CHECK(static_cast<int>(input.size()) == p.in_features);
  BPVEC_CHECK(static_cast<std::int64_t>(weights.size()) ==
              static_cast<std::int64_t>(p.in_features) * p.out_features);
  const auto k = static_cast<std::size_t>(p.in_features);
  const std::int32_t limit =
      weight_limit(max_magnitude(input.data(), input.size()), k);
  std::vector<std::int64_t> out(static_cast<std::size_t>(p.out_features), 0);
  for (int n = 0; n < p.out_features; ++n) {
    // Each weight is read once, so the narrow path narrows in registers
    // instead of copying, and each row is checked just before its dot,
    // which then reads it from cache.
    const std::int32_t* w = weights.data() + static_cast<std::size_t>(n) * k;
    out[static_cast<std::size_t>(n)] =
        within(w, k, limit)
            ? dot<std::int16_t, std::int32_t>(input.data(), w, k)
            : dot<std::int32_t, std::int64_t>(input.data(), w, k);
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
    std::span<const std::int32_t> weights, int hidden, int shift,
    int out_bits) {
  const std::size_t k = x.size() + h.size();
  BPVEC_CHECK(static_cast<std::int64_t>(weights.size()) ==
              static_cast<std::int64_t>(hidden) * static_cast<std::int64_t>(k));
  const std::int32_t limit =
      weight_limit(std::max(max_magnitude(x.data(), x.size()),
                            max_magnitude(h.data(), h.size())),
                   k);
  std::vector<std::int32_t> out(static_cast<std::size_t>(hidden));
  for (int n = 0; n < hidden; ++n) {
    const std::int32_t* row = weights.data() + static_cast<std::size_t>(n) * k;
    const std::int32_t* row_h = row + x.size();
    // Checked per row, as in fc_reference. Under the bound the two int32
    // partial sums and their total stay within k·max|x|·max|w|.
    const std::int64_t acc =
        within(row, k, limit)
            ? std::int64_t{dot<std::int16_t, std::int32_t>(x.data(), row,
                                                           x.size()) +
                           dot<std::int16_t, std::int32_t>(h.data(), row_h,
                                                           h.size())}
            : dot<std::int32_t, std::int64_t>(x.data(), row, x.size()) +
                  dot<std::int32_t, std::int64_t>(h.data(), row_h, h.size());
    out[static_cast<std::size_t>(n)] = requantize(acc, shift, out_bits);
  }
  return out;
}

}  // namespace bpvec::dnn
