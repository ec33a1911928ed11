// Packed-kernel throughput: the bit-plane popcount GEMM vs the scalar
// CVU executor vs the plain reference GEMM, on the AlexNet conv shapes
// (full accumulation depth K, output tile bounded so the scalar CVU
// finishes in seconds). Every path is verified bit-identical before its
// numbers are reported — a fast wrong kernel is worthless.
//
// Beyond the CVU anchor this bench measures the kernel design against
// two baselines that live only here, in the SAME run (no cross-machine
// constants):
//   * the blocked GEMM vs gemm_per_pair — every output walks its bits²
//     plane pairs with one 1-plane planes_dot call each, over full K —
//     on pre-packed planes (metrics.geomean_blocked_vs_unblocked; CI
//     gates >= 1.0);
//   * im2col-free direct conv vs conv_im2col — materialize the patch
//     matrix, pack it, packed_gemm, transpose — on downscaled AlexNet
//     conv layers: wall time (metrics.geomean_direct_vs_im2col,
//     recorded, not gated) AND analytic peak transient bytes
//     (metrics.conv_peak_bytes_ratio_max; CI gates < 1.0).
//
// Emits BENCH_functional_kernels.json with per-shape GMAC/s at 1 and N
// threads plus speedups over the scalar CVU path; CI gates on
// metrics.min_speedup_vs_scalar >= 4. Two ungated metrics track the
// functional hot path against the honest baseline: pack_ns_per_elem
// (pack_rows alone over the same tiles) and
// geomean_packed_1t_vs_reference (packed GEMM including packing, over
// the int32 gemm_reference, same run; CI gates >= 1.0). The reference
// ops themselves are measured against bench-local copies of their
// int64-only loops (conv_reference_wide, fc_reference_wide) on the conv
// and fc tiles: metrics.geomean_reference_vs_wide, CI gates >= 1.0.
// The scalar CVU executor itself is measured against a bench-local copy
// of its per-lane-branch loop (cvu_gemm_per_lane: two range branches per
// lane, one out-of-line call per NBVE cycle) on the functional probe's
// 2×8×K check blocks of the same tiles at 8 and 4 bits:
// metrics.geomean_cvu_check_vs_per_lane, CI gates >= 1.0.
// Each side of those three gated ratios is timed in alternating reps of
// one min-of-reps loop (timed_pair), so host noise hits both sides alike.
// The runtime-selected SIMD variant
// (kernels::simd_variant — cpuid at first call, BPVEC_SIMD override)
// rides along in metrics.simd_variant so perf trajectories across
// machines stay attributable.
#include <cstdio>
#include <span>
#include <thread>
#include <utility>

#include "bench/bench_common.h"
#include "src/bitslice/bit_slicing.h"
#include "src/bitslice/composition.h"
#include "src/bitslice/cvu.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/gemm_executor.h"
#include "src/dnn/gemm_lowering.h"
#include "src/dnn/reference_ops.h"
#include "src/kernels/packed_kernels.h"
#include "src/kernels/simd.h"

namespace {

using namespace bpvec;

// Output tile: M output pixels × N output channels, K untouched. The
// scalar CVU prices every slice pair of every MAC, so the tile keeps its
// runtime in seconds while still spanning AlexNet's full K range
// (363 … 9216).
constexpr std::int64_t kTileM = 32;
constexpr std::int64_t kTileN = 64;

struct Shape {
  std::string id;
  dnn::Matrix a;  // activations tile [M, K]
  dnn::Matrix b;  // weights tile [N, K]
  int x_bits = 8;
  int w_bits = 8;
  bool fc = false;
};

std::vector<Shape> alexnet_conv_shapes() {
  std::vector<Shape> shapes;
  Rng rng(2020);
  const auto net = dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b);
  for (const dnn::Layer& layer : net.layers()) {
    if (layer.kind != dnn::LayerKind::kConv &&
        layer.kind != dnn::LayerKind::kFullyConnected) {
      continue;
    }
    Shape s;
    s.id = layer.name;
    s.x_bits = layer.x_bits;
    s.w_bits = layer.w_bits;
    std::int64_t k = 0;
    if (layer.kind == dnn::LayerKind::kConv) {
      const auto& p = layer.conv();
      k = std::int64_t{p.in_c} * p.kh * p.kw;
      s.b.rows = std::min<std::int64_t>(p.out_c, kTileN);
    } else {
      const auto& p = layer.fc();
      s.fc = true;
      k = p.in_features;
      s.b.rows = std::min<std::int64_t>(p.out_features, kTileN);
    }
    s.a.rows = kTileM;
    s.a.cols = s.b.cols = k;
    s.a.data = rng.signed_vector(static_cast<std::size_t>(s.a.rows * k),
                                 s.x_bits);
    s.b.data = rng.signed_vector(static_cast<std::size_t>(s.b.rows * k),
                                 s.w_bits);
    shapes.push_back(std::move(s));
  }
  return shapes;
}

/// AlexNet's conv layers with the spatial output clamped to ~12×12 (the
/// channel/kernel/stride/pad geometry untouched, so K and the plane
/// layout are the real ones) — big enough for the im2col patch matrix to
/// hurt, small enough for the swept timings to stay in seconds.
struct ConvShape {
  std::string id;
  dnn::ConvParams p;
  int x_bits = 8;
  int w_bits = 8;
};

std::vector<ConvShape> alexnet_conv_tiles() {
  constexpr int kMaxSide = 12;
  std::vector<ConvShape> tiles;
  const auto net = dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b);
  for (const dnn::Layer& layer : net.layers()) {
    if (layer.kind != dnn::LayerKind::kConv) continue;
    ConvShape t;
    t.id = layer.name;
    t.p = layer.conv();
    t.x_bits = layer.x_bits;
    t.w_bits = layer.w_bits;
    const int side = std::min(kMaxSide, t.p.out_h());
    // Shrink the input so the output side is exactly `side`.
    t.p.in_h = (side - 1) * t.p.stride + t.p.kh - 2 * t.p.pad;
    t.p.in_w = (side - 1) * t.p.stride + t.p.kw - 2 * t.p.pad;
    tiles.push_back(std::move(t));
  }
  return tiles;
}

/// Minimum-of-reps wall time of fn() — reruns until the total exceeds a
/// floor so microsecond-scale kernels don't drown in timer noise.
template <typename Fn>
double timed(Fn&& fn) {
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (total < 0.05 && reps < 1000) {
    const double t = bench::time_s(fn);
    best = std::min(best, t);
    total += t;
    ++reps;
  }
  return best;
}

/// Minimum-of-reps wall times of a() and b(), run in alternating reps of
/// one loop until each side's total exceeds timed()'s floor. A ratio of
/// the two then sees the same host noise on both sides.
template <typename A, typename B>
std::pair<double, double> timed_pair(A&& a, B&& b) {
  double best_a = 1e300, best_b = 1e300;
  double total_a = 0.0, total_b = 0.0;
  int reps = 0;
  while ((total_a < 0.05 || total_b < 0.05) && reps < 1000) {
    const double ta = bench::time_s(a);
    const double tb = bench::time_s(b);
    best_a = std::min(best_a, ta);
    best_b = std::min(best_b, tb);
    total_a += ta;
    total_b += tb;
    ++reps;
  }
  return {best_a, best_b};
}

double gmacs(std::int64_t macs, double seconds) {
  return seconds > 0 ? static_cast<double>(macs) / seconds * 1e-9 : 0.0;
}

/// Storage footprint of a BitPlanes over rows×cols values at `bits`.
std::int64_t planes_bytes(std::int64_t rows, std::int64_t cols, int bits) {
  return rows * bits * ((cols + 63) / 64) * 8;
}

/// The unblocked baseline: out[m·b.rows + n] with each output consuming
/// its full-length planes one (p, q) significance pair per 1-plane
/// planes_dot call — no output tiles, no K-chunks, no fused plane pairs.
/// The dispatch and the plane-weight products are hoisted, as in
/// packed_gemm, so only the loop structure differs.
std::vector<std::int64_t> gemm_per_pair(const kernels::BitPlanes& a,
                                        const kernels::BitPlanes& b) {
  const kernels::PlanesDotFn dot = kernels::simd_planes_dot_fn();
  std::vector<std::int64_t> products;
  for (int p = 0; p < a.bits; ++p) {
    for (int q = 0; q < b.bits; ++q) {
      products.push_back(kernels::plane_weight(p, a.bits, a.is_signed) *
                         kernels::plane_weight(q, b.bits, b.is_signed));
    }
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.rows * b.rows));
  for (std::int64_t m = 0; m < a.rows; ++m) {
    for (std::int64_t n = 0; n < b.rows; ++n) {
      std::int64_t acc = 0;
      const std::int64_t* product = products.data();
      for (int p = 0; p < a.bits; ++p) {
        for (int q = 0; q < b.bits; ++q, ++product) {
          acc += dot(a.plane(m, p), a.words, 1, b.plane(n, q), b.words, 1,
                     a.words, product);
        }
      }
      out[static_cast<std::size_t>(m * b.rows + n)] = acc;
    }
  }
  return out;
}

/// The im2col baseline direct conv is measured against: materialize the
/// full patch matrix, pack both operands, packed_gemm, transpose into
/// conv2d_reference order. `*peak_bytes` receives its transient bytes,
/// counted like KernelStats::peak_bytes: the patch matrix, the weight
/// matrix copy, both packed operand plane sets and the pre-transpose
/// GEMM buffer, all live at once.
std::vector<std::int64_t> conv_im2col(const dnn::Tensor& input,
                                      const std::vector<std::int32_t>& weights,
                                      const dnn::ConvParams& p, int x_bits,
                                      int w_bits,
                                      std::int64_t* peak_bytes = nullptr) {
  const dnn::Matrix patches = dnn::im2col(input, p);
  const dnn::Matrix wm = dnn::weights_as_matrix(weights, p);
  const std::vector<std::int64_t> gemm = kernels::packed_gemm(
      kernels::pack_rows(patches, x_bits), kernels::pack_rows(wm, w_bits));
  // gemm[m·out_c + oc] with m = oy·out_w + ox  →  reference order
  // out[oc·(out_h·out_w) + m].
  const std::int64_t pixels = patches.rows;
  std::vector<std::int64_t> out(gemm.size());
  for (std::int64_t m = 0; m < pixels; ++m) {
    for (int oc = 0; oc < p.out_c; ++oc) {
      out[static_cast<std::size_t>(oc * pixels + m)] =
          gemm[static_cast<std::size_t>(m * p.out_c + oc)];
    }
  }
  if (peak_bytes != nullptr) {
    constexpr auto kI32 = static_cast<std::int64_t>(sizeof(std::int32_t));
    *peak_bytes = patches.rows * patches.cols * kI32 +
                  wm.rows * wm.cols * kI32 +
                  planes_bytes(patches.rows, patches.cols, x_bits) +
                  planes_bytes(wm.rows, wm.cols, w_bits) +
                  static_cast<std::int64_t>(gemm.size() * sizeof(std::int64_t));
  }
  return out;
}

/// conv2d_reference as it was before its narrow path: int32 operands,
/// int64 accumulation, pad once, gather each receptive field. The
/// baseline geomean_reference_vs_wide times the library op against.
std::vector<std::int64_t> conv_reference_wide(
    const dnn::Tensor& input, const std::vector<std::int32_t>& weights,
    const dnn::ConvParams& p) {
  const int oh = p.out_h(), ow = p.out_w();
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(p.out_c) * oh * ow, 0);
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

/// fc_reference as it was before its narrow path (int64 accumulation).
std::vector<std::int64_t> fc_reference_wide(
    const std::vector<std::int32_t>& input,
    const std::vector<std::int32_t>& weights, const dnn::FcParams& p) {
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

/// Nbve as it was before its one-flag range test: two range branches per
/// lane, and an out-of-line call per cycle.
struct PerLaneNbve {
  int lanes = 0;
  int slice_bits = 0;
  std::int64_t mult_ops = 0;
  std::int64_t cycles = 0;

  [[gnu::noinline]] std::int64_t dot_cycle(std::span<const std::int32_t> x,
                                           std::span<const std::int32_t> w) {
    BPVEC_CHECK_MSG(x.size() == w.size(),
                    "operand sub-vectors differ in size");
    BPVEC_CHECK_MSG(static_cast<int>(x.size()) <= lanes,
                    "sub-vector longer than NBVE lane count");
    const std::int32_t lo = -(std::int32_t{1} << (slice_bits - 1));
    const std::int32_t hi = (std::int32_t{1} << slice_bits) - 1;
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      BPVEC_CHECK_MSG(x[i] >= lo && x[i] <= hi, "x slice exceeds datapath");
      BPVEC_CHECK_MSG(w[i] >= lo && w[i] <= hi, "w slice exceeds datapath");
      acc += static_cast<std::int64_t>(x[i]) * static_cast<std::int64_t>(w[i]);
    }
    mult_ops += static_cast<std::int64_t>(x.size());
    cycles += 1;
    return acc;
  }
};

/// slice_vector_signed as it was: fits_signed (with its own check) per
/// element, then the element's slices written across the slice rows.
bitslice::SlicedVector slice_row_per_element(const dnn::Matrix& mat,
                                             std::int64_t r, int bits,
                                             int alpha) {
  bitslice::SlicedVector sv;
  sv.operand_bits = bits;
  sv.slice_bits = alpha;
  const int n = bitslice::num_slices(bits, alpha);
  const auto k = static_cast<std::size_t>(mat.cols);
  sv.sub.assign(n, std::vector<std::int32_t>(k));
  const std::uint64_t mask = (std::uint64_t{1} << alpha) - 1;
  const int top_shift = (n - 1) * alpha;
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t v = mat.data[static_cast<std::size_t>(r) * k + i];
    BPVEC_CHECK_MSG(bitslice::fits_signed(v, bits),
                    "value out of range for operand_bits");
    const auto pattern = static_cast<std::uint64_t>(v);
    for (int j = 0; j + 1 < n; ++j) {
      sv.sub[j][i] = static_cast<std::int32_t>((pattern >> (j * alpha)) & mask);
    }
    sv.sub[n - 1][i] = static_cast<std::int32_t>(v >> top_shift);
  }
  return sv;
}

/// core::execute_gemm as it was before the one-flag NBVE cycle: the
/// baseline geomean_cvu_check_vs_per_lane times the library against.
/// Every dot product plans its composition again, and every cycle
/// resolves each assignment's segment, engine and slice rows again.
std::vector<std::int64_t> cvu_gemm_per_lane(const bitslice::CvuGeometry& g,
                                            const dnn::Matrix& a,
                                            const dnn::Matrix& b, int x_bits,
                                            int w_bits) {
  std::vector<PerLaneNbve> engines(
      static_cast<std::size_t>(g.num_nbves()),
      PerLaneNbve{g.lanes, g.slice_bits});
  std::vector<bitslice::SlicedVector> x_rows;
  for (std::int64_t m = 0; m < a.rows; ++m) {
    x_rows.push_back(slice_row_per_element(a, m, x_bits, g.slice_bits));
  }
  const auto n = static_cast<std::size_t>(a.cols);
  const auto lanes = static_cast<std::size_t>(g.lanes);
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.rows * b.rows));
  for (std::int64_t col = 0; col < b.rows; ++col) {
    const bitslice::SlicedVector ws =
        slice_row_per_element(b, col, w_bits, g.slice_bits);
    for (std::int64_t m = 0; m < a.rows; ++m) {
      const bitslice::SlicedVector& xs = x_rows[static_cast<std::size_t>(m)];
      const bitslice::CompositionPlan plan =
          bitslice::plan_composition(g, x_bits, w_bits);
      const auto per_cycle =
          static_cast<std::size_t>(plan.elements_per_cycle());
      std::int64_t value = 0;
      for (std::size_t base = 0; base < n; base += per_cycle) {
        std::int64_t cycle_sum = 0;
        for (const bitslice::NbveAssignment& as : plan.assignments) {
          const std::size_t seg_begin =
              std::min(n, base + static_cast<std::size_t>(as.cluster) * lanes);
          const std::size_t len = std::min(n, seg_begin + lanes) - seg_begin;
          if (len == 0) continue;
          PerLaneNbve& engine =
              engines[static_cast<std::size_t>(as.nbve_index)];
          cycle_sum += engine.dot_cycle(
                           std::span<const std::int32_t>(
                               &xs.sub[as.x_slice][seg_begin], len),
                           std::span<const std::int32_t>(
                               &ws.sub[as.w_slice][seg_begin], len))
                       << as.shift;
        }
        value += cycle_sum;
      }
      out[static_cast<std::size_t>(m * b.rows + col)] = value;
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace bpvec;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int n_threads = std::max(2, hw);
  common::ThreadPool pool(n_threads);
  // B = 16 covers every bitwidth the packer accepts, same geometry the
  // functional backend uses for its cross-checks.
  bitslice::Cvu cvu({/*slice_bits=*/2, /*max_bits=*/16, /*lanes=*/16});

  std::printf("Packed bit-plane GEMM vs scalar CVU (SIMD: %s, %d threads)\n",
              kernels::simd_variant(), n_threads);

  bench::BenchJson json("functional_kernels");
  Table t("AlexNet conv/fc tiles [M=32, N<=64, K full]");
  t.set_header({"Layer", "K", "MACs", "Ref GMAC/s", "CVU GMAC/s",
                "Packed 1T", "Packed NT", "Speedup vs CVU", "Blocked/Unblk"});

  std::vector<double> speedups_1t, speedups_nt, blocked_ratios, vs_reference;
  // conv2d_reference / fc_reference over their bench-local int64 copies,
  // one entry per conv tile and per fc tile.
  std::vector<double> reference_vs_wide;
  double pack_s_total = 0.0;
  std::int64_t packed_elems = 0;
  double min_speedup = 1e300;
  std::vector<Shape> shapes = alexnet_conv_shapes();
  for (const Shape& s : shapes) {
    const std::int64_t macs = s.a.rows * s.b.rows * s.a.cols;
    const auto ap = kernels::pack_rows(s.a, s.x_bits);
    const auto bp = kernels::pack_rows(s.b, s.w_bits);

    // Correctness first: all four paths bit-identical on this tile.
    const auto expected = dnn::gemm_reference(s.a, s.b);
    {
      const auto scalar = core::execute_gemm(cvu, s.a, s.b, s.x_bits,
                                             s.w_bits);
      BPVEC_CHECK_MSG(scalar == expected &&
                          kernels::packed_gemm(ap, bp) == expected &&
                          kernels::packed_gemm(ap, bp, &pool) == expected &&
                          gemm_per_pair(ap, bp) == expected,
                      "functional kernel bench: paths disagree on " + s.id);
    }

    // Packed timings include pack_rows: that is what price_layer pays.
    const auto [ref_s, packed_1t] = timed_pair(
        [&] { (void)dnn::gemm_reference(s.a, s.b); },
        [&] {
          (void)kernels::packed_gemm(kernels::pack_rows(s.a, s.x_bits),
                                     kernels::pack_rows(s.b, s.w_bits));
        });
    const double cvu_s = timed([&] {
      (void)core::execute_gemm(cvu, s.a, s.b, s.x_bits, s.w_bits);
    });
    // Packing alone: both operand tiles, as pack_rows sees them above.
    const double pack_s = timed([&] {
      (void)kernels::pack_rows(s.a, s.x_bits);
      (void)kernels::pack_rows(s.b, s.w_bits);
    });
    const std::int64_t elems = (s.a.rows + s.b.rows) * s.a.cols;
    pack_s_total += pack_s;
    packed_elems += elems;
    const double packed_nt = timed([&] {
      (void)kernels::packed_gemm(kernels::pack_rows(s.a, s.x_bits),
                                 kernels::pack_rows(s.b, s.w_bits), &pool);
    });
    // Blocked vs unblocked on PRE-packed planes: isolates the tiling
    // effect from packing cost. Both run in this same process on the
    // same data — the gated ratio never compares across machines.
    const double blocked_s = timed([&] {
      (void)kernels::packed_gemm(ap, bp);
    });
    const double unblocked_s = timed([&] { (void)gemm_per_pair(ap, bp); });
    const double blocked_ratio = blocked_s > 0 ? unblocked_s / blocked_s : 0.0;
    blocked_ratios.push_back(blocked_ratio);

    const double sp_1t = packed_1t > 0 ? cvu_s / packed_1t : 0.0;
    const double sp_nt = packed_nt > 0 ? cvu_s / packed_nt : 0.0;
    speedups_1t.push_back(sp_1t);
    speedups_nt.push_back(sp_nt);
    const double vs_ref = packed_1t > 0 ? ref_s / packed_1t : 0.0;
    vs_reference.push_back(vs_ref);
    min_speedup = std::min(min_speedup, sp_1t);

    // The fc reference on this tile's weights and first activation row:
    // the probe's shape (N <= 64 features, full K).
    if (s.fc) {
      const dnn::FcParams fp{static_cast<int>(s.a.cols),
                             static_cast<int>(s.b.rows)};
      const std::vector<std::int32_t> x(
          s.a.data.begin(),
          s.a.data.begin() + static_cast<std::ptrdiff_t>(s.a.cols));
      BPVEC_CHECK_MSG(dnn::fc_reference(x, s.b.data, fp) ==
                          fc_reference_wide(x, s.b.data, fp),
                      "functional kernel bench: fc references disagree on " +
                          s.id);
      const auto [fc_s, fc_wide_s] =
          timed_pair([&] { (void)dnn::fc_reference(x, s.b.data, fp); },
                     [&] { (void)fc_reference_wide(x, s.b.data, fp); });
      const double ratio = fc_s > 0 ? fc_wide_s / fc_s : 0.0;
      reference_vs_wide.push_back(ratio);
      const std::int64_t fc_macs = s.b.rows * s.a.cols;
      json.add_entry("reference_" + s.id,
                     {{"k", static_cast<double>(s.a.cols)},
                      {"macs", static_cast<double>(fc_macs)},
                      {"gmacs_reference", gmacs(fc_macs, fc_s)},
                      {"gmacs_reference_wide", gmacs(fc_macs, fc_wide_s)},
                      {"reference_vs_wide", ratio}});
    }

    t.add_row({s.id, std::to_string(s.a.cols), std::to_string(macs),
               Table::num(gmacs(macs, ref_s), 2),
               Table::num(gmacs(macs, cvu_s), 3),
               Table::num(gmacs(macs, packed_1t), 2),
               Table::num(gmacs(macs, packed_nt), 2), Table::ratio(sp_1t),
               Table::ratio(blocked_ratio)});
    json.add_entry(s.id,
                   {{"k", static_cast<double>(s.a.cols)},
                    {"macs", static_cast<double>(macs)},
                    {"gmacs_reference", gmacs(macs, ref_s)},
                    {"gmacs_scalar_cvu", gmacs(macs, cvu_s)},
                    {"gmacs_packed_1t", gmacs(macs, packed_1t)},
                    {"gmacs_packed_nt", gmacs(macs, packed_nt)},
                    {"gmacs_blocked", gmacs(macs, blocked_s)},
                    {"gmacs_unblocked", gmacs(macs, unblocked_s)},
                    {"blocked_vs_unblocked", blocked_ratio},
                    {"speedup_vs_scalar_1t", sp_1t},
                    {"speedup_vs_scalar_nt", sp_nt},
                    {"packed_1t_vs_reference", vs_ref},
                    {"pack_ns_per_elem",
                     pack_s / static_cast<double>(elems) * 1e9}});
  }
  t.print();

  // The scalar CVU check on the probe's block (2 rows × 8 columns × full
  // K) of every tile, at 8 and 4 bits: the library executor against
  // cvu_gemm_per_lane, outputs compared first.
  std::vector<double> cvu_check_vs_per_lane;
  {
    Rng rng(2022);
    Table ct("Scalar CVU check: 2x8xK blocks of the same tiles");
    ct.set_header({"Layer", "Bits", "K", "Executor us", "Per-lane us",
                   "Per-lane/Executor"});
    for (const Shape& s : shapes) {
      for (const int bits : {8, 4}) {
        const std::int64_t k = s.a.cols;
        const dnn::Matrix a{2, k, rng.signed_vector(
                                      static_cast<std::size_t>(2 * k), bits)};
        const dnn::Matrix b{8, k, rng.signed_vector(
                                      static_cast<std::size_t>(8 * k), bits)};
        BPVEC_CHECK_MSG(core::execute_gemm(cvu, a, b, bits, bits) ==
                            cvu_gemm_per_lane(cvu.geometry(), a, b, bits,
                                              bits),
                        "functional kernel bench: CVU check paths disagree "
                        "on " + s.id);
        const auto [exec_s, per_lane_s] = timed_pair(
            [&] { (void)core::execute_gemm(cvu, a, b, bits, bits); },
            [&] {
              (void)cvu_gemm_per_lane(cvu.geometry(), a, b, bits, bits);
            });
        const double ratio = exec_s > 0 ? per_lane_s / exec_s : 0.0;
        cvu_check_vs_per_lane.push_back(ratio);
        const std::string id = "cvu_check_" + s.id + "_" +
                               std::to_string(bits) + "b";
        ct.add_row({s.id, std::to_string(bits), std::to_string(k),
                    Table::num(exec_s * 1e6, 1),
                    Table::num(per_lane_s * 1e6, 1), Table::ratio(ratio)});
        json.add_entry(id, {{"k", static_cast<double>(k)},
                            {"bits", static_cast<double>(bits)},
                            {"executor_us", exec_s * 1e6},
                            {"per_lane_us", per_lane_s * 1e6},
                            {"cvu_check_vs_per_lane", ratio}});
      }
    }
    ct.print();
  }

  // Direct conv vs im2col on AlexNet's conv geometry: wall time and the
  // analytic peak kernel bytes (the memory win the direct path exists
  // for). Verified against conv2d_reference before timing.
  double conv_peak_ratio_max = 0.0;
  std::vector<double> direct_vs_im2col;
  {
    Rng rng(2021);
    Table ct("AlexNet conv tiles: direct vs im2col [output <= 12x12]");
    ct.set_header({"Layer", "K", "Direct GMAC/s", "Im2col GMAC/s",
                   "Direct/Im2col", "Direct peak KiB", "Im2col peak KiB",
                   "Peak ratio", "Ref/Wide"});
    for (const ConvShape& c : alexnet_conv_tiles()) {
      dnn::Tensor input(c.p.in_c, c.p.in_h, c.p.in_w);
      for (auto& v : input.data()) v = rng.signed_value(c.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(c.p.out_c) * c.p.in_c * c.p.kh * c.p.kw,
          c.w_bits);
      const auto expected = dnn::conv2d_reference(input, weights, c.p);
      BPVEC_CHECK_MSG(conv_reference_wide(input, weights, c.p) == expected,
                      "functional kernel bench: conv references disagree on " +
                          c.id);
      const std::int64_t k = std::int64_t{c.p.in_c} * c.p.kh * c.p.kw;
      // Direct conv from raw weights, like the lowering: pack the filters,
      // then run the kernel on the planes.
      const auto direct = [&](kernels::KernelStats* stats) {
        return kernels::packed_conv(
            input, kernels::pack_values(weights.data(), c.p.out_c, k, c.w_bits),
            c.p, c.x_bits, nullptr, stats);
      };
      kernels::KernelStats direct_stats;
      std::int64_t im2col_peak_bytes = 0;
      BPVEC_CHECK_MSG(
          direct(&direct_stats) == expected &&
              conv_im2col(input, weights, c.p, c.x_bits, c.w_bits,
                          &im2col_peak_bytes) == expected,
          "functional kernel bench: conv paths disagree on " + c.id);
      // The filter planes it packs count toward its peak, as the
      // lowering's do toward im2col's.
      direct_stats.peak_bytes += planes_bytes(c.p.out_c, k, c.w_bits);
      const double direct_s = timed([&] { (void)direct(nullptr); });
      const double im2col_s = timed([&] {
        (void)conv_im2col(input, weights, c.p, c.x_bits, c.w_bits);
      });
      const auto [ref_s, ref_wide_s] = timed_pair(
          [&] { (void)dnn::conv2d_reference(input, weights, c.p); },
          [&] { (void)conv_reference_wide(input, weights, c.p); });
      const double ref_ratio = ref_s > 0 ? ref_wide_s / ref_s : 0.0;
      reference_vs_wide.push_back(ref_ratio);
      const std::int64_t macs =
          std::int64_t{c.p.out_h()} * c.p.out_w() * c.p.out_c * k;
      const double speed_ratio = direct_s > 0 ? im2col_s / direct_s : 0.0;
      direct_vs_im2col.push_back(speed_ratio);
      const double peak_ratio = static_cast<double>(direct_stats.peak_bytes) /
                                static_cast<double>(im2col_peak_bytes);
      conv_peak_ratio_max = std::max(conv_peak_ratio_max, peak_ratio);
      ct.add_row({c.id, std::to_string(k),
                  Table::num(gmacs(macs, direct_s), 2),
                  Table::num(gmacs(macs, im2col_s), 2),
                  Table::ratio(speed_ratio),
                  Table::num(static_cast<double>(direct_stats.peak_bytes) /
                                 1024.0, 1),
                  Table::num(static_cast<double>(im2col_peak_bytes) / 1024.0,
                             1),
                  Table::ratio(peak_ratio), Table::ratio(ref_ratio)});
      json.add_entry("conv_" + c.id,
                     {{"k", static_cast<double>(k)},
                      {"macs", static_cast<double>(macs)},
                      {"gmacs_direct", gmacs(macs, direct_s)},
                      {"gmacs_im2col", gmacs(macs, im2col_s)},
                      {"direct_vs_im2col", speed_ratio},
                      {"direct_peak_bytes",
                       static_cast<double>(direct_stats.peak_bytes)},
                      {"im2col_peak_bytes",
                       static_cast<double>(im2col_peak_bytes)},
                      {"peak_bytes_ratio", peak_ratio},
                      {"gmacs_reference", gmacs(macs, ref_s)},
                      {"gmacs_reference_wide", gmacs(macs, ref_wide_s)},
                      {"reference_vs_wide", ref_ratio}});
    }
    ct.print();
  }

  json.add_metric("threads", n_threads);
  json.add_metric("simd_variant", std::string(kernels::simd_variant()));
  json.add_metric("block_m", static_cast<double>(kernels::kGemmBlockM));
  json.add_metric("block_n", static_cast<double>(kernels::kGemmBlockN));
  json.add_metric("block_words", static_cast<double>(kernels::kGemmBlockWords));
  json.add_metric("min_speedup_vs_scalar", min_speedup);
  json.add_metric("geomean_speedup_vs_scalar_1t", geomean(speedups_1t));
  json.add_metric("geomean_speedup_vs_scalar_nt", geomean(speedups_nt));
  json.add_metric("geomean_blocked_vs_unblocked", geomean(blocked_ratios));
  json.add_metric("conv_peak_bytes_ratio_max", conv_peak_ratio_max);
  const double pack_ns_per_elem =
      pack_s_total / static_cast<double>(packed_elems) * 1e9;
  json.add_metric("pack_ns_per_elem", pack_ns_per_elem);
  json.add_metric("geomean_packed_1t_vs_reference", geomean(vs_reference));
  json.add_metric("geomean_direct_vs_im2col", geomean(direct_vs_im2col));
  json.add_metric("geomean_reference_vs_wide", geomean(reference_vs_wide));
  json.add_metric("geomean_cvu_check_vs_per_lane",
                  geomean(cvu_check_vs_per_lane));
  json.write();

  std::printf("min packed-1T speedup vs scalar CVU: %.1fx (gate: >= 4x)\n",
              min_speedup);
  std::printf("geomean blocked/unblocked: %.3fx (gate: >= 1.0x)\n",
              geomean(blocked_ratios));
  std::printf("max direct/im2col peak-bytes ratio: %.3f (gate: < 1.0)\n",
              conv_peak_ratio_max);
  std::printf("pack_rows: %.2f ns/element (recorded, not gated)\n",
              pack_ns_per_elem);
  std::printf("geomean packed-1T vs gemm_reference: %.2fx (gate: >= 1.0x)\n",
              geomean(vs_reference));
  std::printf("geomean reference ops vs their int64 loops: %.2fx "
              "(gate: >= 1.0x)\n",
              geomean(reference_vs_wide));
  std::printf("geomean CVU check vs its per-lane-branch loop: %.2fx "
              "(gate: >= 1.0x)\n",
              geomean(cvu_check_vs_per_lane));
  std::printf("geomean direct conv vs im2col: %.2fx (recorded, not gated)\n",
              geomean(direct_vs_im2col));
  return 0;
}
