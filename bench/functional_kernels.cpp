// Packed-kernel throughput: the bit-plane popcount GEMM vs the scalar
// CVU executor vs the plain reference GEMM, on the AlexNet conv shapes
// (full accumulation depth K, output tile bounded so the scalar CVU
// finishes in seconds). Every path is verified bit-identical before its
// numbers are reported — a fast wrong kernel is worthless.
//
// Beyond the CVU anchor this bench measures the two kernel-overhaul
// claims in the SAME run (no cross-machine constants):
//   * cache-blocked GEMM vs the flat unblocked loop on pre-packed
//     planes (metrics.geomean_blocked_vs_unblocked; CI gates >= 1.0),
//     plus a block-geometry sweep on the deepest-K tile justifying the
//     kGemmBlock{M,N,Words} defaults;
//   * im2col-free direct conv vs the materialize-patches im2col path on
//     downscaled AlexNet conv layers — wall time AND KernelStats
//     peak_bytes (metrics.conv_peak_bytes_ratio_max; CI gates < 1.0).
//
// Emits BENCH_functional_kernels.json with per-shape GMAC/s at 1 and N
// threads plus speedups over the scalar CVU path; CI gates on
// metrics.min_speedup_vs_scalar >= 4. Two ungated metrics track the
// functional hot path against the honest baseline: pack_ns_per_elem
// (pack_rows alone over the same tiles) and
// geomean_packed_1t_vs_reference (packed GEMM including packing, over
// the int32 gemm_reference, same run). The runtime-selected SIMD variant
// (kernels::simd_variant — cpuid at first call, BPVEC_SIMD override)
// rides along in metrics.simd_variant so perf trajectories across
// machines stay attributable.
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "src/bitslice/cvu.h"
#include "src/common/rng.h"
#include "src/core/gemm_executor.h"
#include "src/dnn/gemm_lowering.h"
#include "src/dnn/reference_ops.h"
#include "src/engine/thread_pool.h"
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

/// Median-of-reps wall time of fn() — reruns until the total exceeds a
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

double gmacs(std::int64_t macs, double seconds) {
  return seconds > 0 ? static_cast<double>(macs) / seconds * 1e-9 : 0.0;
}

}  // namespace

int main() {
  using namespace bpvec;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int n_threads = std::max(2, hw);
  engine::ThreadPool pool(n_threads);
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
  double pack_s_total = 0.0;
  std::int64_t packed_elems = 0;
  double min_speedup = 1e300;
  const Shape* deepest = nullptr;
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
                          kernels::packed_gemm_unblocked(ap, bp) == expected,
                      "functional kernel bench: paths disagree on " + s.id);
    }

    const double ref_s = timed([&] { (void)dnn::gemm_reference(s.a, s.b); });
    const double cvu_s = timed([&] {
      (void)core::execute_gemm(cvu, s.a, s.b, s.x_bits, s.w_bits);
    });
    // Packed timings include pack_rows: that is what price_layer pays.
    const double packed_1t = timed([&] {
      (void)kernels::packed_gemm(kernels::pack_rows(s.a, s.x_bits),
                                 kernels::pack_rows(s.b, s.w_bits));
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
    const double unblocked_s = timed([&] {
      (void)kernels::packed_gemm_unblocked(ap, bp);
    });
    const double blocked_ratio = blocked_s > 0 ? unblocked_s / blocked_s : 0.0;
    blocked_ratios.push_back(blocked_ratio);

    const double sp_1t = packed_1t > 0 ? cvu_s / packed_1t : 0.0;
    const double sp_nt = packed_nt > 0 ? cvu_s / packed_nt : 0.0;
    speedups_1t.push_back(sp_1t);
    speedups_nt.push_back(sp_nt);
    const double vs_ref = packed_1t > 0 ? ref_s / packed_1t : 0.0;
    vs_reference.push_back(vs_ref);
    min_speedup = std::min(min_speedup, sp_1t);
    if (deepest == nullptr || s.a.cols > deepest->a.cols) deepest = &s;

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

  // Block-geometry sweep on the deepest-K tile (fc6, K = 9216): the
  // measurements behind the kGemmBlock{M,N,Words} defaults. Every
  // geometry is exactness-equivalent (int64 accumulation is
  // associative), so this sweep is pure perf data.
  {
    const Shape& s = *deepest;
    const auto ap = kernels::pack_rows(s.a, s.x_bits);
    const auto bp = kernels::pack_rows(s.b, s.w_bits);
    const std::int64_t macs = s.a.rows * s.b.rows * s.a.cols;
    Table sweep("GEMM block-geometry sweep on " + s.id + " [K=" +
                std::to_string(s.a.cols) + "]");
    sweep.set_header({"m x n x words", "GMAC/s", "vs default"});
    const double default_s = timed([&] { (void)kernels::packed_gemm(ap, bp); });
    for (const std::int64_t m : {4, 8, 16}) {
      for (const std::int64_t n : {4, 8, 16}) {
        for (const std::size_t words : {std::size_t{32}, std::size_t{64},
                                        std::size_t{128}, std::size_t{256}}) {
          const kernels::GemmBlocking blocking{m, n, words};
          const double t_s = timed([&] {
            (void)kernels::packed_gemm(ap, bp, nullptr, nullptr, blocking);
          });
          const std::string id = std::to_string(m) + "x" + std::to_string(n) +
                                 "x" + std::to_string(words);
          sweep.add_row({id, Table::num(gmacs(macs, t_s), 2),
                         Table::ratio(default_s / t_s)});
          json.add_entry("sweep_" + id,
                         {{"block_m", static_cast<double>(m)},
                          {"block_n", static_cast<double>(n)},
                          {"block_words", static_cast<double>(words)},
                          {"gmacs", gmacs(macs, t_s)},
                          {"vs_default", default_s / t_s}});
        }
      }
    }
    sweep.print();
  }

  // Direct conv vs im2col on AlexNet's conv geometry: wall time and the
  // analytic peak kernel bytes (the memory win the direct path exists
  // for). Verified against conv2d_reference before timing.
  double conv_peak_ratio_max = 0.0;
  {
    Rng rng(2021);
    Table ct("AlexNet conv tiles: direct vs im2col [output <= 12x12]");
    ct.set_header({"Layer", "K", "Direct GMAC/s", "Im2col GMAC/s",
                   "Direct peak KiB", "Im2col peak KiB", "Peak ratio"});
    for (const ConvShape& c : alexnet_conv_tiles()) {
      dnn::Tensor input(c.p.in_c, c.p.in_h, c.p.in_w);
      for (auto& v : input.data()) v = rng.signed_value(c.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(c.p.out_c) * c.p.in_c * c.p.kh * c.p.kw,
          c.w_bits);
      const auto expected = dnn::conv2d_reference(input, weights, c.p);
      kernels::KernelStats direct_stats, im2col_stats;
      BPVEC_CHECK_MSG(
          kernels::packed_conv(input, weights, c.p, c.x_bits, c.w_bits,
                               nullptr, &direct_stats) == expected &&
              kernels::packed_conv_im2col(input, weights, c.p, c.x_bits,
                                          c.w_bits, nullptr,
                                          &im2col_stats) == expected,
          "functional kernel bench: conv paths disagree on " + c.id);
      const double direct_s = timed([&] {
        (void)kernels::packed_conv(input, weights, c.p, c.x_bits, c.w_bits);
      });
      const double im2col_s = timed([&] {
        (void)kernels::packed_conv_im2col(input, weights, c.p, c.x_bits,
                                          c.w_bits);
      });
      const std::int64_t k = std::int64_t{c.p.in_c} * c.p.kh * c.p.kw;
      const std::int64_t macs =
          std::int64_t{c.p.out_h()} * c.p.out_w() * c.p.out_c * k;
      const double peak_ratio =
          static_cast<double>(direct_stats.peak_bytes) /
          static_cast<double>(im2col_stats.peak_bytes);
      conv_peak_ratio_max = std::max(conv_peak_ratio_max, peak_ratio);
      ct.add_row({c.id, std::to_string(k),
                  Table::num(gmacs(macs, direct_s), 2),
                  Table::num(gmacs(macs, im2col_s), 2),
                  Table::num(static_cast<double>(direct_stats.peak_bytes) /
                                 1024.0, 1),
                  Table::num(static_cast<double>(im2col_stats.peak_bytes) /
                                 1024.0, 1),
                  Table::ratio(peak_ratio)});
      json.add_entry("conv_" + c.id,
                     {{"k", static_cast<double>(k)},
                      {"macs", static_cast<double>(macs)},
                      {"gmacs_direct", gmacs(macs, direct_s)},
                      {"gmacs_im2col", gmacs(macs, im2col_s)},
                      {"direct_peak_bytes",
                       static_cast<double>(direct_stats.peak_bytes)},
                      {"im2col_peak_bytes",
                       static_cast<double>(im2col_stats.peak_bytes)},
                      {"peak_bytes_ratio", peak_ratio}});
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
  json.write();

  std::printf("min packed-1T speedup vs scalar CVU: %.1fx (gate: >= 4x)\n",
              min_speedup);
  std::printf("geomean blocked/unblocked: %.3fx (gate: >= 1.0x)\n",
              geomean(blocked_ratios));
  std::printf("max direct/im2col peak-bytes ratio: %.3f (gate: < 1.0)\n",
              conv_peak_ratio_max);
  std::printf("pack_rows: %.2f ns/element (recorded, not gated)\n",
              pack_ns_per_elem);
  std::printf("geomean packed-1T vs gemm_reference: %.2fx "
              "(recorded, not gated)\n",
              geomean(vs_reference));
  return 0;
}
