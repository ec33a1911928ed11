// Microbenchmarks (google-benchmark) of the functional bit-sliced
// datapath: slicing, composition planning, and CVU dot products across
// bitwidth modes. These measure the *simulator's* software throughput —
// useful when scaling experiments up — not modelled hardware performance.
#include <benchmark/benchmark.h>

#include "src/bitslice/bit_slicing.h"
#include "src/bitslice/cvu.h"
#include "src/common/rng.h"
#include "src/core/gemm_executor.h"

namespace {

using namespace bpvec;

void BM_SliceVector(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(1);
  const auto v = rng.signed_vector(4096, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitslice::slice_vector_signed(v, bits, 2));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SliceVector)->Arg(2)->Arg(4)->Arg(8);

void BM_PlanComposition(benchmark::State& state) {
  const bitslice::CvuGeometry g{2, 8, 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bitslice::plan_composition(g, static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1))));
  }
}
BENCHMARK(BM_PlanComposition)->Args({8, 8})->Args({4, 4})->Args({8, 2});

void BM_CvuDotProduct(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  bitslice::Cvu cvu({2, 8, 16});
  Rng rng(7);
  const auto x = rng.signed_vector(n, bits);
  const auto w = rng.signed_vector(n, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cvu.dot_product(x, w, bits, bits));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CvuDotProduct)
    ->Args({8, 256})
    ->Args({4, 256})
    ->Args({2, 256})
    ->Args({8, 4096});

void BM_GemmThroughCvu(benchmark::State& state) {
  const std::int64_t dim = state.range(0);
  Rng rng(5);
  dnn::Matrix a{dim, 64, {}};
  dnn::Matrix b{dim, 64, {}};
  a.data = rng.signed_vector(static_cast<std::size_t>(a.rows * a.cols), 8);
  b.data = rng.signed_vector(static_cast<std::size_t>(b.rows * b.cols), 8);
  bitslice::Cvu cvu({2, 8, 16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::execute_gemm(cvu, a, b, 8, 8));
  }
  state.SetItemsProcessed(state.iterations() * dim * dim * 64);
}
BENCHMARK(BM_GemmThroughCvu)->Arg(8)->Arg(16);

// The functional probe's scalar-CVU check at its real shape: the probe's
// CVU geometry {2,16,16}, a 2-row x 8-column block of the lowered GEMM,
// and K = 3x3x512 (a late AlexNet/VGG conv receptive field).
void BM_ProbeCvuCheck(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  constexpr std::int64_t kK = 3 * 3 * 512;
  Rng rng(11);
  dnn::Matrix a{2, kK, {}};
  dnn::Matrix b{8, kK, {}};
  a.data = rng.signed_vector(static_cast<std::size_t>(a.rows * a.cols), bits);
  b.data = rng.signed_vector(static_cast<std::size_t>(b.rows * b.cols), bits);
  bitslice::Cvu cvu({2, 16, 16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::execute_gemm(cvu, a, b, bits, bits));
  }
  state.SetItemsProcessed(state.iterations() * a.rows * b.rows * kK);
}
BENCHMARK(BM_ProbeCvuCheck)->Arg(8)->Arg(4)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
