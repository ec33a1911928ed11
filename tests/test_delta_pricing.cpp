// Delta pricing: the layer memo must be a pure optimization — results
// bit-identical to the backend's own run(), at any thread count, while
// provably pricing fewer layers (EngineStats) whenever scenarios share
// layers in-network, across the batch, or with a warm memo. The memo
// path runs on the deterministic memoizing "bpvec" wrapper; analytical
// backends bypass the memo entirely (see the policy test at the end).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/workload/generators.h"
#include "tests/memo_bpvec_backend.h"
#include "tests/run_result_identical.h"

namespace bpvec::engine {
namespace {

Scenario bpvec_scenario(dnn::Network net) {
  return memoized(
      make_scenario(Platform::kBpvec, Memory::kDdr4, std::move(net)));
}

std::size_t total_layers(const std::vector<Scenario>& batch) {
  std::size_t n = 0;
  for (const Scenario& s : batch) n += s.network.layers().size();
  return n;
}

/// Prices `batch` through the layer memo and demands byte-equal results
/// to the plain backend's run() at the given thread count.
void expect_delta_matches_full(const std::vector<Scenario>& batch,
                               int threads) {
  SimEngine delta({threads});
  const std::vector<sim::RunResult> a = delta.run_batch(batch);
  ASSERT_EQ(a.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i].id + " @ " + std::to_string(threads) +
                 " threads");
    expect_bit_identical(a[i], direct_bpvec_run(batch[i]));
  }
  // Same arithmetic, fewer invocations: the memo never prices more
  // layers than a direct run of every scenario would.
  EXPECT_LE(delta.stats().layers_priced, total_layers(batch));
}

std::vector<Scenario> zoo_batch(dnn::BitwidthMode mode) {
  std::vector<Scenario> batch;
  for (dnn::Network& net : dnn::all_models(mode)) {
    batch.push_back(bpvec_scenario(std::move(net)));
  }
  return batch;
}

workload::GeneratorSpec family_spec(const std::string& family, int depth,
                                    int width, int bits) {
  workload::GeneratorSpec spec;
  spec.family = family;
  spec.depth = depth;
  spec.width = width;
  spec.bitwidth_policy = "uniform:" + std::to_string(bits);
  return spec;
}

/// A bits sweep over one generated family — candidates share every
/// layer shape, differing only in bitwidths.
std::vector<Scenario> family_sweep(const std::string& family, int depth,
                                   int width) {
  std::vector<Scenario> batch;
  for (int bits : {2, 4, 8}) {
    batch.push_back(bpvec_scenario(
        workload::generate(family_spec(family, depth, width, bits))));
  }
  return batch;
}

TEST(DeltaPricing, BitIdenticalOnAllZooNets) {
  for (auto mode : {dnn::BitwidthMode::kHomogeneous8b,
                    dnn::BitwidthMode::kHeterogeneous}) {
    const std::vector<Scenario> batch = zoo_batch(mode);
    ASSERT_EQ(batch.size(), 6u);  // the six Table I models
    expect_delta_matches_full(batch, 1);
    expect_delta_matches_full(batch, 4);
  }
}

TEST(DeltaPricing, BitIdenticalOnGeneratedFamilySweeps) {
  for (const char* family : {"cnn_family", "mlp_family"}) {
    const std::vector<Scenario> batch = family_sweep(family, 5, 64);
    expect_delta_matches_full(batch, 1);
    expect_delta_matches_full(batch, 4);
  }
}

TEST(DeltaPricing, InNetworkDuplicatesPriceOnce) {
  // mlp_family d6 repeats its width→width hidden FC four times; the
  // names differ but the priced structure is identical, so the delta
  // engine prices 3 unique layers per candidate instead of 6.
  const std::vector<Scenario> batch = family_sweep("mlp_family", 6, 256);
  for (int threads : {1, 4}) {
    SimEngine eng({threads});
    (void)eng.run_batch(batch);
    const EngineStats stats = eng.stats();
    EXPECT_LT(stats.layers_priced, total_layers(batch));
    EXPECT_EQ(stats.layers_priced + stats.layer_cache_hits,
              total_layers(batch));
    EXPECT_GT(stats.delta_scenarios, 0u);
    EXPECT_LE(stats.delta_scenarios, stats.simulations_run);
  }
}

TEST(DeltaPricing, WarmNeighborPricesOnlyNewLayers) {
  // Warm the memo with the depth-6 MLP, then price its depth-5
  // neighbor: every layer of the neighbor is already cached (fc0, the
  // hidden block, the classifier head), so the delta run prices zero
  // layers — and still matches a direct run byte for byte.
  const Scenario deep = bpvec_scenario(
      workload::generate(family_spec("mlp_family", 6, 256, 8)));
  const Scenario neighbor = bpvec_scenario(
      workload::generate(family_spec("mlp_family", 5, 256, 8)));

  for (int threads : {1, 4}) {
    SimEngine eng({threads});
    (void)eng.run_batch({deep});
    const std::size_t priced_cold = eng.stats().layers_priced;
    const std::vector<sim::RunResult> warm = eng.run_batch({neighbor});
    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.layers_priced, priced_cold);  // nothing new priced
    EXPECT_LT(stats.layers_priced,
              deep.network.layers().size() +
                  neighbor.network.layers().size());
    EXPECT_GT(stats.delta_scenarios, 0u);

    ASSERT_EQ(warm.size(), 1u);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(warm[0], direct_bpvec_run(neighbor));
  }
}

TEST(DeltaPricing, MixedZooAndGeneratedBatchStaysIdentical) {
  // The union batch exercises cross-scenario sharing: zoo nets repeat
  // blocks (ResNet stages), the sweep repeats shapes across candidates.
  std::vector<Scenario> batch = zoo_batch(dnn::BitwidthMode::kHeterogeneous);
  for (Scenario& s : family_sweep("cnn_family", 4, 32)) {
    batch.push_back(std::move(s));
  }
  expect_delta_matches_full(batch, 1);
  expect_delta_matches_full(batch, 4);
}

TEST(DeltaPricing, AnalyticalBackendsPriceStraightThrough) {
  // The memo policy: an analytical backend prices every layer of every
  // scenario directly (ResNet-50's repeated bottlenecks included) and
  // never touches the layer memo; the memoizing wrapper prices each
  // unique layer of the same batch exactly once.
  std::vector<Scenario> analytical;
  for (const auto& net :
       {dnn::make_resnet50(dnn::BitwidthMode::kHeterogeneous),
        dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b)}) {
    analytical.push_back(
        make_scenario(Platform::kBpvec, Memory::kDdr4, net));
    analytical.push_back(make_scenario("bit_serial", Platform::kTpuLike,
                                       Memory::kDdr4, net));
  }
  SimEngine direct({2});
  (void)direct.run_batch(analytical);
  const EngineStats d = direct.stats();
  EXPECT_EQ(d.layer_cache_hits, 0u);
  EXPECT_EQ(d.delta_scenarios, 0u);
  EXPECT_EQ(d.layers_priced, total_layers(analytical));

  std::vector<Scenario> memo_batch;
  std::set<std::uint64_t> unique_keys;
  for (const Scenario& s : analytical) {
    if (s.backend != "bpvec") continue;
    memo_batch.push_back(memoized(s));
    const MemoBpvecBackend be(s.platform, s.memory);
    for (const dnn::Layer& layer : s.network.layers()) {
      unique_keys.insert(be.layer_key(be.fingerprint(), layer));
    }
  }
  SimEngine memo({2});
  (void)memo.run_batch(memo_batch);
  const EngineStats m = memo.stats();
  EXPECT_EQ(m.layers_priced, unique_keys.size());
  EXPECT_LT(m.layers_priced, total_layers(memo_batch));
  EXPECT_EQ(m.layers_priced + m.layer_cache_hits, total_layers(memo_batch));
  EXPECT_GT(m.delta_scenarios, 0u);
}

}  // namespace
}  // namespace bpvec::engine
