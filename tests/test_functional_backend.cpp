// FunctionalBackend: the backend that executes what the others model.
//
// The load-bearing property is three-way exactness — packed SIMD kernels
// == reference operators == scalar CVU datapath — enforced inside
// price_layer itself (a mismatch throws). These tests drive that check
// across every unique layer of the whole model zoo in both bitwidth
// modes, pin the thread-count independence of the packed kernels on the
// same probe shapes, and verify the engine-facing contracts: determinism
// of everything but wall-clock, cache replay bit-identity, and
// fingerprint separation.
#include "src/backend/functional_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/backend/backend_registry.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/reference_ops.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/kernels/packed_kernels.h"
#include "src/kernels/simd.h"
#include "src/kernels/weight_cache.h"
#include "tests/auto_variant_guard.h"
#include "tests/run_result_identical.h"

namespace bpvec::backend {
namespace {

namespace fs = std::filesystem;

/// Tight probe bounds keep the exhaustive zoo sweep fast under
/// sanitizers; the accumulation depth K stays FULL regardless (that is a
/// property of probe_layer, pinned below).
FunctionalConfig small_probes() {
  FunctionalConfig c;
  c.max_side = 2;
  c.max_channels = 12;
  c.max_time_steps = 2;
  c.check_cols = 4;
  return c;
}

/// Runs the packed kernel for `probe` twice — serial and through `pool`
/// — on freshly generated data and checks both against the reference
/// operator. Thread-count independence on real zoo shapes.
void expect_threaded_matches_reference(const dnn::Layer& probe,
                                       common::ThreadPool& pool, Rng& rng) {
  switch (probe.kind) {
    case dnn::LayerKind::kConv: {
      const auto& p = probe.conv();
      dnn::Tensor input(p.in_c, p.in_h, p.in_w);
      for (auto& v : input.data()) v = rng.signed_value(probe.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(p.out_c) * p.in_c * p.kh * p.kw,
          probe.w_bits);
      const auto w = kernels::pack_values(
          weights.data(), p.out_c, p.in_c * p.kh * p.kw, probe.w_bits);
      const auto expected = dnn::conv2d_reference(input, weights, p);
      EXPECT_EQ(kernels::packed_conv(input, w, p, probe.x_bits), expected)
          << probe.name;
      EXPECT_EQ(kernels::packed_conv(input, w, p, probe.x_bits, &pool),
                expected)
          << probe.name;
      break;
    }
    case dnn::LayerKind::kFullyConnected: {
      const auto& p = probe.fc();
      const auto input = rng.signed_vector(
          static_cast<std::size_t>(p.in_features), probe.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(p.in_features) * p.out_features,
          probe.w_bits);
      const auto w = kernels::pack_values(weights.data(), p.out_features,
                                          p.in_features, probe.w_bits);
      const auto expected = dnn::fc_reference(input, weights, p);
      EXPECT_EQ(kernels::packed_fc(input, w, p, probe.x_bits), expected)
          << probe.name;
      EXPECT_EQ(kernels::packed_fc(input, w, p, probe.x_bits, &pool),
                expected)
          << probe.name;
      break;
    }
    case dnn::LayerKind::kPool: {
      const auto& p = probe.pool();
      dnn::Tensor input(p.channels, p.in_h, p.in_w);
      for (auto& v : input.data()) v = rng.signed_value(probe.x_bits);
      const dnn::Tensor expected = dnn::pool_reference(input, p);
      EXPECT_EQ(kernels::packed_pool(input, p).data(), expected.data())
          << probe.name;
      EXPECT_EQ(kernels::packed_pool(input, p, &pool).data(),
                expected.data())
          << probe.name;
      break;
    }
    case dnn::LayerKind::kRecurrent: {
      const auto& p = probe.recurrent();
      const int k = p.input_size + p.hidden_size;
      const auto x = rng.signed_vector(
          static_cast<std::size_t>(p.input_size), probe.x_bits);
      const auto h = rng.signed_vector(
          static_cast<std::size_t>(p.hidden_size), probe.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(p.hidden_size) * k, probe.w_bits);
      const auto w = kernels::pack_values(weights.data(), p.hidden_size, k,
                                          probe.w_bits);
      const auto expected = dnn::rnn_step_reference(x, h, weights,
                                                    p.hidden_size, 6, 8);
      EXPECT_EQ(kernels::packed_rnn_step(x, h, w, p.hidden_size, 6, 8,
                                         probe.x_bits),
                expected)
          << probe.name;
      EXPECT_EQ(kernels::packed_rnn_step(x, h, w, p.hidden_size, 6, 8,
                                         probe.x_bits, &pool),
                expected)
          << probe.name;
      break;
    }
  }
}

TEST(FunctionalBackend, EveryUniqueZooLayerVerifiesInBothBitwidthModes) {
  // price_layer runs the three-way check internally and throws on any
  // mismatch, so simply pricing every unique layer of all six networks
  // in both modes IS the exactness proof — exhaustive, not sampled.
  // Layers are deduped by fingerprint (ResNet's repeated blocks, shared
  // shapes across modes) to keep the sweep tractable under sanitizers.
  const FunctionalBackend be(small_probes(), sim::bpvec_accelerator(),
                             arch::ddr4());
  common::ThreadPool pool(4);
  Rng rng(97);
  std::set<std::uint64_t> seen;
  int priced = 0;
  for (const auto mode : {dnn::BitwidthMode::kHomogeneous8b,
                          dnn::BitwidthMode::kHeterogeneous}) {
    for (const auto& net : dnn::all_models(mode)) {
      for (const dnn::Layer& layer : net.layers()) {
        const std::uint64_t fp =
            layer_fingerprint(layer, sim::bpvec_accelerator().time_chunk);
        if (!seen.insert(fp).second) continue;
        const sim::LayerResult r = be.price_layer(layer);
        ++priced;
        if (layer.is_compute()) {
          EXPECT_GT(r.measured_macs, 0) << layer.name;
          EXPECT_GE(r.measured_wall_s, 0.0) << layer.name;
        } else {
          EXPECT_EQ(r.measured_macs, 0) << layer.name;
        }
        // And the packed kernels are thread-count independent on the
        // exact probe shapes the backend executes.
        expect_threaded_matches_reference(be.probe_layer(layer), pool, rng);
      }
    }
  }
  // The zoo must actually exercise the sweep: every kind, many shapes.
  EXPECT_GT(priced, 50);
}

TEST(FunctionalBackend, ZooLayersVerifyOnEveryReachableDispatchVariant) {
  // The three-way exactness check must hold under every SIMD variant the
  // host can execute, not just the auto-selected one: price the deduped
  // zoo under each variant in turn. Pricing throws on any packed /
  // reference / CVU mismatch, so completing the sweep IS the proof. The
  // measured_macs must also agree across variants (everything but
  // wall-clock is variant-independent).
  const FunctionalBackend be(small_probes(), sim::bpvec_accelerator(),
                             arch::ddr4());
  std::vector<dnn::Layer> unique_layers;
  std::set<std::uint64_t> seen;
  for (const auto mode : {dnn::BitwidthMode::kHomogeneous8b,
                          dnn::BitwidthMode::kHeterogeneous}) {
    for (const auto& net : dnn::all_models(mode)) {
      for (const dnn::Layer& layer : net.layers()) {
        const std::uint64_t fp =
            layer_fingerprint(layer, sim::bpvec_accelerator().time_chunk);
        if (seen.insert(fp).second) unique_layers.push_back(layer);
      }
    }
  }
  ASSERT_GT(unique_layers.size(), 50u);

  std::vector<std::vector<std::int64_t>> macs_per_variant;
  {
    const AutoVariantGuard guard;
    for (const std::string& v : kernels::simd_available_variants()) {
      ASSERT_TRUE(kernels::simd_set_variant(v)) << v;
      std::vector<std::int64_t> macs;
      macs.reserve(unique_layers.size());
      for (const dnn::Layer& layer : unique_layers) {
        macs.push_back(be.price_layer(layer).measured_macs);
      }
      macs_per_variant.push_back(std::move(macs));
    }
  }
  for (std::size_t i = 1; i < macs_per_variant.size(); ++i) {
    EXPECT_EQ(macs_per_variant[i], macs_per_variant[0])
        << kernels::simd_available_variants()[i];
  }
}

/// Digest of one cached probe weight draw: every value, then every
/// plane's shape and words.
std::uint64_t weight_digest(const kernels::PackedWeights& w) {
  common::ConfigHash f;
  f.u64(w.values.size());
  for (const std::int32_t v : w.values) f.i32(v);
  f.u64(w.planes.size());
  for (const kernels::BitPlanes& planes : w.planes) {
    f.i64(planes.rows);
    f.i64(planes.cols);
    f.i32(planes.bits);
    f.i32(planes.is_signed ? 1 : 0);
    f.u64(planes.words);
    for (const std::uint64_t word : planes.data) f.u64(word);
  }
  return f.h;
}

TEST(FunctionalBackend, ProbeWeightsAndMacsArePinned) {
  // One zoo layer of each kind, at the default and the small probe
  // bounds: the measured MACs and the weight-plane cache entry the probe
  // builds (values and every plane word) are pinned, so a change to how
  // the probe draws, slices or packs its weights shows up here. Pool
  // probes draw no weights and leave no entry.
  struct Pin {
    const char* layer;
    bool small;
    std::int64_t macs;
    std::uint64_t digest;  // 0: no cache entry
  };
  const Pin pins[] = {
      {"conv2", false, 2457600, 3103067478919193580ull},
      {"conv2", true, 115200, 10249788045963207765ull},
      {"pool2", false, 0, 0},
      {"pool2", true, 0, 0},
      {"fc7", false, 262144, 6371050579035812335ull},
      {"fc7", true, 49152, 9376554641189730471ull},
      {"lstm", false, 32768, 10104803586188286856ull},
      {"lstm", true, 576, 7614321429108226205ull},
  };
  const auto mode = dnn::BitwidthMode::kHeterogeneous;
  const dnn::Network alexnet = dnn::make_alexnet(mode);
  const dnn::Network lstm = dnn::make_lstm(mode);
  auto& cache = kernels::WeightPlaneCache::instance();
  for (const Pin& pin : pins) {
    const dnn::Network& net = pin.layer == std::string("lstm") ? lstm : alexnet;
    const auto it = std::find_if(
        net.layers().begin(), net.layers().end(),
        [&](const dnn::Layer& l) { return l.name == pin.layer; });
    ASSERT_NE(it, net.layers().end()) << pin.layer;
    const FunctionalBackend be(pin.small ? small_probes() : FunctionalConfig{},
                               sim::bpvec_accelerator(), arch::ddr4());
    const std::string label =
        std::string(pin.layer) + (pin.small ? " small" : " default");
    cache.clear();
    EXPECT_EQ(be.price_layer(*it).measured_macs, pin.macs) << label;
    const auto entry = cache.find(be.weight_key(*it));
    EXPECT_EQ(entry ? weight_digest(**entry) : 0, pin.digest) << label;
  }
}

TEST(FunctionalBackend, WeightPlaneCacheHitsOnRepeatAndKeepsResultsIdentical) {
  auto& cache = kernels::WeightPlaneCache::instance();
  const FunctionalBackend be(small_probes(), sim::bpvec_accelerator(),
                             arch::ddr4());
  const dnn::Layer layer =
      dnn::make_conv("wc", {32, 9, 9, 24, 3, 3, 1, 1});

  cache.clear();
  const std::uint64_t h0 = cache.hits(), m0 = cache.misses();
  const sim::LayerResult first = be.price_layer(layer);
  EXPECT_EQ(cache.misses(), m0 + 1);  // cold: one draw+pack
  EXPECT_EQ(cache.hits(), h0);

  const sim::LayerResult second = be.price_layer(layer);
  EXPECT_EQ(cache.misses(), m0 + 1);  // warm: no re-pack
  EXPECT_EQ(cache.hits(), h0 + 1);
  EXPECT_EQ(first.measured_macs, second.measured_macs);
  EXPECT_EQ(first.total_cycles, second.total_cycles);

  // clear() drops entries but never rewinds the monotone counters; the
  // next probe re-packs and still reproduces the same results (the draw
  // is a pure function of the key).
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), m0 + 1);
  const sim::LayerResult third = be.price_layer(layer);
  EXPECT_EQ(cache.misses(), m0 + 2);
  EXPECT_EQ(first.measured_macs, third.measured_macs);
  EXPECT_EQ(first.total_cycles, third.total_cycles);
}

TEST(FunctionalBackend, WeightKeySeparatesLayersAndProbeConfigs) {
  const auto platform = sim::bpvec_accelerator();
  const FunctionalBackend base(small_probes(), platform, arch::ddr4());
  const dnn::Layer conv_a = dnn::make_conv("a", {16, 8, 8, 8, 3, 3, 1, 1});
  const dnn::Layer conv_b = dnn::make_conv("b", {16, 8, 8, 8, 5, 5, 1, 2});

  // Stable across calls and instances; structural on the layer (the name
  // is not part of the fingerprint).
  const FunctionalBackend twin(small_probes(), platform, arch::ddr4());
  EXPECT_EQ(base.weight_key(conv_a), base.weight_key(conv_a));
  EXPECT_EQ(base.weight_key(conv_a), twin.weight_key(conv_a));
  dnn::Layer renamed = conv_a;
  renamed.name = "renamed";
  EXPECT_EQ(base.weight_key(conv_a), base.weight_key(renamed));

  // Different shapes, seeds, and probe bounds draw different weights —
  // they must never share an entry.
  EXPECT_NE(base.weight_key(conv_a), base.weight_key(conv_b));
  FunctionalConfig reseeded = small_probes();
  reseeded.seed ^= 1;
  EXPECT_NE(base.weight_key(conv_a),
            FunctionalBackend(reseeded, platform, arch::ddr4())
                .weight_key(conv_a));
  FunctionalConfig wider = small_probes();
  wider.max_channels *= 2;
  EXPECT_NE(base.weight_key(conv_a),
            FunctionalBackend(wider, platform, arch::ddr4())
                .weight_key(conv_a));
}

TEST(FunctionalBackend, WeightPlaneCacheIsSafeUnderConcurrentProbes) {
  // Threads hammer get_or_build on a mix of shared and distinct keys
  // (exercising the build-outside-lock race, first-insert-wins, and the
  // shared-lock hit path). TSan covers this test in CI.
  auto& cache = kernels::WeightPlaneCache::instance();
  cache.clear();
  const FunctionalBackend be(small_probes(), sim::bpvec_accelerator(),
                             arch::ddr4());
  const std::vector<dnn::Layer> layers = {
      dnn::make_conv("c0", {8, 6, 6, 8, 3, 3, 1, 1}),
      dnn::make_conv("c1", {8, 6, 6, 8, 1, 1, 1, 0}),
      dnn::make_fc("f0", {128, 32}),
  };
  const sim::LayerResult expected0 = be.price_layer(layers[0]);
  const sim::LayerResult expected1 = be.price_layer(layers[1]);
  const sim::LayerResult expected2 = be.price_layer(layers[2]);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        const dnn::Layer& layer = layers[(t + i) % layers.size()];
        const sim::LayerResult r = be.price_layer(layer);
        const sim::LayerResult& want = (t + i) % layers.size() == 0
                                           ? expected0
                                           : ((t + i) % layers.size() == 1
                                                  ? expected1
                                                  : expected2);
        if (r.measured_macs != want.measured_macs ||
            r.total_cycles != want.total_cycles) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(FunctionalBackend, EngineStatsSurfaceWeightCacheCounters) {
  auto& cache = kernels::WeightPlaneCache::instance();
  std::vector<engine::Scenario> batch;
  batch.push_back(engine::make_scenario(
      "functional", engine::Platform::kBpvec, engine::Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b)));

  engine::SimEngine eng(engine::EngineOptions{});
  const engine::EngineStats before = eng.stats();
  EXPECT_EQ(before.weight_cache_hits, cache.hits());
  EXPECT_EQ(before.weight_cache_misses, cache.misses());

  (void)eng.run_batch(batch);
  const engine::EngineStats after = eng.stats();
  const engine::EngineStats delta = after - before;
  // AlexNet pricing draws at least one fresh or cached weight set per
  // compute layer; either way the counters moved and match the cache.
  EXPECT_GT(delta.weight_cache_hits + delta.weight_cache_misses, 0u);
  EXPECT_EQ(after.weight_cache_hits, cache.hits());
  EXPECT_EQ(after.weight_cache_misses, cache.misses());
}

TEST(FunctionalBackend, ProbeKeepsFullDepthAndCapsOutputs) {
  const FunctionalBackend be(FunctionalConfig{}, sim::bpvec_accelerator(),
                             arch::ddr4());
  // ResNet-style deep conv: K = 512·3·3 must survive untouched; the
  // output extents collapse to the caps.
  dnn::Layer conv = dnn::make_conv("c", {512, 28, 28, 512, 3, 3, 1, 1});
  const dnn::Layer probe = be.probe_layer(conv);
  const auto& p = probe.conv();
  EXPECT_EQ(p.in_c, 512);                    // full K depth
  EXPECT_EQ(p.kh, 3);
  EXPECT_EQ(p.out_c, 64);                    // capped N
  EXPECT_EQ(p.out_h(), 4);                   // capped M side
  EXPECT_EQ(p.out_w(), 4);
  EXPECT_EQ(probe.x_bits, conv.x_bits);

  // LSTM: gate depth input+hidden preserved, steps capped.
  dnn::Layer lstm = dnn::make_recurrent(
      "l", {dnn::RecurrentCellKind::kLstm, 2048, 1024, 512});
  const dnn::Layer lstm_probe = be.probe_layer(lstm);
  const auto& rp = lstm_probe.recurrent();
  EXPECT_EQ(rp.input_size, 64);
  EXPECT_EQ(rp.hidden_size, 64);
  EXPECT_EQ(rp.time_steps, 4);

  // A layer already under the caps is untouched.
  dnn::Layer tiny = dnn::make_conv("t", {3, 4, 4, 8, 3, 3, 1, 1});
  const dnn::Layer tiny_probe = be.probe_layer(tiny);
  const auto& tp = tiny_probe.conv();
  EXPECT_EQ(tp.in_h, 4);
  EXPECT_EQ(tp.out_c, 8);
}

TEST(FunctionalBackend, EverythingButWallClockIsDeterministic) {
  const dnn::Layer layer =
      dnn::make_conv("conv", {64, 14, 14, 96, 3, 3, 1, 1});
  const FunctionalBackend a(small_probes(), sim::tpu_like_baseline(),
                            arch::ddr4());
  const FunctionalBackend b(small_probes(), sim::tpu_like_baseline(),
                            arch::ddr4());
  const sim::LayerResult ra = a.price_layer(layer);
  const sim::LayerResult rb = b.price_layer(layer);
  // Distinct instances, distinct executions: identical measured_macs and
  // modeled metrics (wall-clock is the only field allowed to move).
  EXPECT_EQ(ra.measured_macs, rb.measured_macs);
  EXPECT_EQ(ra.total_cycles, rb.total_cycles);
  EXPECT_EQ(ra.energy.total_pj(), rb.energy.total_pj());
  EXPECT_GT(ra.measured_macs, 0);
}

TEST(FunctionalBackend, RunSumsMeasuredFieldsAcrossLayers) {
  const FunctionalBackend be(small_probes(), sim::bpvec_accelerator(),
                             arch::hbm2());
  const auto r = be.run(dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous));
  EXPECT_EQ(r.backend, "functional");
  double wall = 0.0;
  std::int64_t macs = 0;
  for (const auto& l : r.layers) {
    wall += l.measured_wall_s;
    macs += l.measured_macs;
  }
  EXPECT_EQ(r.measured_wall_s, wall);
  EXPECT_EQ(r.measured_macs, macs);
  EXPECT_GT(r.measured_macs, 0);
  // Modeled cycles ride along unchanged next to the measured numbers.
  EXPECT_GT(r.total_cycles, 0);
}

TEST(FunctionalBackend, FingerprintSeparatesProbeConfigsAndBackends) {
  const auto platform = sim::bpvec_accelerator();
  const FunctionalBackend base(FunctionalConfig{}, platform, arch::ddr4());

  FunctionalConfig reseeded;
  reseeded.seed ^= 1;
  EXPECT_NE(base.fingerprint(),
            FunctionalBackend(reseeded, platform, arch::ddr4()).fingerprint());

  FunctionalConfig wider;
  wider.max_channels *= 2;
  EXPECT_NE(base.fingerprint(),
            FunctionalBackend(wider, platform, arch::ddr4()).fingerprint());

  EXPECT_NE(base.fingerprint(),
            FunctionalBackend(FunctionalConfig{}, platform, arch::hbm2())
                .fingerprint());

  // Same platform/memory as the bpvec backend, different pricing model:
  // the two must never share cache entries.
  const auto bpvec = BackendRegistry::instance().create("bpvec", platform,
                                                        arch::ddr4());
  EXPECT_NE(base.fingerprint(), bpvec->fingerprint());
}

TEST(FunctionalBackend, WarmEngineRunReplaysMeasuredValuesAndPricesNothing) {
  const std::string dir = "functional_backend_cache_test";
  fs::remove_all(dir);

  std::vector<engine::Scenario> batch;
  batch.push_back(engine::make_scenario(
      "functional", engine::Platform::kBpvec, engine::Memory::kHbm2,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b)));

  engine::EngineOptions opts;
  opts.num_threads = 2;
  opts.disk_cache_dir = dir;

  engine::SimEngine cold(opts);
  const auto cold_results = cold.run_batch(batch);
  EXPECT_EQ(cold.stats().simulations_run, batch.size());
  ASSERT_EQ(cold_results.size(), 1u);
  EXPECT_GT(cold_results[0].measured_macs, 0);

  // Fresh engine, same directory: the functional scenario is served from
  // disk — zero layers execute, and the replay is bit-identical
  // INCLUDING wall-clock (cached copies are exact).
  engine::SimEngine warm(opts);
  const auto warm_results = warm.run_batch(batch);
  EXPECT_EQ(warm.stats().simulations_run, 0u);
  EXPECT_EQ(warm.stats().layers_priced, 0u);
  EXPECT_EQ(warm.stats().disk_hits, batch.size());
  expect_bit_identical(cold_results[0], warm_results[0]);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace bpvec::backend
