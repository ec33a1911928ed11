#include "src/backend/functional_backend.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/bitslice/cvu.h"
#include "src/common/clock.h"
#include "src/common/error.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/core/gemm_executor.h"
#include "src/dnn/gemm_lowering.h"
#include "src/dnn/quantize.h"
#include "src/dnn/reference_ops.h"
#include "src/kernels/packed_kernels.h"
#include "src/kernels/simd.h"
#include "src/kernels/weight_cache.h"

namespace bpvec::backend {

namespace {

using common::seconds_since;
using common::SteadyClock;

int ceil_log2(std::int64_t v) {
  int b = 0;
  while ((std::int64_t{1} << b) < v) ++b;
  return b;
}

/// A MAC probe's weights: `gates` row-major [rows][K] matrices drawn as
/// one signed_vector and packed into one BitPlanes per gate (conv and
/// fc have one gate; an LSTM has four). Drawn and packed once per (probe
/// config, layer) key — repeat probes hit the WeightPlaneCache and skip
/// both. The draw rides its own Rng stream, so skipping it never
/// perturbs the activation stream.
std::shared_ptr<const kernels::PackedWeights> probe_weights(
    std::uint64_t key, Rng& weight_rng, int gates, std::int64_t rows,
    std::int64_t k, int w_bits) {
  return kernels::WeightPlaneCache::instance().get_or_build(key, [&] {
    const auto gate_size = static_cast<std::size_t>(rows * k);
    kernels::PackedWeights pw;
    pw.values = weight_rng.signed_vector(gates * gate_size, w_bits);
    for (int g = 0; g < gates; ++g) {
      pw.planes.push_back(kernels::pack_values(
          pw.values.data() + static_cast<std::size_t>(g) * gate_size, rows, k,
          w_bits));
    }
    return std::make_shared<const kernels::PackedWeights>(std::move(pw));
  });
}

/// The weight values of gate `gate` ([rows][K] row-major), viewed in
/// place in the cached draw.
std::span<const std::int32_t> gate_values(const kernels::PackedWeights& w,
                                          std::size_t gate) {
  const kernels::BitPlanes& planes = w.planes[gate];
  const auto size = static_cast<std::size_t>(planes.rows * planes.cols);
  return std::span<const std::int32_t>(w.values).subspan(gate * size, size);
}

/// Scalar CVU datapath on a sub-block of the probe's GEMM: the
/// activation rows `a` against the first check_cols weight rows of
/// `gate`, through a small CVU (B = 16 covers every bitwidth the packer
/// accepts, not just the workload schema's [1, 8] range). Throws unless
/// matches(m, n, result) holds for every result.
template <typename Matches>
void check_cvu(const dnn::Layer& probe, const FunctionalConfig& fc,
               const dnn::Matrix& a, const kernels::PackedWeights& w,
               std::size_t gate, const char* op, Matches matches) {
  dnn::Matrix b;
  b.rows = std::min<std::int64_t>(fc.check_cols, w.planes[gate].rows);
  b.cols = w.planes[gate].cols;
  const auto head = gate_values(w, gate).first(
      static_cast<std::size_t>(b.rows * b.cols));
  b.data.assign(head.begin(), head.end());
  bitslice::Cvu cvu({2, 16, 16});
  const auto out = core::execute_gemm(cvu, a, b, probe.x_bits, probe.w_bits);
  for (std::int64_t m = 0; m < a.rows; ++m) {
    for (std::int64_t n = 0; n < b.rows; ++n) {
      BPVEC_CHECK_MSG(
          matches(m, n, out[static_cast<std::size_t>(m * b.rows + n)]),
          std::string("functional probe: CVU datapath deviates on ") + op +
              ": " + probe.name);
    }
  }
}

void probe_conv(const dnn::Layer& probe, const FunctionalConfig& fc,
                Rng& input_rng, Rng& weight_rng, std::uint64_t weight_key,
                kernels::KernelStats* stats, double* wall_s) {
  const dnn::ConvParams& p = probe.conv();
  dnn::Tensor input(p.in_c, p.in_h, p.in_w);
  for (auto& v : input.data()) v = input_rng.signed_value(probe.x_bits);
  const auto w = probe_weights(weight_key, weight_rng, 1, p.out_c,
                               std::int64_t{p.in_c} * p.kh * p.kw,
                               probe.w_bits);

  const auto t0 = SteadyClock::now();
  const auto packed = kernels::packed_conv(input, w->planes[0], p,
                                           probe.x_bits,
                                           /*pool=*/nullptr, stats);
  *wall_s += seconds_since(t0);

  const auto reference = dnn::conv2d_reference(input, w->values, p);
  BPVEC_CHECK_MSG(packed == reference,
                  "functional probe: packed conv deviates from reference: " +
                      probe.name);

  // Only the rows the CVU reads are lowered.
  const std::int64_t pixels = std::int64_t{p.out_h()} * p.out_w();
  check_cvu(probe, fc, dnn::im2col_rows(input, p, 0, fc.check_rows), *w, 0,
            "conv", [&](std::int64_t m, std::int64_t n, std::int64_t cvu) {
              return cvu == reference[static_cast<std::size_t>(n * pixels + m)];
            });
}

void probe_fc(const dnn::Layer& probe, const FunctionalConfig& fc,
              Rng& input_rng, Rng& weight_rng, std::uint64_t weight_key,
              kernels::KernelStats* stats, double* wall_s) {
  const dnn::FcParams& p = probe.fc();
  auto input = input_rng.signed_vector(
      static_cast<std::size_t>(p.in_features), probe.x_bits);
  const auto w = probe_weights(weight_key, weight_rng, 1, p.out_features,
                               p.in_features, probe.w_bits);

  const auto t0 = SteadyClock::now();
  const auto packed = kernels::packed_fc(input, w->planes[0], p,
                                         probe.x_bits, /*pool=*/nullptr,
                                         stats);
  *wall_s += seconds_since(t0);

  const auto reference = dnn::fc_reference(input, w->values, p);
  BPVEC_CHECK_MSG(packed == reference,
                  "functional probe: packed fc deviates from reference: " +
                      probe.name);

  check_cvu(probe, fc, dnn::Matrix{1, p.in_features, std::move(input)}, *w, 0,
            "fc", [&](std::int64_t, std::int64_t n, std::int64_t cvu) {
              return cvu == reference[static_cast<std::size_t>(n)];
            });
}

void probe_pool(const dnn::Layer& probe, Rng& input_rng,
                kernels::KernelStats* stats, double* wall_s) {
  const dnn::PoolParams& p = probe.pool();
  dnn::Tensor input(p.channels, p.in_h, p.in_w);
  for (auto& v : input.data()) v = input_rng.signed_value(probe.x_bits);

  const auto t0 = SteadyClock::now();
  const dnn::Tensor packed =
      kernels::packed_pool(input, p, /*pool=*/nullptr, stats);
  *wall_s += seconds_since(t0);

  const dnn::Tensor reference = dnn::pool_reference(input, p);
  // No MACs, no GEMM — the pool probe is a two-way check (the CVU never
  // sees pooling; it runs on the post-processing unit in the model too).
  BPVEC_CHECK_MSG(packed.data() == reference.data(),
                  "functional probe: packed pool deviates from reference: " +
                      probe.name);
}

void probe_recurrent(const dnn::Layer& probe, const FunctionalConfig& fc,
                     Rng& input_rng, Rng& weight_rng,
                     std::uint64_t weight_key, kernels::KernelStats* stats,
                     double* wall_s) {
  const dnn::RecurrentParams& p = probe.recurrent();
  const std::int64_t k = p.input_size + p.hidden_size;
  const int out_bits = probe.x_bits;
  // Shift sized to the worst-case accumulator so requantized state lands
  // back in the activation range without saturating everything to the
  // clamp rails (saturated state would verify trivially).
  const int shift = std::max(
      0, ceil_log2(k) + probe.x_bits + probe.w_bits - 1 - out_bits);

  auto h = input_rng.signed_vector(static_cast<std::size_t>(p.hidden_size),
                                   probe.x_bits);
  // One weight matrix per gate; LSTM probes cycle through all four (step
  // t uses gate t mod gates), so every gate matrix meets a real
  // reference recurrence.
  const int gates = p.gates();
  const auto w = probe_weights(weight_key, weight_rng, gates, p.hidden_size,
                               k, probe.w_bits);

  for (int t = 0; t < p.time_steps; ++t) {
    const auto x = input_rng.signed_vector(
        static_cast<std::size_t>(p.input_size), probe.x_bits);
    const auto gate = static_cast<std::size_t>(t % gates);

    const auto t0 = SteadyClock::now();
    auto packed = kernels::packed_rnn_step(x, h, w->planes[gate],
                                           p.hidden_size, shift, out_bits,
                                           probe.x_bits, /*pool=*/nullptr,
                                           stats);
    *wall_s += seconds_since(t0);

    BPVEC_CHECK_MSG(
        packed == dnn::rnn_step_reference(x, h, gate_values(*w, gate),
                                          p.hidden_size, shift, out_bits),
        "functional probe: packed recurrent step deviates from reference: " +
            probe.name);

    if (t == p.time_steps - 1) {
      // CVU datapath on this step's pre-activation accumulators.
      std::vector<std::int32_t> xh = x;
      xh.insert(xh.end(), h.begin(), h.end());
      check_cvu(probe, fc, dnn::Matrix{1, k, std::move(xh)}, *w, gate,
                "recurrent step",
                [&](std::int64_t, std::int64_t n, std::int64_t cvu) {
                  return dnn::requantize(cvu, shift, out_bits) ==
                         packed[static_cast<std::size_t>(n)];
                });
    }
    h = std::move(packed);
  }
}

}  // namespace

FunctionalBackend::FunctionalBackend(FunctionalConfig functional,
                                     sim::AcceleratorConfig config,
                                     arch::DramModel memory)
    : functional_(functional), sim_(std::move(config), std::move(memory)) {
  BPVEC_CHECK_MSG(functional_.max_side >= 1 && functional_.max_channels >= 1 &&
                      functional_.max_time_steps >= 1 &&
                      functional_.check_rows >= 1 && functional_.check_cols >= 1,
                  "functional probe bounds must be positive");
}

const std::string& FunctionalBackend::name() const {
  static const std::string kName = "functional";
  return kName;
}

std::uint64_t FunctionalBackend::fingerprint() const {
  common::ConfigHash f;
  f.str(name());
  // The kernel variant cannot change results (integer math is exact in
  // every variant) but does change measured_wall_s; folding the
  // runtime-SELECTED variant in keeps cache entries from one dispatch
  // out of another's runs (and re-keys the caches if a test forces a
  // different variant mid-process).
  f.str(kernels::simd_variant());
  f.u64(functional_.seed);
  f.i32(functional_.max_side);
  f.i32(functional_.max_channels);
  f.i32(functional_.max_time_steps);
  f.i32(functional_.check_rows);
  f.i32(functional_.check_cols);
  hash_platform(f, sim_.config());
  hash_memory(f, sim_.dram());
  return f.h;
}

std::uint64_t FunctionalBackend::weight_key(const dnn::Layer& layer) const {
  common::ConfigHash f;
  f.str("functional-weight-planes");
  f.u64(functional_.seed);
  f.i32(functional_.max_side);
  f.i32(functional_.max_channels);
  f.i32(functional_.max_time_steps);
  f.u64(layer_fingerprint(layer, hash_time_chunk()));
  return f.h;
}

dnn::Layer FunctionalBackend::probe_layer(const dnn::Layer& layer) const {
  dnn::Layer probe = layer;
  switch (layer.kind) {
    case dnn::LayerKind::kConv: {
      dnn::ConvParams p = layer.conv();
      p.out_c = std::min(p.out_c, functional_.max_channels);
      // Shrink the input so the output is exactly max_side wide: the
      // formula inverts out_h() = (in_h + 2·pad − kh)/stride + 1. A
      // result outside [1, in_h] means the layer is already small (or
      // pad-dominated) — keep the original extent.
      const int oh = std::min(p.out_h(), functional_.max_side);
      const int in_h = (oh - 1) * p.stride + p.kh - 2 * p.pad;
      if (in_h >= 1 && in_h <= p.in_h) p.in_h = in_h;
      const int ow = std::min(p.out_w(), functional_.max_side);
      const int in_w = (ow - 1) * p.stride + p.kw - 2 * p.pad;
      if (in_w >= 1 && in_w <= p.in_w) p.in_w = in_w;
      probe.params = p;
      break;
    }
    case dnn::LayerKind::kFullyConnected: {
      dnn::FcParams p = layer.fc();
      p.out_features = std::min(p.out_features, functional_.max_channels);
      probe.params = p;
      break;
    }
    case dnn::LayerKind::kPool: {
      dnn::PoolParams p = layer.pool();
      p.channels = std::min(p.channels, functional_.max_channels);
      const int oh = std::min(p.out_h(), functional_.max_side);
      p.in_h = std::min(p.in_h, (oh - 1) * p.stride + p.k);
      const int ow = std::min(p.out_w(), functional_.max_side);
      p.in_w = std::min(p.in_w, (ow - 1) * p.stride + p.k);
      probe.params = p;
      break;
    }
    case dnn::LayerKind::kRecurrent: {
      dnn::RecurrentParams p = layer.recurrent();
      p.input_size = std::min(p.input_size, functional_.max_channels);
      p.hidden_size = std::min(p.hidden_size, functional_.max_channels);
      p.time_steps = std::min(p.time_steps, functional_.max_time_steps);
      probe.params = p;
      break;
    }
  }
  return probe;
}

sim::LayerResult FunctionalBackend::price_layer(const dnn::Layer& layer) const {
  // Modeled half: the same cycle-level pricing as "bpvec".
  sim::LayerResult result = sim_.run_layer(layer);

  // Measured half: execute the bounded probe. The Rng stream is forked
  // off the layer fingerprint and split into independent activation
  // (fork 0) and weight (fork 1) streams: probe data — and every output
  // but wall-clock — is a pure function of (seed, layer shape,
  // bitwidths), and a weight-cache hit can skip the weight draw without
  // disturbing the activations.
  const dnn::Layer probe = probe_layer(layer);
  const Rng base = Rng(functional_.seed)
                       .fork(layer_fingerprint(layer, hash_time_chunk()));
  Rng input_rng = base.fork(0);
  Rng weight_rng = base.fork(1);
  const std::uint64_t wkey = weight_key(layer);
  kernels::KernelStats stats;
  double wall_s = 0.0;
  switch (probe.kind) {
    case dnn::LayerKind::kConv:
      probe_conv(probe, functional_, input_rng, weight_rng, wkey, &stats,
                 &wall_s);
      break;
    case dnn::LayerKind::kFullyConnected:
      probe_fc(probe, functional_, input_rng, weight_rng, wkey, &stats,
               &wall_s);
      break;
    case dnn::LayerKind::kPool:
      probe_pool(probe, input_rng, &stats, &wall_s);
      break;
    case dnn::LayerKind::kRecurrent:
      probe_recurrent(probe, functional_, input_rng, weight_rng, wkey, &stats,
                      &wall_s);
      break;
  }
  result.measured_wall_s = wall_s;
  result.measured_macs = stats.macs;
  return result;
}

sim::RunResult FunctionalBackend::assemble(
    const dnn::Network& network, std::vector<sim::LayerResult> layers) const {
  return sim::assemble_run(sim_.config().name, network.name(),
                           sim_.dram().name, name(), std::move(layers),
                           sim_.config().frequency_hz);
}

}  // namespace bpvec::backend
