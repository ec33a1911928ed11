#include "src/engine/scenario.h"

#include <utility>

#include "src/backend/cost_backend.h"
#include "src/common/hash.h"
#include "src/workload/schema.h"

namespace bpvec::engine {

const std::vector<std::string>& platform_tokens() {
  static const std::vector<std::string> tokens{"tpu_like", "bitfusion",
                                               "bpvec"};
  return tokens;
}

const char* to_string(Platform platform) {
  return platform_tokens()[static_cast<std::size_t>(platform)].c_str();
}

const std::vector<std::string>& memory_tokens() {
  static const std::vector<std::string> tokens{"ddr4", "hbm2"};
  return tokens;
}

const char* to_string(Memory memory) {
  return memory_tokens()[static_cast<std::size_t>(memory)].c_str();
}

arch::DramModel make_memory(Memory memory) {
  return memory == Memory::kDdr4 ? arch::ddr4() : arch::hbm2();
}

std::uint64_t Scenario::fingerprint() const {
  common::ConfigHash f;
  // Backend id first: two different cost models of the same platform ×
  // memory × network must never collide in the engine's result cache.
  f.str(backend);
  backend::hash_platform(f, platform);
  backend::hash_memory(f, memory);
  // Network: the structural fingerprint only — shapes and bitwidths
  // drive pricing, names merely label it. Structurally identical
  // workloads (a JSON copy of a zoo model, two registry entries for one
  // architecture) therefore share scenario/disk cache entries, and two
  // different networks that happen to share a name can never collide.
  // The engine restores per-scenario network/layer labels on cached
  // results, so reports still carry each scenario's own names.
  f.u64(workload::network_fingerprint(network, platform.time_chunk));
  return f.h;
}

sim::AcceleratorConfig platform_config(Platform platform) {
  switch (platform) {
    case Platform::kTpuLike: return sim::tpu_like_baseline();
    case Platform::kBitFusion: return sim::bitfusion_accelerator();
    case Platform::kBpvec: return sim::bpvec_accelerator();
  }
  return sim::bpvec_accelerator();
}

Scenario make_scenario(Platform platform, Memory memory,
                       dnn::Network net, std::string id) {
  return make_scenario(platform_config(platform), make_memory(memory),
                       std::move(net), std::move(id));
}

Scenario make_scenario(sim::AcceleratorConfig config, arch::DramModel memory,
                       dnn::Network net, std::string id) {
  return make_scenario("bpvec", std::move(config), std::move(memory),
                       std::move(net), std::move(id));
}

Scenario make_scenario(std::string backend, Platform platform,
                       Memory memory, dnn::Network net,
                       std::string id) {
  return make_scenario(std::move(backend), platform_config(platform),
                       make_memory(memory), std::move(net),
                       std::move(id));
}

Scenario make_scenario(std::string backend, sim::AcceleratorConfig config,
                       arch::DramModel memory, dnn::Network net,
                       std::string id) {
  Scenario s;
  s.backend = std::move(backend);
  s.platform = std::move(config);
  s.memory = std::move(memory);
  s.network = std::move(net);
  if (id.empty()) {
    s.id = s.backend;
    s.id += ':';
    s.id += s.platform.name;
    s.id += '/';
    s.id += s.network.name();
    s.id += '/';
    s.id += s.memory.name;
  } else {
    s.id = std::move(id);
  }
  return s;
}

Scenario make_gpu_scenario(dnn::Network net, std::string id) {
  if (id.empty()) {
    id = "gpu:RTX 2080 Ti/" + net.name() + "/GDDR6";
  }
  // Placeholder platform/memory: the gpu backend prices from its GpuSpec.
  return make_scenario("gpu", Platform::kBpvec, Memory::kDdr4,
                       std::move(net), std::move(id));
}

}  // namespace bpvec::engine
