// A Scenario is one cell of the paper's evaluation matrices: a platform
// (Table II accelerator config), a memory system, and a network at a
// bitwidth mode. SimEngine::run_batch prices many of them in parallel.
//
// Scenarios are plain data — fully resolved configs rather than enum
// handles — so sweeps can perturb any knob (bandwidth, scratchpad size,
// batch size…) and still ride the same batch path. `fingerprint()` hashes
// every field that can influence simulation results; the engine's result
// cache is keyed on it so repeated design points are priced once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/dram.h"
#include "src/dnn/network.h"
#include "src/sim/config.h"

namespace bpvec::engine {

/// Table II platform selector for the factory helpers.
enum class Platform { kTpuLike, kBitFusion, kBpvec };

/// The manifest token of each Platform, indexed by enumerator:
/// platform_tokens()[i] names static_cast<Platform>(i).
const std::vector<std::string>& platform_tokens();
const char* to_string(Platform platform);

/// The Table II accelerator config of `platform`.
sim::AcceleratorConfig platform_config(Platform platform);

/// The paper's two memory systems (Table II).
enum class Memory { kDdr4, kHbm2 };

/// The manifest token of each Memory, indexed by enumerator.
const std::vector<std::string>& memory_tokens();
const char* to_string(Memory memory);

arch::DramModel make_memory(Memory memory);

struct Scenario {
  std::string id;  // label for reports/JSON; defaults to
                   // <backend>:<platform>/<network>/<memory>
  /// BackendRegistry key of the cost model that prices this scenario.
  /// The engine resolves it per run; the fingerprint folds it in so two
  /// different cost models of the same scenario never share a cache
  /// entry.
  std::string backend = "bpvec";
  sim::AcceleratorConfig platform;
  arch::DramModel memory;
  dnn::Network network{"", dnn::NetworkType::kCnn};

  /// 64-bit hash over every simulation-relevant field (backend id,
  /// platform knobs, memory knobs, and the *structural* network
  /// fingerprint — layer shapes and bitwidths; network/layer names are
  /// excluded because they label results without changing pricing, so
  /// structurally identical workloads dedupe across every cache layer).
  /// Two scenarios with equal fingerprints produce bit-identical
  /// RunResults up to those labels, which SimEngine::run_batch restores
  /// per scenario (the engine additionally folds the resolved backend's
  /// own fingerprint into cache keys).
  std::uint64_t fingerprint() const;
};

/// One cell of the Figs. 5–9 grids: a Table II platform × paper memory
/// system × network, priced by the default "bpvec" cycle simulator.
/// `bitwidth_mode` is carried by `net` (model zoo).
Scenario make_scenario(Platform platform, Memory memory,
                       dnn::Network net, std::string id = "");

/// Custom-config variant for sweeps.
Scenario make_scenario(sim::AcceleratorConfig config, arch::DramModel memory,
                       dnn::Network net, std::string id = "");

/// Variant priced by an explicit BackendRegistry key (e.g. "bit_serial"
/// for the Stripes-like baseline on the same platform envelope).
Scenario make_scenario(std::string backend, Platform platform,
                       Memory memory, dnn::Network net,
                       std::string id = "");

/// Custom-config variant with an explicit backend key.
Scenario make_scenario(std::string backend, sim::AcceleratorConfig config,
                       arch::DramModel memory, dnn::Network net,
                       std::string id = "");

/// Fig. 9 GPU-baseline cell: priced by the "gpu" roofline backend (the
/// platform/memory fields are placeholders the backend ignores).
Scenario make_gpu_scenario(dnn::Network net, std::string id = "");

}  // namespace bpvec::engine
