// String-keyed registry of cost-backend factories (the pass/op-model
// registry idiom): SimEngine resolves Scenario::backend through it, so
// registering a new CostBackend makes it reachable from every bench,
// table, and BENCH json without touching the engine.
//
// Builtins registered at construction:
//   "bpvec"           cycle-level Simulator (Table II ASIC platforms)
//   "bit_serial"      Stripes-like activation-serial baseline
//   "bit_serial_loom" Loom-like fully-serial baseline
//   "functional"      bpvec cycle model + bit-packed probe execution
//                     (measured wall-clock, three-way verification)
//   "gpu"             RTX 2080 Ti roofline (ignores platform/memory)
//
// A factory receives the scenario's resolved platform + memory configs;
// backends that don't consume them (the GPU roofline) simply ignore
// them. A key names one factory for the life of the process (as
// workload::NetworkRegistry does for network names): the engine's
// scenario memo names a backend only by its key, so registering a taken
// key throws instead of overwriting it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/backend/cost_backend.h"

namespace bpvec::backend {

using BackendFactory = std::function<std::unique_ptr<CostBackend>(
    const sim::AcceleratorConfig& platform, const arch::DramModel& memory)>;

class BackendRegistry {
 public:
  /// Process-wide registry (thread-safe).
  static BackendRegistry& instance();

  /// Registers a factory under `key`; throws bpvec::Error naming `key`
  /// when it is already taken.
  void register_backend(std::string key, BackendFactory factory);

  /// Instantiates the backend registered under `key` for the given
  /// pricing context. Fails loudly on unknown keys.
  std::unique_ptr<CostBackend> create(const std::string& key,
                                      const sim::AcceleratorConfig& platform,
                                      const arch::DramModel& memory) const;

  bool contains(const std::string& key) const;

  /// The factory registered under `key`, copied out so callers construct
  /// backends outside the registry lock. Fails loudly on unknown keys.
  BackendFactory resolve(const std::string& key) const;

  /// Registered keys, sorted — benches iterate this to grow a backend
  /// column automatically.
  std::vector<std::string> keys() const;

 private:
  BackendRegistry();  // registers the builtins

  mutable std::mutex mu_;
  std::map<std::string, BackendFactory> factories_;
};

}  // namespace bpvec::backend
