#include "src/backend/backend_registry.h"

#include <utility>

#include "src/backend/bit_serial_backend.h"
#include "src/backend/bpvec_backend.h"
#include "src/backend/functional_backend.h"
#include "src/backend/gpu_backend.h"
#include "src/common/error.h"

namespace bpvec::backend {

BackendRegistry::BackendRegistry() {
  register_backend("bpvec", [](const sim::AcceleratorConfig& platform,
                               const arch::DramModel& memory) {
    return std::make_unique<BpvecBackend>(platform, memory);
  });
  register_backend("bit_serial", [](const sim::AcceleratorConfig& platform,
                                    const arch::DramModel& memory) {
    return std::make_unique<BitSerialBackend>(
        BitSerialConfig{SerialMode::kActivationSerial, 16, 8}, platform,
        memory);
  });
  register_backend("bit_serial_loom",
                   [](const sim::AcceleratorConfig& platform,
                      const arch::DramModel& memory) {
                     return std::make_unique<BitSerialBackend>(
                         BitSerialConfig{SerialMode::kFullySerial, 16, 8},
                         platform, memory);
                   });
  register_backend("functional", [](const sim::AcceleratorConfig& platform,
                                    const arch::DramModel& memory) {
    return std::make_unique<FunctionalBackend>(FunctionalConfig{}, platform,
                                               memory);
  });
  register_backend("gpu", [](const sim::AcceleratorConfig&,
                             const arch::DramModel&) {
    return std::make_unique<GpuBackend>();
  });
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(std::string key,
                                       BackendFactory factory) {
  BPVEC_CHECK_MSG(!key.empty(), "backend key must be non-empty");
  BPVEC_CHECK_MSG(static_cast<bool>(factory), "backend factory must be set");
  std::lock_guard<std::mutex> lock(mu_);
  if (factories_.count(key) != 0) {
    throw Error("cost backend \"" + key + "\" is already registered");
  }
  factories_.emplace(std::move(key), std::move(factory));
}

std::unique_ptr<CostBackend> BackendRegistry::create(
    const std::string& key, const sim::AcceleratorConfig& platform,
    const arch::DramModel& memory) const {
  auto backend = resolve(key)(platform, memory);
  BPVEC_CHECK_MSG(backend != nullptr,
                  "backend factory returned null for: " + key);
  return backend;
}

bool BackendRegistry::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(key) != 0;
}

BackendFactory BackendRegistry::resolve(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = factories_.find(key);
  BPVEC_CHECK_MSG(it != factories_.end(), "unknown cost backend: " + key);
  return it->second;  // copy: callers construct outside the lock
}

std::vector<std::string> BackendRegistry::keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, entry] : factories_) out.push_back(key);
  return out;
}

}  // namespace bpvec::backend
