// Shared test helper: a memoizing "bpvec". The engine's layer memo only
// serves backends whose memoize_layers() is true, and the one production
// backend that opts in ("functional") reports measured wall time, which
// two executions never agree on. This wrapper is the deterministic cycle
// simulator with the memo switched on, so tests can demand exact
// equality between the memo path and BpvecBackend::run.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "src/backend/backend_registry.h"
#include "src/backend/bpvec_backend.h"
#include "src/engine/scenario.h"

namespace bpvec {

class MemoBpvecBackend : public backend::BpvecBackend {
 public:
  using BpvecBackend::BpvecBackend;
  bool memoize_layers() const override { return true; }
};

/// Registry key of the wrapper, registered on first use.
inline const std::string& memo_bpvec_key() {
  static const std::string key = [] {
    std::string k = "test_memo_bpvec";
    backend::BackendRegistry::instance().register_backend(
        k, [](const sim::AcceleratorConfig& platform,
              const arch::DramModel& memory) {
          return std::make_unique<MemoBpvecBackend>(platform, memory);
        });
    return k;
  }();
  return key;
}

/// `s` re-keyed onto the memoizing wrapper (same platform, memory and
/// network).
inline engine::Scenario memoized(engine::Scenario s) {
  s.backend = memo_bpvec_key();
  return s;
}

/// The reference result: the plain "bpvec" backend's run() of `s`.
inline sim::RunResult direct_bpvec_run(const engine::Scenario& s) {
  return backend::BpvecBackend(s.platform, s.memory).run(s.network);
}

}  // namespace bpvec
