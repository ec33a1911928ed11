// Wall-clock elapsed time for the engine's phase timers, the serve
// latencies and the functional backend's kernel timings.
#pragma once

#include <chrono>

namespace bpvec::common {

using SteadyClock = std::chrono::steady_clock;

/// Seconds of steady-clock time since `start`.
inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace bpvec::common
