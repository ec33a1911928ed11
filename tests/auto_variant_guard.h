// Shared test helper: restores the "auto" SIMD dispatch on scope exit.
// Tests that loop over kernels::simd_available_variants() force each
// variant in turn; with this guard a failed ASSERT inside the loop
// cannot leave every later test in the binary on a forced variant.
#pragma once

#include "src/kernels/simd.h"

namespace bpvec {

struct AutoVariantGuard {
  AutoVariantGuard() = default;
  AutoVariantGuard(const AutoVariantGuard&) = delete;
  AutoVariantGuard& operator=(const AutoVariantGuard&) = delete;
  ~AutoVariantGuard() { kernels::simd_set_variant("auto"); }
};

}  // namespace bpvec
