// The report contract — the one TU that turns priced batches and search
// outcomes into the machine-readable JSON documents tests/test_goldens
// diffs. Both front ends share it:
//
//   * the batch CLI (src/serve/driver.cpp, `bpvec_run`) writes
//     build_report/build_search_report output to REPORT_*.json;
//   * the serving daemon (src/serve/, `bpvec_serve`) embeds the same
//     documents in its response envelopes.
//
// Keeping the builders here (not in the driver) is what makes the
// determinism contract enforceable: a served request's report is built
// by the identical code from the identical inputs, so under
// deterministic-report semantics its bytes must equal the batch CLI's —
// tests/test_goldens compares both against one committed golden.
//
// Contract details:
//   * Scenario rows carry id/backend/platform/network/memory plus the
//     exact cycles, MACs, runtime, energy, and throughput numbers
//     (doubles %.17g — values round-trip bit-exactly through any JSON
//     parser). Measured fields appear only when a backend executed.
//   * The "stats" block is run-dependent (cold vs warm) and is omitted
//     under deterministic-report semantics. In a serving session the
//     stats passed here are the *per-request delta* (snapshot
//     before/after on the shared engine), which for the batch CLI's
//     fresh engine equals the engine's totals — so CLI reports are
//     byte-identical to what they were before the serve layer existed.
#pragma once

#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/dse/param_space.h"
#include "src/dse/search.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/sim/simulator.h"

namespace bpvec::cli {

struct SearchSpec;  // src/cli/manifest.h

/// Builds the report document for a priced batch. Scenario rows carry
/// id/backend/platform/network/memory plus the exact cycles, MACs,
/// runtime, energy, and throughput numbers (doubles %.17g — values
/// round-trip bit-exactly through any JSON parser).
common::json::Value build_report(const std::string& manifest_name,
                                 const std::vector<engine::Scenario>& batch,
                                 const std::vector<sim::RunResult>& results,
                                 const engine::EngineStats& stats,
                                 bool include_stats);

/// Search-mode report: strategy/space echo, candidate counters, and the
/// Pareto frontier in canonical order with full-precision knob, objective
/// and metric values. Deterministic except the optional "stats" block.
common::json::Value build_search_report(const std::string& manifest_name,
                                        const SearchSpec& spec,
                                        const dse::ParamSpace& space,
                                        const dse::SearchOutcome& outcome,
                                        const engine::EngineStats& stats,
                                        bool include_stats);

/// Build-identity document — what `bpvec_run --version` prints and the
/// daemon's {"op":"version"} returns, so fleet operators can tell
/// heterogeneous binaries apart before trusting cross-machine cache
/// dirs or comparing reports:
///   * "simd_variant": the bit-kernel ISA variant this binary executes
///     (kernels::simd_variant() — folded into functional fingerprints);
///   * "disk_cache_format_version": entries this binary reads/writes
///     (engine::DiskCache::kFormatVersion — older entries are rejected);
///   * "compiler" / "build": toolchain + NDEBUG state. Reports are
///     bit-identical across compilers (-ffp-contract=off), but knowing
///     who built a binary is the first question when they are not.
common::json::Value version_json();

}  // namespace bpvec::cli
