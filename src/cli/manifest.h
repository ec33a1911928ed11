// Scenario manifests — the declarative grid format behind `bpvec_run`.
//
// The paper's evaluation is a pile of platform × network × memory ×
// backend grids (Figs. 5–9); before this existed, every grid was
// hand-written C++ in bench/. A manifest describes such a grid as data:
//
//   {
//     "name": "fig5",
//     "description": "BPVeC vs TPU-like, DDR4, homogeneous 8-bit",
//     "workloads": [                              // optional, see below
//       {"file": "nets/my_net.json"},
//       {"network": { ...workload schema... }},
//       {"generator": "mlp_family", "depth": [4, 8], "width": [1024]}
//     ],
//     "grids": [
//       {
//         "backends": ["bpvec"],                  // optional, default
//         "platforms": ["tpu_like", "bpvec"],
//         "memories": ["ddr4"],
//         "networks": ["all"],                    // see the three kinds below
//         "bitwidth_modes": ["homogeneous8b"],    // optional, default
//         "platform_overrides": {"batch_size": 4},      // optional
//         "memory_overrides": {"bandwidth_gbps": 32.0}, // optional
//         "bitwidth_override": {"x_bits": 4, "w_bits": 4},  // optional
//         "id_suffix": " @bw32"                   // optional
//       }
//     ]
//   }
//
// expand() turns each grid into its cross product of engine::Scenarios
// (loop order: bitwidth modes → networks → platforms → memories →
// backends — networks outermost matches the bench binaries' batch
// layout, so a manifest reproducing a figure yields the identical batch)
// and concatenates the grids in manifest order. Non-cross-product
// figures (Fig. 6's three platform×memory columns) are several grids.
//
// parse_manifest resolves everything that needs no registry lookup into
// typed values: each grid's platforms and memories become Table II
// configs with their overrides applied and validated, its networks
// canonical tokens (meta tokens expanded), its modes dnn::BitwidthModes;
// the search block's selectors become enums and its space a
// dse::ParamSpace. expand() and search_base_scenario() only combine
// them. Validation is strict and failure messages name the offending key
// or value and what was expected — manifests are hand-written and the
// CLI is the first thing a new user touches. Unknown object keys are
// errors (they are silent typos otherwise). Backend keys are validated
// against the live BackendRegistry when the manifest's workloads
// register, before any of them does, so custom registered backends work
// without touching this file and a rejected manifest registers nothing.
//
// The "workloads" block declares networks the manifest brings along,
// in three source kinds (see src/workload/):
//   * file       {"file": "nets/my_net.json"} — a workload-schema
//                document, resolved relative to the manifest's
//                directory; registered under the document's "name".
//   * inline     {"network": { ...workload schema... }} — the same
//                schema embedded in the manifest.
//   * generator  {"generator": "mlp_family", "depth": [4, 8],
//                 "width": [1024], "bitwidth_policy": ["uniform:4"]} —
//                the cross product of the knob lists (scalars allowed),
//                one registered network per combination, named by
//                workload::generated_name ("mlp_family-d4-w1024-u4").
// Declared workloads register into the NetworkRegistry when the
// manifest expands or searches (idempotently — re-expanding is a no-op;
// a name collision with different content is an error). A grid's
// "networks" axis then accepts any registered token, plus two meta
// tokens: "all" (the six Table I zoo models) and "workloads" (every
// network this manifest's workloads block declares, in declaration
// order).
// A manifest may also (or instead) carry a "search" block — a declarative
// design-space search the `bpvec_run search` subcommand executes through
// the dse subsystem:
//
//   {
//     "name": "dse_smoke",
//     "search": {
//       "backend": "bpvec",                    // optional, default
//       "platform": "bpvec",                   // optional, default
//       "memory": "ddr4",                      // optional, default
//       "network": "alexnet",                  // required unless "workload"
//       "workload": {"generator": "mlp_family", // generated base network;
//                    "depth": 4, "width": 1024, // excludes "network" and
//                    "bitwidth_policy": "uniform:4"}, // "bitwidth_mode"
//       "bitwidth_mode": "heterogeneous",      // optional
//       "space": {                             // required: knob → values
//         "cvu_slice_bits": [1, 2, 4],
//         "cvu_lanes": [4, 16],
//         "batch_size": [1, 4]
//       },
//       "strategy": "grid",        // grid | random | hill_climb |
//                                  //   annealing | genetic
//       "budget": 64,              // eval cap (random/annealing/genetic:
//                                  //   required)
//       "seed": 42,                            // optional
//       "restarts": 4,                         // hill_climb/annealing starts
//       "population": 16,                      // genetic generation size
//       "objectives": ["cycles", "energy"],    // or {"metric","maximize"}
//       "constraints": {"min_utilization": 0.5},
//       "mix": [{"x_bits": 4, "w_bits": 4, "weight": 0.6}]  // optional
//     }
//   }
//
// Platform, memory and bitwidth-mode tokens are engine::platform_tokens(),
// engine::memory_tokens() and dnn::bitwidth_mode_tokens(), the tables
// `bpvec_run list` prints, matched case-insensitively ignoring '-' and
// '_' (so "TPU-like" == "tpu_like").
// Knob tokens are the dse::Knob tokens; axis order in the manifest is the
// space's canonical axis order. The grid override keys are the same
// tokens: src/dse/param_space defines once how each token reads from JSON
// and which config field it sets, for both overrides and search axes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/dse/search.h"
#include "src/engine/scenario.h"
#include "src/workload/generators.h"

namespace bpvec::cli {

/// Forces every compute layer of every network in the grid to these
/// operand bitwidths (pool layers are untouched). Sits on top of the
/// grid's bitwidth_modes — useful for "what if everything were 2-bit"
/// sweeps the Table I assignments don't cover.
struct BitwidthOverride {
  int x_bits = 8;
  int w_bits = 8;
};

/// One entry of the manifest's "workloads" block, parsed eagerly: the
/// network prototypes (declared bitwidths) and the names they register
/// under are resolved at parse time, so grid validation can see them.
struct WorkloadSpec {
  enum class Kind { kFile, kInline, kGenerator };
  Kind kind = Kind::kFile;
  std::string file;                  // kFile: the path as written
  std::string generator;             // kGenerator: canonical family token
  // kGenerator knob lists as written (empty = family default); the
  // entry's networks are their cross product, depth-outermost.
  std::vector<int> depths, widths;
  std::vector<std::string> policies;
  // Filled at parse, 1:1: names[i] registers prototypes[i].
  std::vector<std::string> names;
  std::vector<dnn::Network> prototypes;
};

/// One grid, resolved at parse: expand() only takes the cross product.
struct GridSpec {
  /// BackendRegistry keys, checked against the live registry by
  /// register_workloads (custom backends may register after parse).
  std::vector<std::string> backends{"bpvec"};
  /// The Table II configs the "platforms" tokens name, with
  /// "platform_overrides" applied through dse::apply_knob in
  /// dse::platform_knobs() order and re-validated.
  std::vector<sim::AcceleratorConfig> platforms;
  /// The memory systems the "memories" tokens name, with
  /// "memory_overrides" applied in dse::memory_knobs() order and checked
  /// by arch::DramModel::valid().
  std::vector<arch::DramModel> memories;
  /// Canonical network tokens: NetworkRegistry tokens (zoo builtins,
  /// user registrations) and this manifest's workload names, with the
  /// meta tokens expanded — "all" to the Table I zoo, "workloads" to
  /// every network the manifest's workloads block declares.
  std::vector<std::string> networks;
  std::vector<dnn::BitwidthMode> bitwidth_modes{
      dnn::BitwidthMode::kHomogeneous8b};
  std::optional<BitwidthOverride> bitwidth_override;
  /// Appended to every generated scenario id (default ids are
  /// <backend>:<platform>/<network>/<memory>, which collide between two
  /// grids that differ only in overrides).
  std::string id_suffix;
};

/// The "search" block, resolved at parse: one base scenario's selectors
/// plus a typed knob space and the strategy/budget/objectives/constraints
/// that drive the dse subsystem.
struct SearchSpec {
  std::string backend{"bpvec"};  // checked like GridSpec::backends
  engine::Platform platform = engine::Platform::kBpvec;
  engine::Memory memory = engine::Memory::kDdr4;
  std::string network;                     // canonical network token
  /// Workload generator ("workload" block): the base network comes from
  /// workload::generate and the space may sweep net_depth / net_width /
  /// net_bits axes through it. Mutually exclusive with "network",
  /// "bitwidth_mode", and "bitwidth_override" (the generator's
  /// bitwidth_policy — and the net_bits axis — own the bits).
  std::optional<workload::GeneratorSpec> workload;
  dnn::BitwidthMode bitwidth_mode = dnn::BitwidthMode::kHomogeneous8b;
  std::optional<BitwidthOverride> bitwidth_override;
  dse::ParamSpace space;                   // manifest order == axis order
  std::string strategy{"grid"};            // dse::strategy_tokens()
  std::size_t budget = 0;                  // 0 = strategy decides
  std::size_t restarts = 4;                // hill_climb starts / annealing chains
  std::size_t population = 16;             // genetic generation size
  std::uint64_t seed = 42;
  std::vector<dse::Objective> objectives{  // default: cycles + energy
      {dse::Metric::kCycles, false},
      {dse::Metric::kEnergy, false}};
  dse::Constraints constraints;
  std::vector<core::BitwidthMixEntry> mix;  // empty = derive from network
};

struct Manifest {
  std::string name;         // report label; required, non-empty
  std::string description;  // optional free text
  std::vector<WorkloadSpec> workloads;      // optional declared networks
  std::vector<GridSpec> grids;              // may be empty when search is set
  std::optional<SearchSpec> search;
};

/// Parses, resolves and validates a manifest document (overrides
/// included). Throws bpvec::Error with the grid index and offending
/// key/value on any schema violation.
/// `base_dir` resolves relative workload "file" paths (load_manifest
/// passes the manifest's directory; empty = the working directory).
Manifest parse_manifest(const common::json::Value& root,
                        const std::string& base_dir = "");

/// parse_manifest of a file (errors include the path).
Manifest load_manifest(const std::string& path);

/// The search block as a "search" document that parses back to an
/// equivalent block (defaulted fields are emitted explicitly) — the
/// "search" echo inside search-mode reports.
common::json::Value to_json(const SearchSpec& spec);

/// Checks every backend key the manifest names (grids and search)
/// against the live BackendRegistry, then registers the declared
/// workloads into the process-wide NetworkRegistry in one batch
/// (idempotent for identical content — expand() calls this on every run)
/// and returns the registered names in declaration order. Throws
/// bpvec::Error naming the grid, the search block or the workload entry
/// on an unknown backend or a name collision with different content;
/// either failure registers nothing.
std::vector<std::string> register_workloads(const Manifest& manifest);

/// Expands every grid into scenarios, in the documented deterministic
/// order (register_workloads first, which validates the backend keys).
/// Throws bpvec::Error naming the grid on failure.
/// Default ids (<backend>:<platform>/<network>/<memory>) do not name the
/// bitwidth mode, so they are unique only within one bitwidth mode: a
/// manifest pricing the same cell in two modes repeats the id with
/// different numbers. Give one of the grids an id_suffix (fig9.json uses
/// " @heterogeneous") when ids must tell the modes apart.
std::vector<engine::Scenario> expand(const Manifest& manifest);

/// The search block's ParamSpace (axes in manifest order), built at
/// parse.
dse::ParamSpace search_space(const SearchSpec& spec);

/// The search block's base scenario: platform/memory/network built
/// exactly like grid expansion (bitwidth_override applied), backend
/// validated against the live BackendRegistry. A "workload" block
/// generates the base network instead of resolving a registry token
/// (declared manifest workloads must be registered first — the driver
/// calls register_workloads). Throws bpvec::Error.
engine::Scenario search_base_scenario(const SearchSpec& spec);

}  // namespace bpvec::cli
