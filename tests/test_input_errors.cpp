// Pins every input-reader error message exactly: each row is one bad
// document (a scenario manifest, a workload-schema network file, or a
// direct call into the bitwidth-policy API) and the full what() string
// it must produce. Error text is part of the user interface — a
// hand-written manifest is debugged from these lines alone — so a
// refactor of the readers must not change a single row.
#include <gtest/gtest.h>

#include <string>

#include "src/cli/manifest.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/workload/generators.h"
#include "src/workload/schema.h"

namespace bpvec {
namespace {

enum class Reader { kManifest, kExpand, kNetwork, kApplyPolicy, kGenerate };

struct Row {
  Reader reader;
  const char* input;  // JSON text (a policy token for kApplyPolicy/kGenerate)
  const char* expect;
};

/// A minimal valid inline network, so manifest rows can name a custom
/// workload.
#define TINY_NET                                                      \
  R"({"name": "tiny", "layers": [{"kind": "fc", "name": "f", )"        \
  R"("in_features": 4, "out_features": 4}]})"

#define GRID(fields)                                                  \
  R"({"name": "m", "grids": [{"platforms": ["bpvec"], )"              \
  R"("memories": ["ddr4"], "networks": ["lstm"])" fields "}]}"

#define SEARCH(fields)                                                \
  R"({"name": "m", "search": {"network": "lstm", "space": )"          \
  R"({"rows": [8, 16]})" fields "}}"

#define SEARCH_WORKLOAD(fields)                                       \
  R"({"name": "m", "search": {"space": {"rows": [8]}, )"               \
  R"("workload": {"generator": "mlp_family")" fields "}}}"

#define LAYER(fields)                                                 \
  R"({"name": "n", "layers": [)" fields "]}"

const Row kRows[] = {
    // ----- manifest: document level -----
    {Reader::kManifest, "[]", "manifest: document must be an object"},
    {Reader::kManifest, R"({"name": "m", "grid": []})",
     "manifest: unknown key \"grid\"; allowed keys: \"name\", "
     "\"description\", \"workloads\", \"grids\", \"search\""},
    {Reader::kManifest, R"({"grids": []})",
     "manifest: missing required key \"name\""},
    {Reader::kManifest, R"({"name": 3})", "manifest: \"name\" must be a string"},
    {Reader::kManifest, R"({"name": ""})",
     "manifest: \"name\" must be non-empty"},
    {Reader::kManifest, R"({"name": "m", "description": false})",
     "manifest: \"description\" must be a string"},
    {Reader::kManifest, R"({"name": "m", "grids": []})",
     "manifest: \"grids\" must be a non-empty array"},
    {Reader::kManifest, R"({"name": "m"})",
     "manifest: manifest needs \"grids\", a \"search\" block, or both"},

    // ----- manifest: grids -----
    {Reader::kManifest, R"({"name": "m", "grids": [1]})",
     "manifest: grids[0]: grid must be an object"},
    {Reader::kManifest, GRID(R"(, "platform": ["bpvec"])"),
     "manifest: grids[0]: unknown key \"platform\"; allowed keys: "
     "\"backends\", \"platforms\", \"memories\", \"networks\", "
     "\"bitwidth_modes\", \"platform_overrides\", \"memory_overrides\", "
     "\"bitwidth_override\", \"id_suffix\""},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"memories": ["ddr4"], "networks": ["lstm"]}]})",
     "manifest: grids[0]: missing required key \"platforms\""},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": [], "memories": ["ddr4"], )"
     R"("networks": ["lstm"]}]})",
     "manifest: grids[0]: \"platforms\" must be a non-empty array of strings"},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": "bpvec", "memories": ["ddr4"], )"
     R"("networks": ["lstm"]}]})",
     "manifest: grids[0]: \"platforms\" must be a non-empty array of strings"},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": ["bpvec", 1], )"
     R"("memories": ["ddr4"], "networks": ["lstm"]}]})",
     "manifest: grids[0]: \"platforms\" must contain only strings"},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": ["tpu"], "memories": ["ddr4"], )"
     R"("networks": ["lstm"]}]})",
     "manifest: grids[0]: unknown platform \"tpu\"; expected one of "
     "\"tpu_like\", \"bitfusion\", \"bpvec\""},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": ["bpvec"], "memories": ["ddr5"], )"
     R"("networks": ["lstm"]}]})",
     "manifest: grids[0]: unknown memory \"ddr5\"; expected one of "
     "\"ddr4\", \"hbm2\""},
    {Reader::kManifest, GRID(R"(, "bitwidth_modes": ["mixed"])"),
     "manifest: grids[0]: unknown bitwidth mode \"mixed\"; expected one of "
     "\"homogeneous8b\", \"heterogeneous\""},
    {Reader::kManifest, GRID(R"(, "backends": [""])"),
     "manifest: grids[0]: backend keys must be non-empty"},
    {Reader::kManifest, GRID(R"(, "id_suffix": 1)"),
     "manifest: grids[0]: \"id_suffix\" must be a string"},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"], )"
     R"("networks": ["lstm", "all"]}]})",
     "manifest: grids[0]: \"all\" must be the only entry in \"networks\""},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"], )"
     R"("networks": ["workloads"]}]})",
     "manifest: grids[0]: \"workloads\" needs a non-empty manifest "
     "\"workloads\" block"},
    {Reader::kManifest,
     R"({"name": "m", "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"], )"
     R"("networks": ["vgg"]}]})",
     "manifest: grids[0]: unknown network \"vgg\"; expected one of \"all\", "
     "\"workloads\", \"alexnet\", \"inception_v1\", \"resnet18\", \"resnet50\", "
     "\"rnn\", \"lstm\""},
    // The grid's custom-network bitwidth guard.
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"network": )" TINY_NET R"(}], )"
     R"("grids": [{"platforms": ["bpvec"], "memories": ["ddr4"], )"
     R"("networks": ["tiny"]}]})",
     "manifest: grids[0]: network \"tiny\" has declared bitwidths, but the "
     "grid omits \"bitwidth_modes\" and the default (homogeneous8b) would "
     "rewrite every layer to 8-bit; set \"bitwidth_modes\" to "
     "[\"heterogeneous\"] to keep the declared bits (or [\"homogeneous8b\"] "
     "to mean it)"},

    // ----- manifest: grid overrides -----
    {Reader::kManifest, GRID(R"(, "platform_overrides": 1)"),
     "manifest: grids[0]: \"platform_overrides\" must be an object"},
    {Reader::kManifest, GRID(R"(, "platform_overrides": {"row": 8})"),
     "manifest: grids[0]: unknown key \"row\"; allowed keys: \"rows\", "
     "\"cols\", \"scratchpad_bytes\", \"frequency_hz\", \"time_chunk\", "
     "\"batch_size\", \"static_core_mw\", \"cvu_slice_bits\", "
     "\"cvu_max_bits\", \"cvu_lanes\""},
    {Reader::kManifest, GRID(R"(, "platform_overrides": {"rows": 1.5})"),
     "manifest: grids[0]: \"rows\" must be an integer"},
    {Reader::kManifest, GRID(R"(, "platform_overrides": {"cols": "8"})"),
     "manifest: grids[0]: \"cols\" must be an integer"},
    {Reader::kManifest,
     GRID(R"(, "platform_overrides": {"rows": 3000000000})"),
     "manifest: grids[0]: \"rows\" out of range"},
    {Reader::kManifest,
     GRID(R"(, "platform_overrides": {"cvu_lanes": -3000000000})"),
     "manifest: grids[0]: \"cvu_lanes\" out of range"},
    {Reader::kManifest,
     GRID(R"(, "platform_overrides": {"scratchpad_bytes": 1.0})"),
     "manifest: grids[0]: \"scratchpad_bytes\" must be an integer"},
    // Knob values are doubles: past 2^53 an integer would round.
    {Reader::kManifest,
     GRID(R"(, "platform_overrides": )"
          R"({"scratchpad_bytes": 9007199254740993})"),
     "manifest: grids[0]: \"scratchpad_bytes\" out of range (beyond 2^53, "
     "which a knob value cannot hold exactly)"},
    {Reader::kManifest,
     GRID(R"(, "platform_overrides": {"frequency_hz": "1GHz"})"),
     "manifest: grids[0]: \"frequency_hz\" must be a number"},
    {Reader::kManifest, GRID(R"(, "memory_overrides": [])"),
     "manifest: grids[0]: \"memory_overrides\" must be an object"},
    {Reader::kManifest, GRID(R"(, "memory_overrides": {"bandwidth": 1})"),
     "manifest: grids[0]: unknown key \"bandwidth\"; allowed keys: "
     "\"bandwidth_gbps\", \"energy_pj_per_bit\", \"startup_latency_ns\", "
     "\"background_power_w\""},
    {Reader::kManifest,
     GRID(R"(, "memory_overrides": {"energy_pj_per_bit": null})"),
     "manifest: grids[0]: \"energy_pj_per_bit\" must be a number"},
    {Reader::kManifest, GRID(R"(, "bitwidth_override": "4")"),
     "manifest: grids[0]: \"bitwidth_override\" must be an object"},
    {Reader::kManifest, GRID(R"(, "bitwidth_override": {"x_bits": 4})"),
     "manifest: grids[0]: missing required key \"w_bits\""},
    {Reader::kManifest,
     GRID(R"(, "bitwidth_override": {"x_bits": 4, "w_bits": 9})"),
     "manifest: grids[0]: bitwidth_override bits must be in [1, 8]"},

    {Reader::kManifest,
     GRID(R"(, "memory_overrides": {"bandwidth_gbps": 0})"),
     "manifest: grids[0]: memory_overrides produce an invalid memory system"},

    // ----- manifest: expansion -----
    {Reader::kExpand, GRID(R"(, "backends": ["tpu"])"),
     "manifest: grids[0]: unknown backend \"tpu\"; registered backends: "
     "\"bit_serial\", \"bit_serial_loom\", \"bpvec\", \"functional\", "
     "\"gpu\""},

    // ----- manifest: workloads -----
    {Reader::kManifest, R"({"name": "m", "workloads": {}})",
     "manifest: \"workloads\" must be a non-empty array of workload objects"},
    {Reader::kManifest, R"({"name": "m", "workloads": ["tiny"]})",
     "manifest: workloads[0]: workload must be an object"},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"file": "a.json", "generator": "x"}]})",
     "manifest: workloads[0]: workload needs exactly one of \"file\", "
     "\"network\", or \"generator\""},
    {Reader::kManifest, R"({"name": "m", "workloads": [{"file": ""}]})",
     "manifest: workloads[0]: \"file\" must be non-empty"},
    {Reader::kManifest, R"({"name": "m", "workloads": [{"file": 7}]})",
     "manifest: workloads[0]: \"file\" must be a string"},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"network": )" TINY_NET
     R"(, "depth": 2}]})",
     "manifest: workloads[0]: unknown key \"depth\"; allowed keys: "
     "\"network\""},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"network": {"name": "n"}}]})",
     "manifest: workloads[0]: network schema: missing required key "
     "\"layers\""},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": "resnet_family"}]})",
     "manifest: workloads[0]: unknown workload generator \"resnet_family\"; "
     "expected one of \"cnn_family\", \"mlp_family\", \"transformer_block\""},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": 1}]})",
     "manifest: workloads[0]: \"generator\" must be a string"},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": "mlp_family", "width": []}]})",
     "manifest: workloads[0]: \"width\" must be a positive integer or a "
     "non-empty array of positive integers"},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": "mlp_family", )"
     R"("depth": [2, "3"]}]})",
     "manifest: workloads[0]: \"depth\" must be an integer"},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": "mlp_family", "depth": 0}]})",
     "manifest: workloads[0]: \"depth\" values must be positive, got 0"},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": "mlp_family", )"
     R"("depth": 1000}]})",
     "manifest: workloads[0]: workload generator: mlp_family depth must be "
     "in [1, 64], got 1000"},
    // Bitwidth-policy call site: a workloads generator entry.
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": "mlp_family", )"
     R"("bitwidth_policy": ["uniform:4", "uniform:9"]}]})",
     "manifest: workloads[0]: unknown bitwidth_policy \"uniform:9\"; "
     "expected \"uniform:<1..8>\" or \"first_last_8\""},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"generator": "mlp_family", )"
     R"("bitwidth_policy": 4}]})",
     "manifest: workloads[0]: \"bitwidth_policy\" must be a non-empty array "
     "of strings"},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"network": )" TINY_NET
     R"(}, {"network": )" TINY_NET R"(}]})",
     "manifest: workloads[1]: duplicate workload name \"tiny\""},
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"network": {"name": "LSTM", )"
     R"("layers": [{"kind": "fc", "name": "f", "in_features": 4, )"
     R"("out_features": 4}]}}]})",
     "manifest: workloads[0]: workload name \"LSTM\" collides with the "
     "builtin network \"lstm\""},

    // ----- manifest: search -----
    {Reader::kManifest, R"({"name": "m", "search": []})",
     "manifest: \"search\" must be an object"},
    {Reader::kManifest, SEARCH(R"(, "budgets": 4)"),
     "manifest: search: unknown key \"budgets\"; allowed keys: \"backend\", "
     "\"platform\", \"memory\", \"network\", \"workload\", "
     "\"bitwidth_mode\", \"bitwidth_override\", \"space\", \"strategy\", "
     "\"budget\", \"seed\", \"restarts\", \"population\", \"objectives\", "
     "\"constraints\", \"mix\""},
    {Reader::kManifest, SEARCH(R"(, "backend": "")"),
     "manifest: search: backend key must be non-empty"},
    {Reader::kManifest, SEARCH(R"(, "platform": "gpu")"),
     "manifest: search: unknown platform \"gpu\"; expected one of "
     "\"tpu_like\", \"bitfusion\", \"bpvec\""},
    {Reader::kManifest, SEARCH(R"(, "memory": "sram")"),
     "manifest: search: unknown memory \"sram\"; expected one of \"ddr4\", "
     "\"hbm2\""},
    {Reader::kManifest, SEARCH(R"(, "bitwidth_mode": "int4")"),
     "manifest: search: unknown bitwidth mode \"int4\"; expected one of "
     "\"homogeneous8b\", \"heterogeneous\""},
    {Reader::kManifest, SEARCH(R"(, "bitwidth_mode": ["heterogeneous"])"),
     "manifest: search: \"bitwidth_mode\" must be a string"},
    {Reader::kManifest, R"({"name": "m", "search": {"space": {"rows": [8]}}})",
     "manifest: search: missing required key \"network\""},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "all", "space": {"rows": [8]}}})",
     "manifest: search: \"network\" must name a single network (not "
     "\"all\")"},
    // The search's custom-network bitwidth guard.
    {Reader::kManifest,
     R"({"name": "m", "workloads": [{"network": )" TINY_NET R"(}], )"
     R"("search": {"network": "tiny", "space": {"rows": [8]}}})",
     "manifest: search: network \"tiny\" has declared bitwidths, but the "
     "search omits \"bitwidth_mode\" and the default (homogeneous8b) would "
     "rewrite every layer to 8-bit; set \"bitwidth_mode\" to "
     "\"heterogeneous\" to keep the declared bits (or \"homogeneous8b\" to "
     "mean it)"},
    {Reader::kManifest, R"({"name": "m", "search": {"network": "lstm"}})",
     "manifest: search: missing required key \"space\""},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "space": {}}})",
     "manifest: search: \"space\" must be a non-empty object mapping knob "
     "names to value arrays"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "space": {"row": [8]}}})",
     "manifest: search: unknown knob \"row\"; valid knobs: "
     "\"cvu_slice_bits\", \"cvu_max_bits\", \"cvu_lanes\", \"rows\", "
     "\"cols\", \"scratchpad_bytes\", \"frequency_hz\", \"time_chunk\", "
     "\"batch_size\", \"static_core_mw\", \"bandwidth_gbps\", "
     "\"energy_pj_per_bit\", \"startup_latency_ns\", "
     "\"background_power_w\", \"net_depth\", \"net_width\", \"net_bits\""},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "space": {"rows": 8}}})",
     "manifest: search: knob \"rows\" must map to a non-empty array of "
     "numbers"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "space": {"rows": ["8"]}}})",
     "manifest: search: knob \"rows\" has a non-numeric value"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "space": {"net_depth": [2]}}})",
     "manifest: search: knob \"net_depth\" needs a \"workload\" generator "
     "block"},
    {Reader::kManifest, SEARCH(R"(, "strategy": "bayesian")"),
     "manifest: search: unknown strategy \"bayesian\"; expected one of "
     "\"grid\", \"random\", \"hill_climb\", \"annealing\", \"genetic\""},
    {Reader::kManifest, SEARCH(R"(, "strategy": "random")"),
     "manifest: search: strategy \"random\" requires a \"budget\" (its "
     "proposal count)"},
    {Reader::kManifest, SEARCH(R"(, "budget": 0)"),
     "manifest: search: \"budget\" must be positive"},
    {Reader::kManifest, SEARCH(R"(, "budget": 2.5)"),
     "manifest: search: \"budget\" must be an integer"},
    {Reader::kManifest, SEARCH(R"(, "seed": -1)"),
     "manifest: search: \"seed\" must be a non-negative integer"},
    {Reader::kManifest, SEARCH(R"(, "restarts": 0)"),
     "manifest: search: \"restarts\" must be positive"},
    {Reader::kManifest, SEARCH(R"(, "population": 1)"),
     "manifest: search: \"population\" must be at least 2"},
    {Reader::kManifest, SEARCH(R"(, "objectives": [])"),
     "manifest: search: \"objectives\" must be a non-empty array"},
    {Reader::kManifest, SEARCH(R"(, "objectives": [3])"),
     "manifest: search: objectives must be metric names or {\"metric\", "
     "\"maximize\"} objects"},
    {Reader::kManifest, SEARCH(R"(, "objectives": ["speed"])"),
     "manifest: search: unknown metric \"speed\"; valid metrics: "
     "\"cycles\", \"energy\", \"runtime\", \"power\", \"core_area\", "
     "\"mac_power\", \"mac_area\", \"utilization\", \"gops_per_w\", "
     "\"gops_per_s\""},
    {Reader::kManifest,
     SEARCH(R"(, "objectives": [{"metric": "cycles", "maximize": 1}])"),
     "manifest: search: \"maximize\" must be a boolean"},
    {Reader::kManifest, SEARCH(R"(, "objectives": [{"maximize": true}])"),
     "manifest: search: missing required key \"metric\""},
    {Reader::kManifest, SEARCH(R"(, "objectives": ["cycles", "Cycles"])"),
     "manifest: search: duplicate objective \"Cycles\""},
    {Reader::kManifest, SEARCH(R"(, "constraints": [])"),
     "manifest: search: \"constraints\" must be an object"},
    {Reader::kManifest, SEARCH(R"(, "constraints": {"min_util": 0.5})"),
     "manifest: search: unknown key \"min_util\"; allowed keys: "
     "\"min_utilization\", \"max_power_w\", \"max_energy_j\", "
     "\"max_runtime_s\", \"max_cycles\""},
    {Reader::kManifest, SEARCH(R"(, "constraints": {"min_utilization": 2})"),
     "manifest: search: \"min_utilization\" must be in [0, 1]"},
    {Reader::kManifest, SEARCH(R"(, "constraints": {"max_power_w": 0})"),
     "manifest: search: \"max_power_w\" must be positive"},
    {Reader::kManifest, SEARCH(R"(, "constraints": {"max_cycles": 1.5})"),
     "manifest: search: \"max_cycles\" must be an integer"},
    {Reader::kManifest, SEARCH(R"(, "constraints": {"max_cycles": 0})"),
     "manifest: search: \"max_cycles\" must be positive"},
    {Reader::kManifest, SEARCH(R"(, "mix": [])"),
     "manifest: search: \"mix\" must be a non-empty array"},
    {Reader::kManifest, SEARCH(R"(, "mix": [[4, 4]])"),
     "manifest: search: mix entries must be objects"},
    {Reader::kManifest, SEARCH(R"(, "mix": [{"x_bits": 4, "w_bits": 0}])"),
     "manifest: search: mix bitwidths must be in [1, 8]"},
    {Reader::kManifest,
     SEARCH(R"(, "mix": [{"x_bits": 4, "w_bits": 4, "weight": -1}])"),
     "manifest: search: mix weights must be positive"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "workload": )"
     R"({"generator": "mlp_family"}, "space": {"rows": [8]}}})",
     "manifest: search: \"network\" and \"workload\" are mutually exclusive "
     "(the workload generator is the network)"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"space": {"rows": [8]}, "workload": )"
     R"({"generator": "mlp_family"}, "bitwidth_mode": "heterogeneous"}})",
     "manifest: search: \"bitwidth_mode\" does not apply to a \"workload\" "
     "generator (its bitwidth_policy owns the bits)"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"space": {"rows": [8]}, "workload": "mlp"}})",
     "manifest: search: \"workload\" must be an object"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"space": {"rows": [8]}, "workload": )"
     R"({"generator": "gan"}}})",
     "manifest: search: unknown workload generator \"gan\"; expected one of "
     "\"cnn_family\", \"mlp_family\", \"transformer_block\""},
    {Reader::kManifest, SEARCH_WORKLOAD(R"(, "depth": 0)"),
     "manifest: search: \"depth\" must be positive"},
    {Reader::kManifest, SEARCH_WORKLOAD(R"(, "width": -4)"),
     "manifest: search: \"width\" must be positive"},
    {Reader::kManifest, SEARCH_WORKLOAD(R"(, "depth": 99)"),
     "manifest: search: workload generator: mlp_family depth must be in "
     "[1, 64], got 99"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"space": {"rows": [8]}, "workload": )"
     R"({"generator": "mlp_family"}, "bitwidth_override": )"
     R"({"x_bits": 4, "w_bits": 4}}})",
     "manifest: search: \"bitwidth_override\" does not apply to a "
     "\"workload\" generator (set its bitwidth_policy, or sweep "
     "\"net_bits\")"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"space": {"net_depth": [0]}, "workload": )"
     R"({"generator": "mlp_family"}}})",
     "manifest: search: knob \"net_depth\" values must be positive, got 0"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"space": {"net_depth": [100]}, "workload": )"
     R"({"generator": "mlp_family"}}})",
     "manifest: search: knob \"net_depth\" value 100: workload generator: "
     "mlp_family depth must be in [1, 64], got 100"},
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "space": {"rows": [8.5]}}})",
     "manifest: search: ParamSpace: axis \"rows\" requires integer values, "
     "got 8.5"},
    // Search axes read int64 knobs as grid overrides do: no rounding.
    {Reader::kManifest,
     R"({"name": "m", "search": {"network": "lstm", "space": )"
     R"({"scratchpad_bytes": [65536, 9007199254740993]}}})",
     "manifest: search: \"scratchpad_bytes\" out of range (beyond 2^53, "
     "which a knob value cannot hold exactly)"},
    // Bitwidth-policy call site: the search workload generator.
    {Reader::kManifest, SEARCH_WORKLOAD(R"(, "bitwidth_policy": "int8")"),
     "manifest: search: unknown bitwidth_policy \"int8\"; expected "
     "\"uniform:<1..8>\" or \"first_last_8\""},

    // ----- network schema: document level -----
    {Reader::kNetwork, "\"net\"", "network schema: document must be an object"},
    {Reader::kNetwork, R"({"name": "n", "layer": []})",
     "network schema: unknown key \"layer\"; allowed keys: \"name\", "
     "\"type\", \"bitwidth_policy\", \"bitwidth_note\", \"layers\""},
    {Reader::kNetwork, R"({"layers": []})",
     "network schema: missing required key \"name\""},
    {Reader::kNetwork, R"({"name": ["n"]})",
     "network schema: \"name\" must be a string"},
    {Reader::kNetwork, R"({"name": ""})",
     "network schema: \"name\" must be non-empty"},
    {Reader::kNetwork, R"({"name": "n", "type": "gnn"})",
     "network schema: unknown type \"gnn\"; expected one of \"cnn\", "
     "\"rnn\""},
    {Reader::kNetwork, R"({"name": "n"})",
     "network schema: missing required key \"layers\""},
    {Reader::kNetwork, R"({"name": "n", "layers": []})",
     "network schema: \"n\": \"layers\" must be a non-empty array of layer "
     "objects"},
    // Bitwidth-policy call site: a network file's policy.
    {Reader::kNetwork,
     R"({"name": "n", "bitwidth_policy": "uniform:0", "layers": [)"
     R"({"kind": "fc", "name": "f", "in_features": 4, "out_features": 4}]})",
     "network schema: \"n\": unknown bitwidth_policy \"uniform:0\"; "
     "expected \"uniform:<1..8>\" or \"first_last_8\""},
    {Reader::kNetwork,
     R"({"name": "n", "bitwidth_note": 8, "layers": [)"
     R"({"kind": "fc", "name": "f", "in_features": 4, "out_features": 4}]})",
     "network schema: \"bitwidth_note\" must be a string"},

    // ----- network schema: layers -----
    {Reader::kNetwork, LAYER("7"),
     "network schema: layers[0]: layer must be an object"},
    {Reader::kNetwork, LAYER(R"({"name": "c"})"),
     "network schema: layers[0]: missing required key \"kind\""},
    {Reader::kNetwork, LAYER(R"({"kind": 1, "name": "c"})"),
     "network schema: layers[0]: \"kind\" must be a string"},
    {Reader::kNetwork, LAYER(R"({"kind": "fc"})"),
     "network schema: layers[0]: missing required key \"name\""},
    {Reader::kNetwork, LAYER(R"({"kind": "fc", "name": ""})"),
     "network schema: layers[0]: \"name\" must be non-empty"},
    {Reader::kNetwork, LAYER(R"({"kind": "attention", "name": "a"})"),
     "network schema: layers[0] (\"a\"): unknown kind \"attention\"; "
     "expected one of \"conv\", \"fc\", \"pool\", \"recurrent\""},
    {Reader::kNetwork,
     LAYER(R"({"kind": "fc", "name": "f", "in_features": 4, )"
           R"("out_features": 4, "bias": true})"),
     "network schema: layers[0] (\"f\"): unknown key \"bias\"; allowed "
     "keys: \"kind\", \"name\", \"in_features\", \"out_features\", "
     "\"x_bits\", \"w_bits\""},
    {Reader::kNetwork, LAYER(R"({"kind": "fc", "name": "f", "in_features": 4})"),
     "network schema: layers[0] (\"f\"): missing required key "
     "\"out_features\""},
    {Reader::kNetwork,
     LAYER(R"({"kind": "fc", "name": "f", "in_features": 4.0, )"
           R"("out_features": 4})"),
     "network schema: layers[0] (\"f\"): \"in_features\" must be an "
     "integer"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "fc", "name": "f", "in_features": 9999999999, )"
           R"("out_features": 4})"),
     "network schema: layers[0] (\"f\"): \"in_features\" out of range"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "fc", "name": "f", "in_features": 0, )"
           R"("out_features": 4})"),
     "network schema: layers[0] (\"f\"): \"in_features\" must be a positive "
     "integer <= 16777216, got 0"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "conv", "name": "c", "in_c": 3, "in_h": 8, )"
           R"("in_w": 8, "out_c": 4, "kh": 3, "kw": 3, "pad": -1})"),
     "network schema: layers[0] (\"c\"): \"pad\" must be in [0, 16777216], "
     "got -1"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "conv", "name": "c", "in_c": 3, "in_h": 2, )"
           R"("in_w": 2, "out_c": 4, "kh": 3, "kw": 3})"),
     "network schema: layers[0] (\"c\"): kernel larger than the padded "
     "input"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "pool", "name": "p", "channels": 4, "in_h": 8, )"
           R"("in_w": 8, "pool": "min"})"),
     "network schema: layers[0] (\"p\"): unknown pool \"min\"; expected one "
     "of \"max\", \"average\""},
    {Reader::kNetwork,
     LAYER(R"({"kind": "pool", "name": "p", "channels": 4, "in_h": 8, )"
           R"("in_w": 8, "pool": 2})"),
     "network schema: layers[0] (\"p\"): \"pool\" must be a string"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "pool", "name": "p", "channels": 4, "in_h": 2, )"
           R"("in_w": 2, "k": 3})"),
     "network schema: layers[0] (\"p\"): pool window larger than the input"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "recurrent", "name": "r", "cell": "gru", )"
           R"("input_size": 4, "hidden_size": 4})"),
     "network schema: layers[0] (\"r\"): unknown cell \"gru\"; expected one "
     "of \"rnn\", \"lstm\""},
    {Reader::kNetwork,
     LAYER(R"({"kind": "recurrent", "name": "r", "input_size": 4, )"
           R"("hidden_size": 4})"),
     "network schema: layers[0] (\"r\"): missing required key \"cell\""},
    {Reader::kNetwork,
     LAYER(R"({"kind": "fc", "name": "f", "in_features": 4, )"
           R"("out_features": 4, "w_bits": 16})"),
     "network schema: layers[0] (\"f\"): \"w_bits\" must be in [1, 8], got "
     "16"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "fc", "name": "f", "in_features": 4, )"
           R"("out_features": 4, "x_bits": "8"})"),
     "network schema: layers[0] (\"f\"): \"x_bits\" must be an integer"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "recurrent", "name": "r", "cell": "lstm", )"
           R"("input_size": 16777216, "hidden_size": 16777216})"),
     "network schema: layers[0] (\"r\"): layer exceeds the supported scale "
     "(more than 1e15 MACs or elements)"},
    {Reader::kNetwork,
     LAYER(R"({"kind": "fc", "name": "f", "in_features": 4, "out_features": 4}, )"
           R"({"kind": "fc", "name": "f", "in_features": 4, "out_features": 4})"),
     "network schema: \"n\": layers[1]: duplicate layer name \"f\""},

    // ----- bitwidth-policy API call sites -----
    {Reader::kApplyPolicy, "last_8",
     "network schema: unknown bitwidth_policy \"last_8\"; expected "
     "\"uniform:<1..8>\" or \"first_last_8\""},
    {Reader::kGenerate, "uniform:16",
     "workload generator: cnn_family: unknown bitwidth_policy "
     "\"uniform:16\"; expected \"uniform:<1..8>\" or \"first_last_8\""},
};

#undef TINY_NET
#undef GRID
#undef SEARCH
#undef SEARCH_WORKLOAD
#undef LAYER

void read(const Row& row) {
  switch (row.reader) {
    case Reader::kManifest:
      (void)cli::parse_manifest(common::json::parse(row.input), "");
      return;
    case Reader::kExpand:
      (void)cli::expand(cli::parse_manifest(common::json::parse(row.input), ""));
      return;
    case Reader::kNetwork:
      (void)workload::parse_network(common::json::parse(row.input));
      return;
    case Reader::kApplyPolicy: {
      dnn::Network net("n", dnn::NetworkType::kCnn);
      net.add(dnn::make_fc("f", {4, 4}));
      workload::apply_bitwidth_policy(net, row.input);
      return;
    }
    case Reader::kGenerate:
      (void)workload::generate({"cnn_family", 0, 0, row.input, ""});
      return;
  }
}

TEST(InputErrors, EveryReaderMessageIsPinnedExactly) {
  for (const Row& row : kRows) {
    try {
      read(row);
      ADD_FAILURE() << "accepted: " << row.input;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), row.expect) << row.input;
    }
  }
}

// The wrapped validator message carries a source location, so only the
// manifest's own part is pinned.
TEST(InputErrors, InvalidPlatformOverridesNameTheGrid) {
  const std::string prefix =
      "manifest: grids[0]: platform_overrides produce an invalid platform: "
      "BPVEC_CHECK failed: (rows >= 1 && cols >= 1) at ";
  try {
    (void)cli::parse_manifest(common::json::parse(
        R"({"name": "m", "grids": [{"platforms": ["bpvec"], )"
        R"("memories": ["ddr4"], "networks": ["lstm"], )"
        R"("platform_overrides": {"rows": 0}}]})"));
    ADD_FAILURE() << "accepted rows = 0";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).substr(0, prefix.size()), prefix);
  }
}

TEST(InputErrors, TheVanillaRnnCellAliasIsAccepted) {
  const dnn::Network net = workload::parse_network(common::json::parse(
      R"({"name": "n", "type": "rnn", "layers": [{"kind": "recurrent", )"
      R"("name": "r", "cell": "Vanilla-RNN", "input_size": 4, )"
      R"("hidden_size": 4}]})"));
  EXPECT_EQ(net.layers()[0].recurrent().cell,
            dnn::RecurrentCellKind::kVanillaRnn);
}

}  // namespace
}  // namespace bpvec
