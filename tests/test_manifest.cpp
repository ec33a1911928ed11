// Manifest schema tests: grid expansion counts and ordering,
// unknown-key/bad-value error quality, override application, every
// field resolved at parse, and the search block's to_json round trip.
#include "src/cli/manifest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include "src/backend/backend_registry.h"
#include "src/backend/cost_backend.h"
#include "src/common/error.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/serve/driver.h"
#include "src/workload/network_registry.h"

namespace bpvec::cli {
namespace {

using common::json::parse;

Manifest from_text(const std::string& text) {
  return parse_manifest(parse(text));
}

/// The manifest a search block's to_json echo parses back to.
Manifest reparse_search(const Manifest& m) {
  common::json::Value doc = common::json::Value::object();
  doc.set("name", m.name);
  doc.set("search", to_json(*m.search));
  return parse_manifest(parse(doc.dump(2)));
}

std::uint64_t platform_hash(const sim::AcceleratorConfig& c) {
  common::ConfigHash f;
  backend::hash_platform(f, c);
  return f.h;
}

std::uint64_t memory_hash(const arch::DramModel& m) {
  common::ConfigHash f;
  backend::hash_memory(f, m);
  return f.h;
}

constexpr const char* kFig5Text = R"({
  "name": "fig5",
  "description": "BPVeC vs TPU-like, DDR4, homogeneous 8-bit",
  "grids": [{
    "platforms": ["tpu_like", "bpvec"],
    "memories": ["ddr4"],
    "networks": ["all"]
  }]
})";

TEST(Manifest, ParsesWithDefaults) {
  const Manifest m = from_text(kFig5Text);
  EXPECT_EQ(m.name, "fig5");
  EXPECT_EQ(m.description, "BPVeC vs TPU-like, DDR4, homogeneous 8-bit");
  ASSERT_EQ(m.grids.size(), 1u);
  const GridSpec& g = m.grids[0];
  EXPECT_EQ(g.backends, std::vector<std::string>{"bpvec"});
  EXPECT_EQ(g.bitwidth_modes,
            std::vector<dnn::BitwidthMode>{dnn::BitwidthMode::kHomogeneous8b});
  // The axes hold the Table II configs themselves, the "all" meta token
  // the zoo tokens.
  ASSERT_EQ(g.platforms.size(), 2u);
  EXPECT_EQ(platform_hash(g.platforms[0]),
            platform_hash(sim::tpu_like_baseline()));
  EXPECT_EQ(platform_hash(g.platforms[1]),
            platform_hash(sim::bpvec_accelerator()));
  ASSERT_EQ(g.memories.size(), 1u);
  EXPECT_EQ(memory_hash(g.memories[0]), memory_hash(arch::ddr4()));
  EXPECT_EQ(g.networks, workload::NetworkRegistry::builtin_tokens());
  EXPECT_FALSE(g.bitwidth_override.has_value());
  EXPECT_TRUE(g.id_suffix.empty());
}

TEST(Manifest, ExpansionCountsAreTheCrossProduct) {
  const Manifest m = from_text(R"({
    "name": "counts",
    "grids": [
      {"backends": ["bpvec", "bit_serial"],
       "platforms": ["tpu_like", "bpvec"],
       "memories": ["ddr4", "hbm2"],
       "networks": ["alexnet", "rnn", "lstm"],
       "bitwidth_modes": ["homogeneous8b", "heterogeneous"]},
      {"platforms": ["bpvec"], "memories": ["hbm2"], "networks": ["all"]}
    ]
  })");
  // 2 backends × 2 platforms × 2 memories × 3 networks × 2 modes = 48,
  // plus 1 × 1 × 1 × 6 × 1 = 6.
  EXPECT_EQ(expand(m).size(), 54u);
}

TEST(Manifest, FunctionalBackendTokenExpands) {
  // The functional backend must be a first-class backends-axis token:
  // picked up from the registry, validated, and stamped into scenarios.
  const Manifest m = from_text(R"({
    "name": "functional_axis",
    "grids": [{"backends": ["functional"], "platforms": ["bpvec"],
               "memories": ["hbm2"], "networks": ["alexnet"],
               "bitwidth_modes": ["homogeneous8b"]}]
  })");
  const auto scenarios = expand(m);
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].backend, "functional");
}

TEST(Manifest, ExpansionMatchesHandWrittenFig5Batch) {
  // The manifest expansion must reproduce the hand-written
  // `make_scenario` batch exactly (same scenarios, same order, same ids →
  // same fingerprints).
  const auto scenarios = expand(from_text(kFig5Text));
  const auto nets = dnn::all_models(dnn::BitwidthMode::kHomogeneous8b);
  std::vector<engine::Scenario> expected;
  for (const auto& net : nets) {
    expected.push_back(engine::make_scenario(engine::Platform::kTpuLike,
                                             engine::Memory::kDdr4, net));
    expected.push_back(engine::make_scenario(engine::Platform::kBpvec,
                                             engine::Memory::kDdr4, net));
  }
  ASSERT_EQ(scenarios.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(scenarios[i].id, expected[i].id) << i;
    EXPECT_EQ(scenarios[i].backend, expected[i].backend) << i;
    EXPECT_EQ(scenarios[i].fingerprint(), expected[i].fingerprint()) << i;
  }
}

TEST(Manifest, TokensMatchCaseAndSeparatorInsensitively) {
  const Manifest m = from_text(R"({
    "name": "tokens",
    "grids": [{"platforms": ["TPU-like"], "memories": ["DDR4"],
               "networks": ["ResNet-18", "Inception-v1"],
               "bitwidth_modes": ["Heterogeneous"]}]
  })");
  const auto scenarios = expand(m);
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].network.name(), "ResNet-18");
  EXPECT_EQ(scenarios[1].network.name(), "Inception-v1");
  EXPECT_EQ(scenarios[0].platform.name, "TPU-like");
}

TEST(Manifest, AppliesPlatformAndMemoryOverrides) {
  const Manifest m = from_text(R"({
    "name": "overrides",
    "grids": [{
      "platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"],
      "platform_overrides": {"rows": 4, "cols": 4, "batch_size": 8,
                             "scratchpad_bytes": 65536,
                             "frequency_hz": 1.0e9, "time_chunk": 32,
                             "static_core_mw": 10.5, "cvu_slice_bits": 4,
                             "cvu_max_bits": 8, "cvu_lanes": 8},
      "memory_overrides": {"bandwidth_gbps": 32.0, "energy_pj_per_bit": 7.5,
                           "startup_latency_ns": 100.0,
                           "background_power_w": 0.25},
      "id_suffix": " @custom"
    }]
  })");
  const auto scenarios = expand(m);
  ASSERT_EQ(scenarios.size(), 1u);
  const engine::Scenario& s = scenarios[0];
  EXPECT_EQ(s.platform.rows, 4);
  EXPECT_EQ(s.platform.cols, 4);
  EXPECT_EQ(s.platform.batch_size, 8);
  EXPECT_EQ(s.platform.scratchpad_bytes, 65536);
  EXPECT_DOUBLE_EQ(s.platform.frequency_hz, 1.0e9);
  EXPECT_EQ(s.platform.time_chunk, 32);
  EXPECT_DOUBLE_EQ(s.platform.static_core_mw, 10.5);
  EXPECT_EQ(s.platform.cvu.slice_bits, 4);
  EXPECT_EQ(s.platform.cvu.lanes, 8);
  EXPECT_DOUBLE_EQ(s.memory.bandwidth_gbps, 32.0);
  EXPECT_DOUBLE_EQ(s.memory.energy_pj_per_bit, 7.5);
  EXPECT_DOUBLE_EQ(s.memory.startup_latency_ns, 100.0);
  EXPECT_DOUBLE_EQ(s.memory.background_power_w, 0.25);
  EXPECT_EQ(s.id, "bpvec:BPVeC/RNN/DDR4 @custom");
}

TEST(Manifest, IntegerOverridesAreExactUpTo2To53) {
  // Knob values are doubles; 2^53 is the largest integer bound they hold
  // exactly, and one past it is rejected (test_input_errors pins that).
  const Manifest m = from_text(R"({"name": "big", "grids": [
    {"platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"],
     "platform_overrides": {"scratchpad_bytes": 9007199254740992}}]})");
  EXPECT_EQ(m.grids[0].platforms[0].scratchpad_bytes,
            std::int64_t{9007199254740992});
  EXPECT_EQ(expand(m)[0].platform.scratchpad_bytes,
            std::int64_t{9007199254740992});
}

TEST(Manifest, AppliesBitwidthOverrideToComputeLayersOnly) {
  const Manifest m = from_text(R"({
    "name": "bits",
    "grids": [{"platforms": ["bpvec"], "memories": ["hbm2"],
               "networks": ["alexnet"],
               "bitwidth_override": {"x_bits": 2, "w_bits": 3}}]
  })");
  const auto scenarios = expand(m);
  ASSERT_EQ(scenarios.size(), 1u);
  for (const dnn::Layer& layer : scenarios[0].network.layers()) {
    if (layer.is_compute()) {
      EXPECT_EQ(layer.x_bits, 2) << layer.name;
      EXPECT_EQ(layer.w_bits, 3) << layer.name;
    }
  }
  // The override changes the fingerprint (different pricing).
  const Manifest plain = from_text(R"({
    "name": "bits",
    "grids": [{"platforms": ["bpvec"], "memories": ["hbm2"],
               "networks": ["alexnet"]}]
  })");
  EXPECT_NE(expand(plain)[0].fingerprint(), scenarios[0].fingerprint());
}

TEST(Manifest, ErrorsNameUnknownKeys) {
  try {
    from_text(R"({"name": "x", "grids": [
      {"platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"],
       "platform_override": {}}]})");
    FAIL() << "expected error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("grids[0]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown key \"platform_override\""),
              std::string::npos) << msg;
    EXPECT_NE(msg.find("platform_overrides"), std::string::npos)
        << "should list allowed keys: " << msg;
  }
}

TEST(Manifest, ErrorsNameBadValues) {
  try {
    from_text(R"({"name": "x", "grids": [
      {"platforms": ["gpu_like"], "memories": ["ddr4"],
       "networks": ["rnn"]}]})");
    FAIL() << "expected error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown platform \"gpu_like\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("tpu_like"), std::string::npos)
        << "should list valid platforms: " << msg;
  }
  try {
    from_text(R"({"name": "x", "grids": [
      {"platforms": ["bpvec"], "memories": ["ddr4"],
       "networks": ["vgg16"]}]})");
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown network \"vgg16\""),
              std::string::npos) << e.what();
  }
}

TEST(Manifest, RejectsStructuralMistakes) {
  // Missing required keys.
  EXPECT_THROW(from_text(R"({"grids": []})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x"})"), Error);
  EXPECT_THROW(from_text(R"({"name": "", "grids": [
    {"platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"]}]})"),
               Error);
  EXPECT_THROW(from_text(R"({"name": "x", "grids": []})"), Error);
  // Missing grid axes.
  EXPECT_THROW(from_text(R"({"name": "x", "grids": [
    {"memories": ["ddr4"], "networks": ["rnn"]}]})"), Error);
  // Wrong types.
  EXPECT_THROW(from_text(R"({"name": 3, "grids": [
    {"platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"]}]})"),
               Error);
  EXPECT_THROW(from_text(R"({"name": "x", "grids": [
    {"platforms": "bpvec", "memories": ["ddr4"], "networks": ["rnn"]}]})"),
               Error);
  EXPECT_THROW(from_text(R"({"name": "x", "grids": [
    {"platforms": [], "memories": ["ddr4"], "networks": ["rnn"]}]})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "grids": [
    {"platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"],
     "platform_overrides": {"rows": 2.5}}]})"), Error);
  // "all" must be alone.
  EXPECT_THROW(from_text(R"({"name": "x", "grids": [
    {"platforms": ["bpvec"], "memories": ["ddr4"],
     "networks": ["all", "rnn"]}]})"), Error);
  // Bitwidth override out of range.
  EXPECT_THROW(from_text(R"({"name": "x", "grids": [
    {"platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"],
     "bitwidth_override": {"x_bits": 9, "w_bits": 4}}]})"), Error);
  // Invalid override combination (rows must be >= 1), caught at parse.
  EXPECT_THROW(from_text(R"({"name": "x", "grids": [
    {"platforms": ["bpvec"], "memories": ["ddr4"], "networks": ["rnn"],
     "platform_overrides": {"rows": 0}}]})"), Error);
}

TEST(Manifest, ExpandRejectsUnknownBackends) {
  const Manifest m = from_text(R"({
    "name": "x",
    "grids": [{"backends": ["definitely_not_registered"],
               "platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["rnn"]}]
  })");
  try {
    expand(m);
    FAIL() << "expected error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend \"definitely_not_registered\""),
              std::string::npos) << msg;
    EXPECT_NE(msg.find("bpvec"), std::string::npos)
        << "should list registered backends: " << msg;
  }
}

TEST(Manifest, EveryFieldResolvesAtParse) {
  const Manifest m = from_text(R"({
    "name": "resolved",
    "description": "every field set",
    "grids": [{
      "backends": ["bpvec", "bit_serial"],
      "platforms": ["tpu_like", "BitFusion", "bpvec"],
      "memories": ["ddr4", "HBM-2"],
      "networks": ["AlexNet", "lstm"],
      "bitwidth_modes": ["homogeneous8b", "heterogeneous"],
      "platform_overrides": {"rows": 4, "cols": 8, "scratchpad_bytes": 1024,
                             "frequency_hz": 750000000.0, "time_chunk": 8,
                             "batch_size": 2, "static_core_mw": 12.25,
                             "cvu_slice_bits": 2, "cvu_max_bits": 8,
                             "cvu_lanes": 16},
      "memory_overrides": {"bandwidth_gbps": 48.0, "energy_pj_per_bit": 3.5,
                           "startup_latency_ns": 55.0,
                           "background_power_w": 0.125},
      "bitwidth_override": {"x_bits": 4, "w_bits": 2},
      "id_suffix": " @rt"
    }]
  })");
  EXPECT_EQ(m.name, "resolved");
  EXPECT_EQ(m.description, "every field set");
  ASSERT_EQ(m.grids.size(), 1u);
  const GridSpec& g = m.grids[0];
  EXPECT_EQ(g.backends, (std::vector<std::string>{"bpvec", "bit_serial"}));
  const std::pair<const char*, sim::AcceleratorConfig> platforms[] = {
      {"TPU-like", sim::tpu_like_baseline()},
      {"BitFusion", sim::bitfusion_accelerator()},
      {"BPVeC", sim::bpvec_accelerator()}};
  ASSERT_EQ(g.platforms.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const sim::AcceleratorConfig& p = g.platforms[i];
    EXPECT_EQ(p.name, platforms[i].first);
    EXPECT_EQ(p.rows, 4);
    EXPECT_EQ(p.cols, 8);
    EXPECT_EQ(p.scratchpad_bytes, 1024);
    EXPECT_EQ(p.frequency_hz, 750000000.0);
    EXPECT_EQ(p.time_chunk, 8);
    EXPECT_EQ(p.batch_size, 2);
    EXPECT_EQ(p.static_core_mw, 12.25);
    EXPECT_EQ(p.cvu.slice_bits, 2);
    EXPECT_EQ(p.cvu.max_bits, 8);
    EXPECT_EQ(p.cvu.lanes, 16);
    // Knobs the overrides leave alone keep the Table II value.
    EXPECT_EQ(p.pe_kind, platforms[i].second.pe_kind);
  }
  ASSERT_EQ(g.memories.size(), 2u);
  EXPECT_EQ(g.memories[0].name, arch::ddr4().name);
  EXPECT_EQ(g.memories[1].name, arch::hbm2().name);
  for (const arch::DramModel& mem : g.memories) {
    EXPECT_EQ(mem.bandwidth_gbps, 48.0);
    EXPECT_EQ(mem.energy_pj_per_bit, 3.5);
    EXPECT_EQ(mem.startup_latency_ns, 55.0);
    EXPECT_EQ(mem.background_power_w, 0.125);
  }
  EXPECT_EQ(g.networks, (std::vector<std::string>{"alexnet", "lstm"}));
  EXPECT_EQ(g.bitwidth_modes,
            (std::vector<dnn::BitwidthMode>{
                dnn::BitwidthMode::kHomogeneous8b,
                dnn::BitwidthMode::kHeterogeneous}));
  ASSERT_TRUE(g.bitwidth_override.has_value());
  EXPECT_EQ(g.bitwidth_override->x_bits, 4);
  EXPECT_EQ(g.bitwidth_override->w_bits, 2);
  EXPECT_EQ(g.id_suffix, " @rt");
  // expand() only combines the resolved axes, modes outermost and
  // backends innermost.
  const auto scenarios = expand(m);
  ASSERT_EQ(scenarios.size(), 2u * 2u * 3u * 2u * 2u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const engine::Scenario& s = scenarios[i];
    EXPECT_EQ(s.backend, g.backends[i % 2]) << i;
    EXPECT_EQ(memory_hash(s.memory), memory_hash(g.memories[i / 2 % 2])) << i;
    EXPECT_EQ(platform_hash(s.platform),
              platform_hash(g.platforms[i / 4 % 3]))
        << i;
    EXPECT_EQ(s.id.substr(s.id.size() - 4), " @rt") << s.id;
  }
  EXPECT_EQ(scenarios[0].id, "bpvec:TPU-like/AlexNet/DDR4 @rt");
}

TEST(Manifest, LoadManifestReportsPath) {
  try {
    load_manifest("/nonexistent/missing_manifest.json");
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("missing_manifest.json"),
              std::string::npos);
  }
}

TEST(Manifest, CommittedFigureManifestsHaveUniqueIds) {
  // bench/paper_figures looks figure results up by scenario id, and a
  // sweep's cells are read from its report by id, so every id must name
  // one scenario within its manifest.
  const auto dir =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "bench/manifests";
  const std::pair<const char*, std::size_t> figures[] = {
      {"fig5", 12}, {"fig6", 18}, {"fig7", 12}, {"fig8", 18}, {"fig9", 36},
      {"sweep_bandwidth", 96}, {"sweep_scratchpad", 42}};
  for (const auto& [name, count] : figures) {
    const auto scenarios =
        expand(load_manifest((dir / (std::string(name) + ".json")).string()));
    EXPECT_EQ(scenarios.size(), count) << name;
    std::set<std::string> ids;
    for (const auto& s : scenarios) {
      EXPECT_TRUE(ids.insert(s.id).second) << name << ": " << s.id;
    }
  }
}

// ----- search block ---------------------------------------------------

constexpr const char* kSearchText = R"({
  "name": "dse",
  "search": {
    "network": "AlexNet",
    "bitwidth_mode": "heterogeneous",
    "space": {
      "cvu_slice_bits": [1, 2, 4],
      "cvu_lanes": [4, 16],
      "bandwidth_gbps": [16.0, 64.0]
    },
    "strategy": "hill-climb",
    "budget": 10,
    "seed": 7,
    "restarts": 2,
    "objectives": ["cycles", {"metric": "utilization"},
                   {"metric": "gops_per_w", "maximize": false}],
    "constraints": {"min_utilization": 0.5, "max_power_w": 2.0},
    "mix": [{"x_bits": 4, "w_bits": 4, "weight": 0.7},
            {"x_bits": 8, "w_bits": 8}]
  }
})";

TEST(SearchManifest, ParsesEveryField) {
  const Manifest m = from_text(kSearchText);
  EXPECT_TRUE(m.grids.empty());
  ASSERT_TRUE(m.search.has_value());
  const SearchSpec& s = *m.search;
  EXPECT_EQ(s.backend, "bpvec");
  EXPECT_EQ(s.platform, engine::Platform::kBpvec);
  EXPECT_EQ(s.memory, engine::Memory::kDdr4);
  EXPECT_EQ(s.network, "alexnet");  // canonical token, case-folded
  EXPECT_EQ(s.bitwidth_mode, dnn::BitwidthMode::kHeterogeneous);
  ASSERT_EQ(s.space.num_axes(), 3u);
  EXPECT_EQ(s.space.axes()[0].knob, dse::Knob::kCvuSliceBits);
  EXPECT_EQ(s.space.axes()[0].values, (std::vector<double>{1, 2, 4}));
  EXPECT_EQ(s.space.axes()[2].knob, dse::Knob::kMemBandwidthGbps);
  EXPECT_EQ(s.strategy, "hill_climb");  // separator-insensitive token
  EXPECT_EQ(s.budget, 10u);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.restarts, 2u);
  ASSERT_EQ(s.objectives.size(), 3u);
  EXPECT_EQ(s.objectives[0].metric, dse::Metric::kCycles);
  EXPECT_FALSE(s.objectives[0].maximize);
  EXPECT_EQ(s.objectives[1].metric, dse::Metric::kUtilization);
  EXPECT_TRUE(s.objectives[1].maximize);  // natural direction
  EXPECT_FALSE(s.objectives[2].maximize);  // explicit override
  EXPECT_EQ(*s.constraints.min_utilization, 0.5);
  EXPECT_EQ(*s.constraints.max_power_w, 2.0);
  ASSERT_EQ(s.mix.size(), 2u);
  EXPECT_EQ(s.mix[0].weight, 0.7);
  EXPECT_EQ(s.mix[1].weight, 1.0);  // default
}

TEST(SearchManifest, DefaultsAreApplied) {
  const Manifest m = from_text(R"({
    "name": "d",
    "search": {"network": "lstm", "space": {"cvu_lanes": [4, 16]}}
  })");
  const SearchSpec& s = *m.search;
  EXPECT_EQ(s.strategy, "grid");
  EXPECT_EQ(s.budget, 0u);
  EXPECT_EQ(s.seed, 42u);
  ASSERT_EQ(s.objectives.size(), 2u);
  EXPECT_EQ(s.objectives[0].metric, dse::Metric::kCycles);
  EXPECT_EQ(s.objectives[1].metric, dse::Metric::kEnergy);
  EXPECT_FALSE(s.constraints.any());
  EXPECT_TRUE(s.mix.empty());
}

TEST(SearchManifest, SpaceAndBaseResolve) {
  const Manifest m = from_text(kSearchText);
  const dse::ParamSpace space = search_space(*m.search);
  EXPECT_EQ(space.size(), 12u);
  const engine::Scenario base = search_base_scenario(*m.search);
  EXPECT_EQ(base.backend, "bpvec");
  EXPECT_EQ(base.network.name(), "AlexNet");
}

TEST(SearchManifest, Int64AxisKeepsTwoToThe53Exactly) {
  // 2^53 is the last integer a knob value holds exactly; one past it is
  // an error (test_input_errors), never a silent round.
  const Manifest m = from_text(R"({
    "name": "big",
    "search": {"network": "lstm",
               "space": {"scratchpad_bytes": [9007199254740992]}}
  })");
  ASSERT_EQ(m.search->space.num_axes(), 1u);
  const std::vector<double>& values = m.search->space.axes()[0].values;
  EXPECT_EQ(values, (std::vector<double>{9007199254740992.0}));
  EXPECT_EQ(static_cast<std::int64_t>(values[0]), std::int64_t{1} << 53);
}

TEST(SearchManifest, GridsAndSearchMayCoexist) {
  const Manifest m = from_text(R"({
    "name": "both",
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["lstm"]}],
    "search": {"network": "lstm", "space": {"cvu_lanes": [4, 16]}}
  })");
  EXPECT_EQ(m.grids.size(), 1u);
  EXPECT_TRUE(m.search.has_value());
  EXPECT_EQ(expand(m).size(), 1u);
}

TEST(SearchManifest, GridOverrideEqualsAOneValueAxis) {
  // Grid overrides and search axes set configs through the same dse knob
  // code, so fixing a knob either way prices the same scenario.
  const std::vector<std::pair<std::string, std::string>> knobs{
      {"rows", "4"},
      {"cols", "16"},
      {"scratchpad_bytes", "65536"},
      {"frequency_hz", "750000000.0"},
      {"time_chunk", "8"},
      {"batch_size", "2"},
      {"static_core_mw", "12.5"},
      {"cvu_slice_bits", "4"},
      {"cvu_max_bits", "16"},
      {"cvu_lanes", "8"},
      {"bandwidth_gbps", "32.0"},
      {"energy_pj_per_bit", "3.5"},
      {"startup_latency_ns", "55.0"},
      {"background_power_w", "0.125"}};
  ASSERT_EQ(knobs.size(),
            dse::platform_knobs().size() + dse::memory_knobs().size());
  const engine::Scenario plain = expand(from_text(R"({"name": "plain",
    "grids": [{"platforms": ["bpvec"], "memories": ["hbm2"],
               "networks": ["lstm"]}]})"))[0];
  for (const auto& [knob, value] : knobs) {
    const dse::Knob k = *dse::knob_from_token(knob);
    const bool memory = std::count(dse::memory_knobs().begin(),
                                   dse::memory_knobs().end(), k) == 1;
    const Manifest m = from_text(
        R"({"name": "knob", "grids": [{"platforms": ["bpvec"], )"
        R"("memories": ["hbm2"], "networks": ["lstm"], ")" +
        std::string(memory ? "memory_overrides" : "platform_overrides") +
        R"(": {")" + knob + R"(": )" + value +
        R"(}}], "search": {"platform": "bpvec", "memory": "hbm2", )"
        R"("network": "lstm", "space": {")" + knob + R"(": [)" + value +
        "]}}}");
    const engine::Scenario grid = expand(m).at(0);
    const dse::ParamSpace space = search_space(*m.search);
    const engine::Scenario axis =
        space.materialize(space.at(0), search_base_scenario(*m.search));
    const sim::AcceleratorConfig& a = grid.platform;
    const sim::AcceleratorConfig& b = axis.platform;
    EXPECT_EQ(a.rows, b.rows) << knob;
    EXPECT_EQ(a.cols, b.cols) << knob;
    EXPECT_EQ(a.scratchpad_bytes, b.scratchpad_bytes) << knob;
    EXPECT_EQ(a.frequency_hz, b.frequency_hz) << knob;
    EXPECT_EQ(a.time_chunk, b.time_chunk) << knob;
    EXPECT_EQ(a.batch_size, b.batch_size) << knob;
    EXPECT_EQ(a.static_core_mw, b.static_core_mw) << knob;
    EXPECT_EQ(a.cvu.slice_bits, b.cvu.slice_bits) << knob;
    EXPECT_EQ(a.cvu.max_bits, b.cvu.max_bits) << knob;
    EXPECT_EQ(a.cvu.lanes, b.cvu.lanes) << knob;
    EXPECT_EQ(grid.memory.bandwidth_gbps, axis.memory.bandwidth_gbps) << knob;
    EXPECT_EQ(grid.memory.energy_pj_per_bit, axis.memory.energy_pj_per_bit)
        << knob;
    EXPECT_EQ(grid.memory.startup_latency_ns, axis.memory.startup_latency_ns)
        << knob;
    EXPECT_EQ(grid.memory.background_power_w, axis.memory.background_power_w)
        << knob;
    EXPECT_EQ(grid.fingerprint(), axis.fingerprint()) << knob;
    EXPECT_NE(grid.fingerprint(), plain.fingerprint())
        << knob << " left the scenario unchanged";
  }
}

TEST(SearchManifest, RejectsBadBlocks) {
  // Neither grids nor search.
  EXPECT_THROW(from_text(R"({"name": "x"})"), Error);
  // Missing required keys.
  EXPECT_THROW(from_text(R"({"name": "x", "search": {}})"), Error);
  EXPECT_THROW(
      from_text(R"({"name": "x", "search": {"network": "lstm"}})"), Error);
  // Unknown knob / empty axis / fractional integer knob.
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"warp": [1]}}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": []}}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [1.5]}}})"), Error);
  // Unknown strategy / metric; random without budget; duplicate
  // objective; bad constraint key.
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "strategy": "simulated_annealing"}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "objectives": ["happiness"]}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "strategy": "random"}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "objectives": ["cycles", "cycles"]}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "constraints": {"min_happiness": 1.0}}})"), Error);
  // Non-positive caps mark every candidate infeasible — reject the typo.
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "constraints": {"max_cycles": -1}}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "constraints": {"max_power_w": 0.0}}})"), Error);
}

TEST(SearchManifest, ErrorsNameTheOffender) {
  try {
    (void)from_text(R"({"name": "x", "search": {
      "network": "lstm", "space": {"warp_speed": [1]}}})");
    FAIL() << "expected error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp_speed"), std::string::npos) << what;
    EXPECT_NE(what.find("cvu_lanes"), std::string::npos) << what;  // choices
  }
}

TEST(SearchManifest, RoundTripsThroughToJson) {
  const Manifest original = from_text(kSearchText);
  const Manifest reparsed = reparse_search(original);
  ASSERT_TRUE(reparsed.search.has_value());
  const SearchSpec& a = *original.search;
  const SearchSpec& b = *reparsed.search;
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.platform, b.platform);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.network, b.network);
  EXPECT_EQ(a.bitwidth_mode, b.bitwidth_mode);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.restarts, b.restarts);
  ASSERT_EQ(a.space.num_axes(), b.space.num_axes());
  for (std::size_t i = 0; i < a.space.num_axes(); ++i) {
    EXPECT_EQ(a.space.axes()[i].knob, b.space.axes()[i].knob);
    EXPECT_EQ(a.space.axes()[i].values, b.space.axes()[i].values);
  }
  ASSERT_EQ(a.objectives.size(), b.objectives.size());
  for (std::size_t i = 0; i < a.objectives.size(); ++i) {
    EXPECT_EQ(a.objectives[i].metric, b.objectives[i].metric);
    EXPECT_EQ(a.objectives[i].maximize, b.objectives[i].maximize);
  }
  EXPECT_EQ(*a.constraints.min_utilization, *b.constraints.min_utilization);
  ASSERT_EQ(a.mix.size(), b.mix.size());
  EXPECT_EQ(a.mix[0].weight, b.mix[0].weight);
  // The JSON form is a fixed point.
  EXPECT_EQ(to_json(b).dump(2), to_json(a).dump(2));
  EXPECT_EQ(to_json(*reparse_search(reparsed).search).dump(2),
            to_json(a).dump(2));
}

TEST(SearchManifest, PopulationStrategiesParseAndValidate) {
  const Manifest m = from_text(R"({
    "name": "ga",
    "search": {
      "network": "lstm", "space": {"cvu_lanes": [4, 16]},
      "strategy": "genetic", "budget": 32, "population": 6,
      "seed": 9
    }
  })");
  const SearchSpec& s = *m.search;
  EXPECT_EQ(s.strategy, "genetic");
  EXPECT_EQ(s.population, 6u);
  EXPECT_EQ(s.budget, 32u);
  // population survives the JSON round trip for genetic searches...
  EXPECT_EQ(reparse_search(m).search->population, 6u);
  // ...but is not echoed for strategies that never read it, so existing
  // grid/hill_climb search reports stay byte-stable.
  const Manifest grid = from_text(R"({
    "name": "g",
    "search": {"network": "lstm", "space": {"cvu_lanes": [4, 16]}}
  })");
  EXPECT_EQ(to_json(*grid.search).find("population"), nullptr);

  EXPECT_EQ(from_text(R"({"name": "a", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4, 16]},
    "strategy": "annealing", "budget": 16, "restarts": 3
  }})").search->strategy, "annealing");

  // annealing/genetic are sampling strategies: a budget is mandatory.
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "strategy": "annealing"}})"), Error);
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "strategy": "genetic"}})"), Error);
  // A 1-candidate population has no parents to cross.
  EXPECT_THROW(from_text(R"({"name": "x", "search": {
    "network": "lstm", "space": {"cvu_lanes": [4]},
    "strategy": "genetic", "budget": 8, "population": 1}})"), Error);
}

// ----- workloads block ------------------------------------------------

/// Writes a workload-schema document to a temp file and returns its
/// (absolute) path.
std::string write_net_file(const std::string& filename,
                           const std::string& name) {
  const std::string path = ::testing::TempDir() + filename;
  std::ofstream out(path, std::ios::trunc);
  out << R"({"name": ")" << name << R"(", "bitwidth_policy": "uniform:4",
    "layers": [
      {"kind": "fc", "name": "fc0", "in_features": 32, "out_features": 16},
      {"kind": "fc", "name": "fc1", "in_features": 16, "out_features": 4}
    ]})";
  out.flush();
  EXPECT_TRUE(out.good());
  return path;
}

TEST(WorkloadManifest, ParsesAllThreeSourceKinds) {
  const std::string path = write_net_file("wm_kinds.json", "wm-file-net");
  const Manifest m = from_text(R"({
    "name": "wm_kinds",
    "workloads": [
      {"file": ")" + path + R"("},
      {"network": {"name": "wm-inline-net", "layers": [
        {"kind": "fc", "name": "fc", "in_features": 8, "out_features": 2}]}},
      {"generator": "mlp_family", "depth": [2, 3], "width": 16,
       "bitwidth_policy": "uniform:4"}
    ],
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["workloads"],
               "bitwidth_modes": ["heterogeneous"]}]
  })");
  ASSERT_EQ(m.workloads.size(), 3u);
  EXPECT_EQ(m.workloads[0].kind, WorkloadSpec::Kind::kFile);
  EXPECT_EQ(m.workloads[0].names, std::vector<std::string>{"wm-file-net"});
  EXPECT_EQ(m.workloads[1].kind, WorkloadSpec::Kind::kInline);
  EXPECT_EQ(m.workloads[1].names,
            std::vector<std::string>{"wm-inline-net"});
  EXPECT_EQ(m.workloads[2].kind, WorkloadSpec::Kind::kGenerator);
  EXPECT_EQ(m.workloads[2].names,
            (std::vector<std::string>{"mlp_family-d2-w16-u4",
                                      "mlp_family-d3-w16-u4"}));
  // File prototype carries its declared (policy-resolved) bits.
  EXPECT_EQ(m.workloads[0].prototypes[0].layers()[0].x_bits, 4);
  EXPECT_EQ(expand(m).size(), 4u);  // the "workloads" meta token
}

TEST(WorkloadManifest, ExpandPricesDeclaredWorkloadsEndToEnd) {
  const Manifest m = from_text(R"({
    "name": "wm_expand",
    "workloads": [
      {"network": {"name": "wm-expand-net", "bitwidth_policy": "uniform:4",
        "layers": [
          {"kind": "fc", "name": "fc", "in_features": 8,
           "out_features": 2}]}},
      {"generator": "mlp_family", "depth": 2, "width": 8}
    ],
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["workloads"],
               "bitwidth_modes": ["homogeneous8b", "heterogeneous"]}]
  })");
  const auto scenarios = expand(m);  // registers + expands, idempotently
  ASSERT_EQ(scenarios.size(), 4u);
  // Mode-major order: both nets homogeneous, then both heterogeneous.
  EXPECT_EQ(scenarios[0].network.name(), "wm-expand-net");
  EXPECT_EQ(scenarios[1].network.name(), "mlp_family-d2-w8-u8");
  EXPECT_EQ(scenarios[0].network.layers()[0].x_bits, 8);  // forced 8/8
  EXPECT_EQ(scenarios[2].network.layers()[0].x_bits, 4);  // declared bits
  // Re-expanding re-registers the identical prototypes: a no-op.
  EXPECT_EQ(expand(m).size(), 4u);
  // Declared workloads become plain registry tokens for other manifests.
  const Manifest other = from_text(R"({
    "name": "wm_expand_other",
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["wm-expand-net"],
               "bitwidth_modes": ["heterogeneous"]}]
  })");
  EXPECT_EQ(expand(other).size(), 1u);
}

TEST(WorkloadManifest, MixedExplicitAndZooTokensResolve) {
  const Manifest m = from_text(R"({
    "name": "wm_mixed",
    "workloads": [{"generator": "mlp_family", "depth": 2, "width": 4}],
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["alexnet", "mlp_family-d2-w4-u8"],
               "bitwidth_modes": ["heterogeneous"]}]
  })");
  const auto scenarios = expand(m);
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].network.name(), "AlexNet");
  EXPECT_EQ(scenarios[1].network.name(), "mlp_family-d2-w4-u8");
}

TEST(WorkloadManifest, RejectsBadWorkloadBlocks) {
  const auto bad = [](const std::string& text, const std::string& needle) {
    try {
      (void)from_text(text);
      FAIL() << "expected an error containing: " << needle;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const std::string grid = R"("grids": [{"platforms": ["bpvec"],
      "memories": ["ddr4"], "networks": ["all"]}])";
  bad(R"({"name": "m", "workloads": [], )" + grid + "}",
      "\"workloads\" must be a non-empty array");
  bad(R"({"name": "m", "workloads": [{}], )" + grid + "}",
      "exactly one of \"file\", \"network\", or \"generator\"");
  bad(R"({"name": "m", "workloads": [
        {"generator": "mlp_family", "file": "x"}], )" + grid + "}",
      "exactly one of");
  bad(R"({"name": "m", "workloads": [{"generator": "nope"}], )" + grid + "}",
      "unknown workload generator \"nope\"");
  bad(R"({"name": "m", "workloads": [
        {"generator": "mlp_family", "depth": 0}], )" + grid + "}",
      "\"depth\" values must be positive");
  bad(R"({"name": "m", "workloads": [
        {"generator": "mlp_family", "bitwidth_policy": "uniform:9"}], )" +
          grid + "}",
      "unknown bitwidth_policy");
  bad(R"({"name": "m", "workloads": [
        {"network": {"name": "alexnet", "layers": [
          {"kind": "fc", "name": "f", "in_features": 1,
           "out_features": 1}]}}], )" + grid + "}",
      "collides with the builtin network \"alexnet\"");
  bad(R"({"name": "m", "workloads": [
        {"network": {"name": "wm-dupe", "layers": [
          {"kind": "fc", "name": "f", "in_features": 1,
           "out_features": 1}]}},
        {"network": {"name": "WM_DUPE", "layers": [
          {"kind": "fc", "name": "f", "in_features": 2,
           "out_features": 1}]}}], )" + grid + "}",
      "duplicate workload name");
  bad(R"({"name": "m", "workloads": [{"file": "/nonexistent/net.json"}], )" +
          grid + "}",
      "/nonexistent/net.json");
  // The "workloads" meta token needs a workloads block.
  bad(R"({"name": "m", "grids": [{"platforms": ["bpvec"],
        "memories": ["ddr4"], "networks": ["workloads"]}]})",
      "\"workloads\" needs a non-empty manifest");
  // Omitting bitwidth_modes on a custom-workload grid would silently
  // flatten the declared bits to the homogeneous8b default.
  bad(R"({"name": "m", "workloads": [
        {"generator": "mlp_family", "depth": 2, "width": 8,
         "bitwidth_policy": ["uniform:2", "uniform:4"]}],
      "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
                 "networks": ["workloads"]}]})",
      "the grid omits \"bitwidth_modes\"");
}

TEST(WorkloadManifest, UnknownNetworkErrorListsTheVocabulary) {
  try {
    (void)from_text(R"({
      "name": "m",
      "workloads": [{"generator": "mlp_family", "depth": 2, "width": 4}],
      "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
                 "networks": ["mlp_family-d9-w9-u8"]}]})");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown network"), std::string::npos) << what;
    EXPECT_NE(what.find("\"all\""), std::string::npos);
    EXPECT_NE(what.find("\"workloads\""), std::string::npos);
    EXPECT_NE(what.find("\"alexnet\""), std::string::npos);
    EXPECT_NE(what.find("\"mlp_family-d2-w4-u8\""), std::string::npos);
  }
}

TEST(WorkloadManifest, EveryKindResolvesAtParse) {
  const std::string path = write_net_file("wm_resolved.json", "wm-rt-net");
  const Manifest m = from_text(R"({
    "name": "wm_rt",
    "workloads": [
      {"file": ")" + path + R"("},
      {"network": {"name": "wm-rt-inline", "layers": [
        {"kind": "conv", "name": "c", "in_c": 1, "in_h": 4, "in_w": 4,
         "out_c": 2, "kh": 3, "kw": 3, "pad": 1}]}},
      {"generator": "CNN-family", "depth": [1, 2], "width": [4, 8],
       "bitwidth_policy": ["uniform:4", "first_last_8"]}
    ],
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["workloads"],
               "bitwidth_modes": ["heterogeneous"]}]
  })");
  ASSERT_EQ(m.workloads.size(), 3u);
  const WorkloadSpec& file = m.workloads[0];
  EXPECT_EQ(file.kind, WorkloadSpec::Kind::kFile);
  EXPECT_EQ(file.file, path);
  EXPECT_EQ(file.names, std::vector<std::string>{"wm-rt-net"});
  EXPECT_EQ(file.prototypes.at(0).layers()[0].x_bits, 4);  // its policy
  const WorkloadSpec& inline_net = m.workloads[1];
  EXPECT_EQ(inline_net.kind, WorkloadSpec::Kind::kInline);
  EXPECT_EQ(inline_net.names, std::vector<std::string>{"wm-rt-inline"});
  ASSERT_EQ(inline_net.prototypes.size(), 1u);
  EXPECT_EQ(inline_net.prototypes[0].layers().size(), 1u);
  const WorkloadSpec& gen = m.workloads[2];
  EXPECT_EQ(gen.kind, WorkloadSpec::Kind::kGenerator);
  EXPECT_EQ(gen.generator, "cnn_family");  // canonical family token
  EXPECT_EQ(gen.depths, (std::vector<int>{1, 2}));
  EXPECT_EQ(gen.widths, (std::vector<int>{4, 8}));
  EXPECT_EQ(gen.policies,
            (std::vector<std::string>{"uniform:4", "first_last_8"}));
  // 2 depths × 2 widths × 2 policies, depth-outermost, one prototype each.
  ASSERT_EQ(gen.names.size(), 8u);
  EXPECT_EQ(gen.prototypes.size(), 8u);
  EXPECT_EQ(gen.names.front(), "cnn_family-d1-w4-u4");
  EXPECT_EQ(gen.names.back(), "cnn_family-d2-w8-fl8");
  // The "workloads" meta token resolved to every declared name, in
  // declaration order.
  std::vector<std::string> declared{"wm-rt-net", "wm-rt-inline"};
  declared.insert(declared.end(), gen.names.begin(), gen.names.end());
  EXPECT_EQ(m.grids.at(0).networks, declared);
  EXPECT_EQ(expand(m).size(), 10u);
}

TEST(SearchManifest, WorkloadGeneratorBlock) {
  const Manifest m = from_text(R"({
    "name": "wm_search",
    "search": {
      "workload": {"generator": "mlp_family", "depth": 2, "width": 16,
                   "bitwidth_policy": "uniform:4"},
      "space": {"net_width": [8, 16], "cvu_lanes": [4, 16]}
    }
  })");
  ASSERT_TRUE(m.search.has_value());
  ASSERT_TRUE(m.search->workload.has_value());
  EXPECT_EQ(m.search->workload->family, "mlp_family");
  EXPECT_EQ(m.search->workload->depth, 2);
  EXPECT_TRUE(m.search->network.empty());
  const engine::Scenario base = search_base_scenario(*m.search);
  EXPECT_EQ(base.network.name(), "mlp_family-d2-w16-u4");
  EXPECT_EQ(base.network.layers()[0].x_bits, 4);
  // Round trip: the workload block replaces network/bitwidth_mode.
  const common::json::Value echo = to_json(*m.search);
  EXPECT_EQ(echo.find("network"), nullptr);
  EXPECT_EQ(echo.find("bitwidth_mode"), nullptr);
  const Manifest reparsed = reparse_search(m);
  ASSERT_TRUE(reparsed.search->workload.has_value());
  EXPECT_EQ(reparsed.search->workload->family, "mlp_family");
  EXPECT_EQ(to_json(*reparsed.search).dump(2), echo.dump(2));
}

TEST(SearchManifest, WorkloadBlockExclusionsAndNetAxisGuards) {
  const auto bad = [](const std::string& text, const std::string& needle) {
    try {
      (void)from_text(text);
      FAIL() << "expected an error containing: " << needle;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  bad(R"({"name": "m", "search": {
        "workload": {"generator": "mlp_family"}, "network": "alexnet",
        "space": {"cvu_lanes": [4]}}})",
      "mutually exclusive");
  bad(R"({"name": "m", "search": {
        "workload": {"generator": "mlp_family"},
        "bitwidth_mode": "heterogeneous",
        "space": {"cvu_lanes": [4]}}})",
      "\"bitwidth_mode\" does not apply");
  bad(R"({"name": "m", "search": {
        "workload": {"generator": "mlp_family"},
        "bitwidth_override": {"x_bits": 2, "w_bits": 2},
        "space": {"cvu_lanes": [4]}}})",
      "\"bitwidth_override\" does not apply");
  bad(R"({"name": "m", "search": {"network": "alexnet",
        "space": {"net_depth": [2, 3]}}})",
      "needs a \"workload\" generator block");
  // Axis values outside the family's caps must fail --validate, not
  // abort a half-spent search.
  bad(R"({"name": "m", "search": {
        "workload": {"generator": "mlp_family"},
        "space": {"net_bits": [4, 16]}}})",
      "\"net_bits\" value 16");
  bad(R"({"name": "m", "search": {
        "workload": {"generator": "cnn_family"},
        "space": {"net_depth": [8]}}})",
      "depth must be in [1, 5]");
  bad(R"({"name": "m", "search": {
        "workload": {"generator": "mlp_family"},
        "space": {"net_width": [0]}}})",
      "\"net_width\" values must be positive");
}

TEST(SearchManifest, CustomNetworkTokenNeedsAnExplicitBitwidthMode) {
  // Same guard the grid path has: the default mode would flatten the
  // declared bits.
  const Manifest declared = from_text(R"({
    "name": "m",
    "workloads": [{"generator": "mlp_family", "depth": 2, "width": 8,
                   "bitwidth_policy": "uniform:4"}],
    "search": {"network": "mlp_family-d2-w8-u4",
               "bitwidth_mode": "heterogeneous",
               "space": {"cvu_lanes": [4]}}
  })");
  (void)register_workloads(declared);
  const engine::Scenario base = search_base_scenario(*declared.search);
  EXPECT_EQ(base.network.layers()[0].x_bits, 4);  // declared bits kept
  try {
    (void)from_text(R"({
      "name": "m",
      "workloads": [{"generator": "mlp_family", "depth": 2, "width": 8,
                     "bitwidth_policy": "uniform:4"}],
      "search": {"network": "mlp_family-d2-w8-u4",
                 "space": {"cvu_lanes": [4]}}
    })");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "the search omits \"bitwidth_mode\""),
              std::string::npos)
        << e.what();
  }
}

// ----- the list subcommand and --network-file -------------------------

TEST(CliList, PrintsEveryVocabulary) {
  std::ostringstream out, err;
  const char* argv[] = {"bpvec_run", "list"};
  ASSERT_EQ(serve::main_cli(2, argv, out, err), 0) << err.str();
  const std::string text = out.str();
  for (const char* needle :
       {"backends:", "bpvec", "functional", "platforms:", "tpu_like",
        "memories:", "ddr4", "bitwidth_modes:", "networks:", "alexnet",
        "workload_generators:", "mlp_family", "search_knobs:",
        "net_depth", "metrics:", "cycles", "strategies:", "hill_climb"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The Table II selector lines byte-exactly: order and spelling are
  // what manifests and reports write.
  EXPECT_NE(text.find("\nplatforms:           tpu_like, bitfusion, bpvec\n"
                      "memories:            ddr4, hbm2\n"
                      "bitwidth_modes:      homogeneous8b, heterogeneous\n"),
            std::string::npos)
      << text;
}

TEST(CliList, NetworkFileRegistersAndShowsUp) {
  const std::string path = write_net_file("cli_list.json", "cli-list-net");
  std::ostringstream out, err;
  const char* argv[] = {"bpvec_run", "list", "--network-file",
                        path.c_str()};
  ASSERT_EQ(serve::main_cli(4, argv, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("cli-list-net"), std::string::npos);
  // Once registered, a manifest can name it without a workloads block.
  const Manifest m = from_text(R"({
    "name": "cli_list_grid",
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["cli-list-net"],
               "bitwidth_modes": ["heterogeneous"]}]
  })");
  EXPECT_EQ(expand(m).size(), 1u);
}

TEST(CliList, RejectsAManifestArgument) {
  std::ostringstream out, err;
  const char* argv[] = {"bpvec_run", "list", "extra.json"};
  EXPECT_NE(serve::main_cli(3, argv, out, err), 0);
  EXPECT_NE(err.str().find("`list` takes no manifest"), std::string::npos)
      << err.str();
  // Both orderings of the two subcommands conflict explicitly (neither
  // may silently become a manifest path).
  for (const auto& argv2 : {std::pair{"search", "list"},
                            std::pair{"list", "search"}}) {
    std::ostringstream out2, err2;
    const char* args[] = {"bpvec_run", argv2.first, argv2.second};
    EXPECT_NE(serve::main_cli(3, args, out2, err2), 0);
    EXPECT_NE(err2.str().find("mutually exclusive subcommands"),
              std::string::npos)
        << err2.str();
  }
}

}  // namespace
}  // namespace bpvec::cli
