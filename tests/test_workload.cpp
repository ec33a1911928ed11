// The workload subsystem: declarative network schema (parse/to_json
// round trips, strict error paths), bitwidth policies, structural
// fingerprints, the NetworkRegistry (builtins, hardening, mode
// application), the parametric generators, and the acceptance contract:
// a JSON-defined copy of a zoo network prices bit-identically to the
// builtin through SimEngine::run_batch.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/json.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/workload/generators.h"
#include "src/workload/network_registry.h"
#include "src/workload/schema.h"
#include "tests/memo_bpvec_backend.h"
#include "tests/run_result_identical.h"

namespace bpvec::workload {
namespace {

using common::json::Value;
using common::json::parse;

// A small valid document most error tests perturb.
const char* kTinyDoc = R"({
  "name": "TinyConv",
  "layers": [
    {"kind": "conv", "name": "conv1", "in_c": 3, "in_h": 8, "in_w": 8,
     "out_c": 4, "kh": 3, "kw": 3, "pad": 1},
    {"kind": "pool", "name": "pool1", "channels": 4, "in_h": 8, "in_w": 8},
    {"kind": "fc", "name": "fc", "in_features": 64, "out_features": 10}
  ]
})";

dnn::Network tiny() { return parse_network(parse(kTinyDoc)); }

void expect_parse_error(const std::string& doc, const std::string& needle) {
  try {
    (void)parse_network(parse(doc));
    FAIL() << "expected an error containing: " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// ----- schema parsing -------------------------------------------------

TEST(WorkloadSchema, ParsesMinimalNetworkWithDefaults) {
  const dnn::Network net = tiny();
  EXPECT_EQ(net.name(), "TinyConv");
  EXPECT_EQ(net.type(), dnn::NetworkType::kCnn);
  ASSERT_EQ(net.layers().size(), 3u);
  const dnn::Layer& conv = net.layers()[0];
  EXPECT_EQ(conv.kind, dnn::LayerKind::kConv);
  EXPECT_EQ(conv.conv().stride, 1);  // defaulted
  EXPECT_EQ(conv.conv().pad, 1);
  EXPECT_EQ(conv.x_bits, 8);  // defaulted
  EXPECT_EQ(conv.w_bits, 8);
  const dnn::Layer& pool = net.layers()[1];
  EXPECT_EQ(pool.pool().k, 2);        // defaulted
  EXPECT_EQ(pool.pool().stride, 2);   // defaulted
  EXPECT_EQ(pool.pool().kind, dnn::PoolKind::kMax);
}

TEST(WorkloadSchema, ParsesRecurrentLayers) {
  const dnn::Network net = parse_network(parse(R"({
    "name": "r", "type": "rnn",
    "layers": [{"kind": "recurrent", "name": "lstm", "cell": "lstm",
                "input_size": 16, "hidden_size": 8, "time_steps": 4}]
  })"));
  EXPECT_EQ(net.type(), dnn::NetworkType::kRnn);
  const dnn::RecurrentParams& p = net.layers()[0].recurrent();
  EXPECT_EQ(p.cell, dnn::RecurrentCellKind::kLstm);
  EXPECT_EQ(p.gates(), 4);
  EXPECT_EQ(p.time_steps, 4);
}

TEST(WorkloadSchema, UnknownLayerKindIsAnError) {
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "softmax", "name": "s"}]})",
                     "unknown kind \"softmax\"");
}

TEST(WorkloadSchema, UnknownKeysAreErrors) {
  expect_parse_error(R"({"name": "n", "typo": 1, "layers": [
      {"kind": "fc", "name": "f", "in_features": 1, "out_features": 1}]})",
                     "unknown key \"typo\"");
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "fc", "name": "f", "in_features": 1, "out_features": 1,
       "channels": 3}]})",
                     "unknown key \"channels\"");
}

TEST(WorkloadSchema, ZeroAndNegativeDimsAreErrors) {
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "fc", "name": "f", "in_features": 0, "out_features": 1}]})",
                     "\"in_features\" must be a positive integer");
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "conv", "name": "c", "in_c": 3, "in_h": -8, "in_w": 8,
       "out_c": 4, "kh": 3, "kw": 3}]})",
                     "\"in_h\" must be a positive integer");
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "conv", "name": "c", "in_c": 3, "in_h": 8, "in_w": 8,
       "out_c": 4, "kh": 3, "kw": 3, "stride": 0}]})",
                     "\"stride\" must be in [1, 16777216]");
}

TEST(WorkloadSchema, OversizedKernelsAreErrors) {
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "conv", "name": "c", "in_c": 1, "in_h": 4, "in_w": 4,
       "out_c": 1, "kh": 9, "kw": 9}]})",
                     "kernel larger than the padded input");
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "pool", "name": "p", "channels": 1, "in_h": 4, "in_w": 4,
       "k": 9}]})",
                     "pool window larger than the input");
}

TEST(WorkloadSchema, BitwidthsOutsideRangeAreErrors) {
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "fc", "name": "f", "in_features": 1, "out_features": 1,
       "x_bits": 9}]})",
                     "\"x_bits\" must be in [1, 8]");
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "fc", "name": "f", "in_features": 1, "out_features": 1,
       "w_bits": 0}]})",
                     "\"w_bits\" must be in [1, 8]");
}

TEST(WorkloadSchema, DuplicateLayerNamesAreErrors) {
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "fc", "name": "f", "in_features": 1, "out_features": 1},
      {"kind": "fc", "name": "f", "in_features": 1, "out_features": 1}]})",
                     "duplicate layer name \"f\"");
}

TEST(WorkloadSchema, EmptyLayerListsAreErrors) {
  expect_parse_error(R"({"name": "n", "layers": []})",
                     "\"layers\" must be a non-empty array");
  expect_parse_error(R"({"name": "n"})", "missing required key \"layers\"");
}

TEST(WorkloadSchema, MissingOrEmptyNameIsAnError) {
  expect_parse_error(R"({"layers": []})", "missing required key \"name\"");
  expect_parse_error(R"({"name": "", "layers": []})",
                     "\"name\" must be non-empty");
}

TEST(WorkloadSchema, UnknownPolicyAndCellAreErrors) {
  expect_parse_error(R"({"name": "n", "bitwidth_policy": "uniform:9",
      "layers": [{"kind": "fc", "name": "f", "in_features": 1,
                  "out_features": 1}]})",
                     "unknown bitwidth_policy \"uniform:9\"");
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "recurrent", "name": "r", "cell": "gru", "input_size": 1,
       "hidden_size": 1}]})",
                     "unknown cell \"gru\"");
}

// ----- bitwidth policies ----------------------------------------------

TEST(WorkloadSchema, PolicyTokensMatchInsensitively) {
  // The shared vocabulary rule: case-insensitive, '-'/'_' ignored.
  EXPECT_TRUE(is_bitwidth_policy("Uniform:4"));
  EXPECT_TRUE(is_bitwidth_policy("UNIFORM:8"));
  EXPECT_TRUE(is_bitwidth_policy("First-Last-8"));
  EXPECT_FALSE(is_bitwidth_policy("uniform:9"));
  EXPECT_FALSE(is_bitwidth_policy("uniform:"));
  dnn::Network net = tiny();
  apply_bitwidth_policy(net, "Uniform:2");
  EXPECT_EQ(net.layers()[0].x_bits, 2);
  // Derived generator names canonicalize the spelling.
  EXPECT_EQ(generated_name({"mlp_family", 2, 8, "Uniform:4", ""}),
            "mlp_family-d2-w8-u4");
}

TEST(WorkloadSchema, HugeDimensionsAreRejectedNotOverflowed) {
  // The validator must error, never overflow: pad/dims are capped.
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "conv", "name": "c", "in_c": 1, "in_h": 4, "in_w": 4,
       "out_c": 1, "kh": 3, "kw": 3, "pad": 2000000000}]})",
                     "\"pad\" must be in [0, 16777216]");
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "fc", "name": "f", "in_features": 2000000000,
       "out_features": 1}]})",
                     "\"in_features\" must be a positive integer <=");
  // Dims individually under the cap can still multiply past int64 —
  // the per-layer scale ceiling catches the product. (FC can't trip it:
  // two capped dims max out at ~2.8e14 < 1e15.)
  expect_parse_error(R"({"name": "n", "layers": [
      {"kind": "conv", "name": "c", "in_c": 16777216, "in_h": 16777216,
       "in_w": 16777216, "out_c": 16777216, "kh": 16777216,
       "kw": 16777216}]})",
                     "exceeds the supported scale");
}

TEST(WorkloadSchema, UniformPolicySetsEveryLayer) {
  dnn::Network net = tiny();
  apply_bitwidth_policy(net, "uniform:4");
  for (const dnn::Layer& l : net.layers()) {
    EXPECT_EQ(l.x_bits, 4);
    EXPECT_EQ(l.w_bits, 4);
  }
  EXPECT_EQ(net.bitwidth_note(), "All layers with 4-bit");
  apply_bitwidth_policy(net, "uniform:8");
  EXPECT_EQ(net.bitwidth_note(), "All layers 8-bit");
}

TEST(WorkloadSchema, FirstLast8PolicyMatchesTheZooRule) {
  // The zoo's heterogeneous CNN regime, reproduced on AlexNet: policy
  // over the 8-bit net == the factory's own assignment, layer for layer.
  dnn::Network policy_net = dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b);
  apply_bitwidth_policy(policy_net, "first_last_8");
  const dnn::Network zoo_net =
      dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous);
  ASSERT_EQ(policy_net.layers().size(), zoo_net.layers().size());
  for (std::size_t i = 0; i < zoo_net.layers().size(); ++i) {
    EXPECT_EQ(policy_net.layers()[i].x_bits, zoo_net.layers()[i].x_bits)
        << zoo_net.layers()[i].name;
    EXPECT_EQ(policy_net.layers()[i].w_bits, zoo_net.layers()[i].w_bits);
  }
  EXPECT_EQ(policy_net.bitwidth_note(), zoo_net.bitwidth_note());
}

TEST(WorkloadSchema, ExplicitLayerBitsOverrideThePolicy) {
  const dnn::Network net = parse_network(parse(R"({
    "name": "n", "bitwidth_policy": "uniform:4",
    "layers": [
      {"kind": "fc", "name": "a", "in_features": 1, "out_features": 1},
      {"kind": "fc", "name": "b", "in_features": 1, "out_features": 1,
       "x_bits": 2, "w_bits": 6}]
  })"));
  EXPECT_EQ(net.layers()[0].x_bits, 4);
  EXPECT_EQ(net.layers()[1].x_bits, 2);
  EXPECT_EQ(net.layers()[1].w_bits, 6);
}

// ----- to_json round trips --------------------------------------------

TEST(WorkloadSchema, ToJsonRoundTripIsByteStable) {
  const dnn::Network net = tiny();
  const std::string once = to_json(net).dump(1);
  const std::string twice = to_json(parse_network(parse(once))).dump(1);
  EXPECT_EQ(once, twice);
}

using ZooFactory = dnn::Network (*)(dnn::BitwidthMode);
const ZooFactory kZoo[] = {dnn::make_alexnet, dnn::make_inception_v1,
                           dnn::make_resnet18, dnn::make_resnet50,
                           dnn::make_rnn,      dnn::make_lstm};

TEST(WorkloadSchema, ZooNetworksRoundTripBitIdentically) {
  for (ZooFactory make : kZoo) {
    for (auto mode : {dnn::BitwidthMode::kHomogeneous8b,
                      dnn::BitwidthMode::kHeterogeneous}) {
      const dnn::Network zoo_net = make(mode);
      const std::string doc = to_json(zoo_net).dump(1);
      const dnn::Network parsed = parse_network(parse(doc));
      EXPECT_EQ(parsed.name(), zoo_net.name());
      EXPECT_EQ(parsed.type(), zoo_net.type());
      EXPECT_EQ(parsed.bitwidth_note(), zoo_net.bitwidth_note());
      ASSERT_EQ(parsed.layers().size(), zoo_net.layers().size())
          << zoo_net.name();
      for (std::size_t i = 0; i < parsed.layers().size(); ++i) {
        const dnn::Layer& a = parsed.layers()[i];
        const dnn::Layer& b = zoo_net.layers()[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.x_bits, b.x_bits);
        EXPECT_EQ(a.w_bits, b.w_bits);
        EXPECT_EQ(a.macs(), b.macs());
        EXPECT_EQ(a.weights(), b.weights());
        EXPECT_EQ(a.gemm().m, b.gemm().m);
        EXPECT_EQ(a.gemm().n, b.gemm().n);
        EXPECT_EQ(a.gemm().k, b.gemm().k);
        EXPECT_EQ(a.gemm().repeats, b.gemm().repeats);
      }
      EXPECT_EQ(network_fingerprint(parsed), network_fingerprint(zoo_net))
          << zoo_net.name();
      // Byte stability holds for the zoo too.
      EXPECT_EQ(to_json(parsed).dump(1), doc);
    }
  }
}

// ----- structural fingerprints ----------------------------------------

TEST(WorkloadFingerprint, IgnoresNetworkAndLayerNames) {
  dnn::Network a = tiny();
  dnn::Network renamed("SomethingElse", a.type());
  for (dnn::Layer l : a.layers()) {
    l.name = "renamed/" + l.name;
    renamed.add(std::move(l));
  }
  EXPECT_EQ(network_fingerprint(a), network_fingerprint(renamed));
}

TEST(WorkloadFingerprint, SensitiveToShapesBitsAndOrder) {
  const dnn::Network base = tiny();
  dnn::Network bits = base;
  bits.layers()[0].x_bits = 4;
  EXPECT_NE(network_fingerprint(base), network_fingerprint(bits));

  dnn::Network shape = base;
  std::get<dnn::FcParams>(shape.layers()[2].params).out_features = 11;
  EXPECT_NE(network_fingerprint(base), network_fingerprint(shape));

  dnn::Network reordered(base.name(), base.type());
  reordered.add(base.layers()[2]);
  reordered.add(base.layers()[1]);
  reordered.add(base.layers()[0]);
  EXPECT_NE(network_fingerprint(base), network_fingerprint(reordered));

  // time_chunk shapes the recurrent GEMM view, and only that view.
  dnn::Network recurrent("r", dnn::NetworkType::kRnn);
  recurrent.add(dnn::make_recurrent(
      "r", {dnn::RecurrentCellKind::kVanillaRnn, 8, 8, 32}));
  EXPECT_NE(network_fingerprint(recurrent, 16),
            network_fingerprint(recurrent, 4));
  EXPECT_EQ(network_fingerprint(base, 16), network_fingerprint(base, 16));
}

TEST(WorkloadFingerprint, FollowsInPlaceLayerEdits) {
  // A mutable layers() reference taken before hashing and written
  // through after it must still change the fingerprint: every engine
  // cache keys on it, so a stale hash would serve another network's
  // results.
  dnn::Network net = tiny();
  std::vector<dnn::Layer>& layers = net.layers();
  const std::uint64_t before = network_fingerprint(net);
  layers[0].x_bits = layers[0].x_bits == 4 ? 2 : 4;
  EXPECT_NE(network_fingerprint(net), before);
}

// ----- NetworkRegistry ------------------------------------------------

TEST(NetworkRegistry, BuiltinsComeFirstInTableOneOrder) {
  const auto tokens = NetworkRegistry::instance().tokens();
  ASSERT_GE(tokens.size(), 6u);
  const auto& builtins = NetworkRegistry::builtin_tokens();
  for (std::size_t i = 0; i < builtins.size(); ++i) {
    EXPECT_EQ(tokens[i], builtins[i]);
  }
}

TEST(NetworkRegistry, CreateMatchesTheZooFactoriesExactly) {
  auto& registry = NetworkRegistry::instance();
  for (std::size_t i = 0; i < NetworkRegistry::builtin_tokens().size();
       ++i) {
    for (auto mode : {dnn::BitwidthMode::kHomogeneous8b,
                      dnn::BitwidthMode::kHeterogeneous}) {
      const dnn::Network from_registry =
          registry.create(NetworkRegistry::builtin_tokens()[i], mode);
      const dnn::Network from_zoo = kZoo[i](mode);
      EXPECT_EQ(from_registry.name(), from_zoo.name());
      EXPECT_EQ(network_fingerprint(from_registry),
                network_fingerprint(from_zoo));
    }
  }
}

TEST(NetworkRegistry, TokensMatchCaseAndSeparatorInsensitively) {
  auto& registry = NetworkRegistry::instance();
  EXPECT_TRUE(registry.contains("ResNet-18"));
  EXPECT_TRUE(registry.contains("INCEPTION_V1"));
  EXPECT_EQ(registry.canonical_key("Res-Net-18").value_or(""), "resnet18");
  EXPECT_EQ(registry.create("ResNet-18", dnn::BitwidthMode::kHomogeneous8b)
                .name(),
            "ResNet-18");
}

TEST(NetworkRegistry, UnknownTokenErrorListsRegisteredNetworks) {
  try {
    (void)NetworkRegistry::instance().create(
        "nope", dnn::BitwidthMode::kHomogeneous8b);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown network \"nope\""), std::string::npos);
    EXPECT_NE(what.find("\"alexnet\""), std::string::npos);
  }
}

TEST(NetworkRegistry, PrototypeModeSemantics) {
  auto& registry = NetworkRegistry::instance();
  dnn::Network proto = tiny();
  proto.layers()[0].x_bits = 4;
  proto.layers()[0].w_bits = 4;
  registry.register_network("reg-proto-mode", proto);
  // Heterogeneous keeps the declared bits; homogeneous forces 8/8.
  const dnn::Network het =
      registry.create("reg_proto_mode", dnn::BitwidthMode::kHeterogeneous);
  EXPECT_EQ(het.layers()[0].x_bits, 4);
  const dnn::Network hom =
      registry.create("reg_proto_mode", dnn::BitwidthMode::kHomogeneous8b);
  EXPECT_EQ(hom.layers()[0].x_bits, 8);
  EXPECT_EQ(hom.bitwidth_note(), "All layers 8-bit");
}

TEST(NetworkRegistry, DuplicateRegistrationIsIdempotentOnlyForSameContent) {
  auto& registry = NetworkRegistry::instance();
  const dnn::Network proto = tiny();
  registry.register_network("reg-dupe", proto);
  EXPECT_NO_THROW(registry.register_network("reg-dupe", proto));  // no-op
  EXPECT_NO_THROW(registry.register_network("REG_DUPE", proto));  // same token

  dnn::Network changed = proto;
  changed.layers()[0].x_bits = 2;
  try {
    registry.register_network("reg-dupe", changed);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "network \"reg-dupe\" is already registered"),
              std::string::npos)
        << e.what();
  }
  // Builtins are factory registrations: never idempotent.
  EXPECT_THROW(registry.register_network(
                   "alexnet",
                   dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b)),
               Error);
}

TEST(NetworkRegistry, EmptyLayerListsAreRejected) {
  try {
    NetworkRegistry::instance().register_network(
        "reg-empty", dnn::Network("Empty", dnn::NetworkType::kCnn));
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("has no layers"),
              std::string::npos);
  }
}

// ----- generators -----------------------------------------------------

TEST(Generators, FamiliesEmitValidDeterministicNetworks) {
  for (const std::string& family : generator_tokens()) {
    const dnn::Network a = generate({family, 0, 0, "", ""});
    const dnn::Network b = generate({family, 0, 0, "", ""});
    EXPECT_FALSE(a.layers().empty()) << family;
    EXPECT_GT(a.stats().total_macs, 0) << family;
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(network_fingerprint(a), network_fingerprint(b)) << family;
  }
}

TEST(Generators, NamesEncodeEveryKnob) {
  EXPECT_EQ(generated_name({"mlp_family", 4, 1024, "uniform:4", ""}),
            "mlp_family-d4-w1024-u4");
  EXPECT_EQ(generated_name({"cnn_family", 0, 0, "", ""}),
            "cnn_family-d3-w32-u8");  // defaults resolved into the name
  EXPECT_EQ(generated_name({"transformer_block", 2, 256, "first_last_8",
                            ""}),
            "transformer_block-d2-w256-fl8");
  const dnn::Network net = generate({"mlp_family", 4, 64, "uniform:4", ""});
  EXPECT_EQ(net.name(), "mlp_family-d4-w64-u4");
  for (const dnn::Layer& l : net.layers()) EXPECT_EQ(l.x_bits, 4);
}

TEST(Generators, KnobRangesAreEnforced) {
  EXPECT_THROW(generate({"cnn_family", 6, 0, "", ""}), Error);     // > 5
  EXPECT_THROW(generate({"mlp_family", -1, 0, "", ""}), Error);
  EXPECT_THROW(generate({"mlp_family", 0, 99999, "", ""}), Error);
  EXPECT_THROW(generate({"nope_family", 0, 0, "", ""}), Error);
  EXPECT_THROW(generate({"mlp_family", 0, 0, "uniform:9", ""}), Error);
}

TEST(Generators, DepthAndWidthChangeTheStructure) {
  const auto d2 = generate({"mlp_family", 2, 128, "", ""});
  const auto d4 = generate({"mlp_family", 4, 128, "", ""});
  const auto w256 = generate({"mlp_family", 2, 256, "", ""});
  EXPECT_NE(network_fingerprint(d2), network_fingerprint(d4));
  EXPECT_NE(network_fingerprint(d2), network_fingerprint(w256));
  EXPECT_EQ(d4.layers().size(), 4u);
}

TEST(Generators, TransformerBlockIsRepeatedFcGateGemms) {
  const dnn::Network net =
      generate({"transformer_block", 3, 64, "", ""});
  ASSERT_EQ(net.layers().size(), 12u);  // 4 FC GEMMs per block
  for (const dnn::Layer& l : net.layers()) {
    EXPECT_EQ(l.kind, dnn::LayerKind::kFullyConnected);
  }
  EXPECT_EQ(net.layers()[0].fc().out_features, 3 * 64);  // qkv
  EXPECT_EQ(net.layers()[2].fc().out_features, 4 * 64);  // ffn up
}

TEST(Generators, CnnFamilyHalvesTheInputPerStage) {
  const dnn::Network net = generate({"cnn_family", 2, 8, "", ""});
  // stage0 (conv,conv,pool @64) + stage1 (@32) + avgpool(16) + fc.
  ASSERT_EQ(net.layers().size(), 8u);
  EXPECT_EQ(net.layers()[3].conv().in_h, 32);
  EXPECT_EQ(net.layers()[7].fc().in_features, 16);  // 8 * 2
  EXPECT_EQ(net.layers()[7].fc().out_features, 1000);
}

TEST(WorkloadSchema, CommittedAlexnetCopyMatchesTheZooStructurally) {
  // Drift guard for bench/manifests/nets/alexnet_copy.json: the CI
  // custom_net gate prices it, and its claim to fame is structural
  // identity with the builtin (first_last_8 == the Table I regime).
  const auto here = std::filesystem::path(__FILE__).parent_path();
  const dnn::Network copy = load_network(
      (here.parent_path() / "bench/manifests/nets/alexnet_copy.json")
          .string());
  EXPECT_EQ(copy.name(), "AlexNet-Copy");
  const dnn::Network zoo_net =
      dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous);
  EXPECT_EQ(network_fingerprint(copy), network_fingerprint(zoo_net));
  EXPECT_EQ(copy.bitwidth_note(), zoo_net.bitwidth_note());
}

// ----- the acceptance contract through the engine ---------------------

TEST(WorkloadEngine, JsonCopyOfAlexnetPricesBitIdenticallyViaLayerCache) {
  // ISSUE 5 acceptance: a JSON-defined copy of AlexNet prices
  // bit-identically to the builtin token through SimEngine::run_batch.
  // Two fresh engines, so the copy genuinely re-prices: the builtin
  // straight through "bpvec", the copy through the layer memo of the
  // memoizing wrapper.
  const dnn::Network zoo_net =
      dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous);
  const dnn::Network json_net =
      parse_network(to_json(zoo_net));  // the JSON round trip

  engine::SimEngine zoo_engine;
  const auto zoo_result = zoo_engine.run_batch({engine::make_scenario(
      engine::Platform::kBpvec, engine::Memory::kDdr4, zoo_net)});
  EXPECT_EQ(zoo_engine.stats().layers_priced, zoo_net.layers().size());
  EXPECT_EQ(zoo_engine.stats().layer_cache_hits, 0u);

  engine::SimEngine json_engine;
  const auto json_result = json_engine.run_batch({memoized(
      engine::make_scenario(engine::Platform::kBpvec, engine::Memory::kDdr4,
                            json_net))});
  EXPECT_EQ(json_engine.stats().layers_priced +
                json_engine.stats().layer_cache_hits,
            json_net.layers().size());
  expect_bit_identical(json_result[0], zoo_result[0]);
}

TEST(WorkloadEngine, RenamedStructuralTwinDedupesInTheScenarioCache) {
  const dnn::Network original =
      dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous);
  dnn::Network twin("AlexNet-Twin", original.type());
  for (const dnn::Layer& l : original.layers()) twin.add(l);
  twin.set_bitwidth_note(original.bitwidth_note());

  const auto a = engine::make_scenario(engine::Platform::kBpvec,
                                       engine::Memory::kDdr4, original);
  const auto b = engine::make_scenario(engine::Platform::kBpvec,
                                       engine::Memory::kDdr4, twin);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());  // structural identity

  engine::SimEngine engine;
  const auto results = engine.run_batch({a, b});
  EXPECT_EQ(engine.stats().simulations_run, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  // Each result carries its own scenario's labels...
  EXPECT_EQ(results[0].network, "AlexNet");
  EXPECT_EQ(results[1].network, "AlexNet-Twin");
  // ...and every number matches (same structure, same arithmetic).
  EXPECT_EQ(results[0].total_cycles, results[1].total_cycles);
  EXPECT_EQ(results[0].energy_j, results[1].energy_j);
  EXPECT_EQ(results[0].runtime_s, results[1].runtime_s);
}

TEST(WorkloadEngine, DifferentNetsSharingANameNeverCollide) {
  dnn::Network a("SameName", dnn::NetworkType::kCnn);
  a.add(dnn::make_fc("f", {64, 64}));
  dnn::Network b("SameName", dnn::NetworkType::kCnn);
  b.add(dnn::make_fc("f", {64, 128}));
  const auto sa = engine::make_scenario(engine::Platform::kBpvec,
                                        engine::Memory::kDdr4, a, "a");
  const auto sb = engine::make_scenario(engine::Platform::kBpvec,
                                        engine::Memory::kDdr4, b, "b");
  EXPECT_NE(sa.fingerprint(), sb.fingerprint());
  engine::SimEngine engine;
  const auto results = engine.run_batch({sa, sb});
  EXPECT_EQ(engine.stats().simulations_run, 2u);
  EXPECT_NE(results[0].total_macs, results[1].total_macs);
}

}  // namespace
}  // namespace bpvec::workload
