#include "src/workload/generators.h"

#include <algorithm>
#include <string>

#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/token.h"
#include "src/workload/schema.h"

namespace bpvec::workload {

namespace {

enum class Family { kCnn, kMlp, kTransformer };

struct FamilyInfo {
  Family family;
  const char* token;
  int default_depth, default_width;
  int max_depth, max_width;
};

const FamilyInfo kFamilies[] = {
    {Family::kCnn, "cnn_family", 3, 32, 5, 512},
    {Family::kMlp, "mlp_family", 3, 1024, 64, 16384},
    {Family::kTransformer, "transformer_block", 2, 256, 64, 8192},
};

/// generator_tokens() lists the families in kFamilies order.
const FamilyInfo& resolve_family(const std::string& token) {
  return kFamilies[common::json::FieldReader("workload generator")
                       .token_index(token, "family", generator_tokens())];
}

/// Knobs with defaults resolved and ranges enforced.
struct GeneratorKnobs {
  const FamilyInfo* info;
  int depth, width;
  std::string policy;
  std::string name;
};

GeneratorKnobs resolve(const GeneratorSpec& spec) {
  GeneratorKnobs r;
  r.info = &resolve_family(spec.family);
  r.depth = spec.depth == 0 ? r.info->default_depth : spec.depth;
  r.width = spec.width == 0 ? r.info->default_width : spec.width;
  if (r.depth < 1 || r.depth > r.info->max_depth) {
    throw Error(std::string("workload generator: ") + r.info->token +
                " depth must be in [1, " + std::to_string(r.info->max_depth) +
                "], got " + std::to_string(r.depth));
  }
  if (r.width < 1 || r.width > r.info->max_width) {
    throw Error(std::string("workload generator: ") + r.info->token +
                " width must be in [1, " + std::to_string(r.info->max_width) +
                "], got " + std::to_string(r.width));
  }
  r.policy = spec.bitwidth_policy.empty() ? "uniform:8" : spec.bitwidth_policy;
  if (!is_bitwidth_policy(r.policy)) {
    throw Error(std::string("workload generator: ") + r.info->token + ": " +
                unknown_bitwidth_policy(r.policy));
  }
  // Canonicalize ("Uniform:4" → "uniform:4") so derived names are
  // spelling-independent.
  const std::string norm = common::normalize_token(r.policy);
  r.policy = norm == "firstlast8" ? "first_last_8" : norm;
  r.name = spec.name;
  return r;
}

std::string policy_slug(const std::string& policy) {
  if (policy.rfind("uniform:", 0) == 0) return "u" + policy.substr(8);
  return "fl8";  // first_last_8 — the only other valid policy
}

/// The one derived-name rule (generated_name's injectivity contract —
/// manifests resolve generated tokens by recomputing exactly this).
std::string derived_name(const GeneratorKnobs& r) {
  return std::string(r.info->token) + "-d" + std::to_string(r.depth) + "-w" +
         std::to_string(r.width) + "-" + policy_slug(r.policy);
}

dnn::Network make_cnn(const GeneratorKnobs& r) {
  dnn::Network net(r.name, dnn::NetworkType::kCnn);
  int hw = 64, in_c = 3;
  for (int s = 0; s < r.depth; ++s) {
    const std::string stage = "stage" + std::to_string(s);
    const int out_c = r.width * (1 << std::min(s, 3));  // double, ×8 cap
    net.add(dnn::make_conv(stage + "/conv_a",
                           {in_c, hw, hw, out_c, 3, 3, 1, 1}));
    net.add(dnn::make_conv(stage + "/conv_b",
                           {out_c, hw, hw, out_c, 3, 3, 1, 1}));
    net.add(dnn::make_pool(stage + "/pool", {out_c, hw, hw, 2, 2}));
    in_c = out_c;
    hw /= 2;
  }
  if (hw > 1) {
    net.add(dnn::make_pool(
        "avgpool", {in_c, hw, hw, hw, 1, dnn::PoolKind::kAverage}));
  }
  net.add(dnn::make_fc("fc", {in_c, 1000}));
  return net;
}

dnn::Network make_mlp(const GeneratorKnobs& r) {
  dnn::Network net(r.name, dnn::NetworkType::kCnn);
  const int input = 784, classes = 10;
  if (r.depth == 1) {
    net.add(dnn::make_fc("fc0", {input, classes}));
    return net;
  }
  net.add(dnn::make_fc("fc0", {input, r.width}));
  for (int i = 1; i < r.depth - 1; ++i) {
    net.add(dnn::make_fc("fc" + std::to_string(i), {r.width, r.width}));
  }
  net.add(dnn::make_fc("fc" + std::to_string(r.depth - 1),
                       {r.width, classes}));
  return net;
}

dnn::Network make_transformer(const GeneratorKnobs& r) {
  dnn::Network net(r.name, dnn::NetworkType::kCnn);
  const int w = r.width;
  for (int b = 0; b < r.depth; ++b) {
    const std::string blk = "blk" + std::to_string(b);
    net.add(dnn::make_fc(blk + "/qkv", {w, 3 * w}));
    net.add(dnn::make_fc(blk + "/attn_out", {w, w}));
    net.add(dnn::make_fc(blk + "/ffn_up", {w, 4 * w}));
    net.add(dnn::make_fc(blk + "/ffn_down", {4 * w, w}));
  }
  return net;
}

}  // namespace

const std::vector<std::string>& generator_tokens() {
  static const std::vector<std::string> tokens = [] {
    std::vector<std::string> t;
    for (const FamilyInfo& f : kFamilies) t.emplace_back(f.token);
    return t;
  }();
  return tokens;
}

std::string generated_name(const GeneratorSpec& spec) {
  return derived_name(resolve(spec));
}

dnn::Network generate(const GeneratorSpec& spec) {
  GeneratorKnobs r = resolve(spec);
  if (r.name.empty()) r.name = derived_name(r);
  dnn::Network net = [&] {
    switch (r.info->family) {
      case Family::kCnn: return make_cnn(r);
      case Family::kMlp: return make_mlp(r);
      case Family::kTransformer: break;
    }
    return make_transformer(r);
  }();
  apply_bitwidth_policy(net, r.policy);
  return net;
}

}  // namespace bpvec::workload
