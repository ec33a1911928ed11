#include "src/workload/schema.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "src/backend/cost_backend.h"
#include "src/common/error.h"
#include "src/common/token.h"

namespace bpvec::workload {

using common::json::Value;

namespace {

using common::json::FieldReader;

/// Every shape field is capped well below INT_MAX so downstream
/// arithmetic (padded-input checks, out_h/out_w) cannot overflow int —
/// the validator must produce errors, never UB. 2^24 dwarfs any real
/// layer dimension.
constexpr int kMaxDim = 1 << 24;

/// Required dimension: a strictly positive integer within kMaxDim.
int parse_dim(const FieldReader& r, const Value& obj, const std::string& key) {
  const int v = r.get_int(r.require(obj, key), key);
  if (v < 1 || v > kMaxDim) {
    r.fail("\"" + key + "\" must be a positive integer <= " +
           std::to_string(kMaxDim) + ", got " + std::to_string(v));
  }
  return v;
}

/// Optional dimension with a default; must be in [floor, kMaxDim] when
/// present.
int parse_opt_int(const FieldReader& r, const Value& obj,
                  const std::string& key, int fallback, int floor) {
  const Value* f = obj.find(key);
  if (f == nullptr) return fallback;
  const int v = r.get_int(*f, key);
  if (v < floor || v > kMaxDim) {
    r.fail("\"" + key + "\" must be in [" + std::to_string(floor) + ", " +
           std::to_string(kMaxDim) + "], got " + std::to_string(v));
  }
  return v;
}

int parse_bits(const FieldReader& r, const Value& v, const std::string& key) {
  const int bits = r.get_int(v, key);
  if (bits < 1 || bits > 8) {
    r.fail("\"" + key + "\" must be in [1, 8], got " + std::to_string(bits));
  }
  return bits;
}

const std::vector<std::string>& kind_tokens() {
  static const std::vector<std::string> tokens{"conv", "fc", "pool",
                                               "recurrent"};
  return tokens;
}

/// Per-layer scale ceiling. kMaxDim bounds each dimension, but products
/// of six capped dims can still overflow the int64 MAC/element counts
/// the pricing path computes — so bound the *products* too, computed in
/// double (no overflow). 1e15 MACs per layer is ~500× the whole of
/// ResNet-50; anything beyond it is a typo, not a workload.
constexpr double kMaxLayerScale = 1e15;

void check_layer_scale(const FieldReader& r, const dnn::Layer& layer) {
  double macs = 0, in_elems = 0, out_elems = 0;
  switch (layer.kind) {
    case dnn::LayerKind::kConv: {
      const dnn::ConvParams& p = layer.conv();
      const double out_hw =
          static_cast<double>(p.out_h()) * p.out_w();  // ints: dims capped
      macs = out_hw * p.out_c * p.in_c * p.kh * p.kw;
      in_elems = static_cast<double>(p.in_c) * p.in_h * p.in_w;
      out_elems = out_hw * p.out_c;
      break;
    }
    case dnn::LayerKind::kFullyConnected: {
      const dnn::FcParams& p = layer.fc();
      macs = static_cast<double>(p.in_features) * p.out_features;
      break;
    }
    case dnn::LayerKind::kPool: {
      const dnn::PoolParams& p = layer.pool();
      in_elems = static_cast<double>(p.channels) * p.in_h * p.in_w;
      break;
    }
    case dnn::LayerKind::kRecurrent: {
      const dnn::RecurrentParams& p = layer.recurrent();
      macs = static_cast<double>(p.gates()) * p.hidden_size *
             (static_cast<double>(p.input_size) + p.hidden_size) *
             p.time_steps;
      break;
    }
  }
  if (macs > kMaxLayerScale || in_elems > kMaxLayerScale ||
      out_elems > kMaxLayerScale) {
    r.fail("layer exceeds the supported scale (more than 1e15 MACs or "
           "elements)");
  }
}

dnn::Layer parse_layer(const FieldReader& at, const Value& v) {
  if (!v.is_object()) at.fail("layer must be an object");
  const std::string kind = at.get_string(at.require(v, "kind"), "kind");
  const std::string name = at.get_string(at.require(v, "name"), "name");
  if (name.empty()) at.fail("\"name\" must be non-empty");
  const FieldReader r = at.in(at.context() + " (\"" + name + "\")");

  dnn::Layer layer;
  const std::string canonical = r.token(kind, "kind", kind_tokens());
  if (canonical == "conv") {
    r.check_keys(v, {"kind", "name", "in_c", "in_h", "in_w", "out_c", "kh",
                     "kw", "stride", "pad", "x_bits", "w_bits"});
    dnn::ConvParams p;
    p.in_c = parse_dim(r, v, "in_c");
    p.in_h = parse_dim(r, v, "in_h");
    p.in_w = parse_dim(r, v, "in_w");
    p.out_c = parse_dim(r, v, "out_c");
    p.kh = parse_dim(r, v, "kh");
    p.kw = parse_dim(r, v, "kw");
    p.stride = parse_opt_int(r, v, "stride", 1, 1);
    p.pad = parse_opt_int(r, v, "pad", 0, 0);
    if (p.in_h + 2 * p.pad < p.kh || p.in_w + 2 * p.pad < p.kw) {
      r.fail("kernel larger than the padded input");
    }
    layer = dnn::make_conv(name, p);
  } else if (canonical == "fc") {
    r.check_keys(v, {"kind", "name", "in_features", "out_features", "x_bits",
                     "w_bits"});
    dnn::FcParams p;
    p.in_features = parse_dim(r, v, "in_features");
    p.out_features = parse_dim(r, v, "out_features");
    layer = dnn::make_fc(name, p);
  } else if (canonical == "pool") {
    r.check_keys(v, {"kind", "name", "channels", "in_h", "in_w", "k",
                     "stride", "pool", "x_bits", "w_bits"});
    dnn::PoolParams p;
    p.channels = parse_dim(r, v, "channels");
    p.in_h = parse_dim(r, v, "in_h");
    p.in_w = parse_dim(r, v, "in_w");
    p.k = parse_opt_int(r, v, "k", 2, 1);
    p.stride = parse_opt_int(r, v, "stride", 2, 1);
    if (const Value* f = v.find("pool")) {
      const std::string pool = r.get_string(*f, "pool");
      p.kind = r.token_index(pool, "pool", {"max", "average"}) == 0
                   ? dnn::PoolKind::kMax
                   : dnn::PoolKind::kAverage;
    }
    if (p.in_h < p.k || p.in_w < p.k) {
      r.fail("pool window larger than the input");
    }
    layer = dnn::make_pool(name, p);
  } else {  // "recurrent"
    r.check_keys(v, {"kind", "name", "cell", "input_size", "hidden_size",
                     "time_steps", "x_bits", "w_bits"});
    dnn::RecurrentParams p;
    // "vanilla_rnn" is accepted as an alias of "rnn".
    const std::string cell = r.get_string(r.require(v, "cell"), "cell");
    p.cell = common::normalize_token(cell) == "vanillarnn" ||
                     r.token_index(cell, "cell", {"rnn", "lstm"}) == 0
                 ? dnn::RecurrentCellKind::kVanillaRnn
                 : dnn::RecurrentCellKind::kLstm;
    p.input_size = parse_dim(r, v, "input_size");
    p.hidden_size = parse_dim(r, v, "hidden_size");
    p.time_steps = parse_opt_int(r, v, "time_steps", 1, 1);
    layer = dnn::make_recurrent(name, p);
  }
  if (const Value* f = v.find("x_bits")) {
    layer.x_bits = parse_bits(r, *f, "x_bits");
  }
  if (const Value* f = v.find("w_bits")) {
    layer.w_bits = parse_bits(r, *f, "w_bits");
  }
  check_layer_scale(r, layer);
  return layer;
}

}  // namespace

bool is_bitwidth_policy(const std::string& policy) {
  // The codebase-wide token rule: case-insensitive, '-'/'_' ignored
  // (':' and digits pass through normalize_token untouched).
  const std::string norm = common::normalize_token(policy);
  if (norm == "firstlast8") return true;
  if (norm.rfind("uniform:", 0) == 0) {
    const std::string suffix = norm.substr(8);
    return suffix.size() == 1 && suffix[0] >= '1' && suffix[0] <= '8';
  }
  return false;
}

std::string unknown_bitwidth_policy(const std::string& policy) {
  return "unknown bitwidth_policy \"" + policy +
         "\"; expected \"uniform:<1..8>\" or \"first_last_8\"";
}

void apply_bitwidth_policy(dnn::Network& net, const std::string& policy) {
  if (!is_bitwidth_policy(policy)) {
    throw Error("network schema: " + unknown_bitwidth_policy(policy));
  }
  const std::string norm = common::normalize_token(policy);
  auto& layers = net.layers();
  if (norm.rfind("uniform:", 0) == 0) {
    const int bits = norm[8] - '0';
    for (dnn::Layer& l : layers) {
      l.x_bits = bits;
      l.w_bits = bits;
    }
    // Match the zoo's Table I wording for the regimes it names.
    net.set_bitwidth_note(bits == 8 ? "All layers 8-bit"
                                    : "All layers with " +
                                          std::to_string(bits) + "-bit");
    return;
  }
  // first_last_8: the zoo's heterogeneous CNN rule — boundary *compute*
  // layers 8-bit, everything else (pools included) 4-bit.
  int first = -1, last = -1;
  for (int i = 0; i < static_cast<int>(layers.size()); ++i) {
    if (!layers[i].is_compute()) continue;
    if (first < 0) first = i;
    last = i;
  }
  if (first < 0) {
    throw Error("network schema: bitwidth_policy \"first_last_8\" needs at "
                "least one compute layer in \"" +
                net.name() + "\"");
  }
  for (int i = 0; i < static_cast<int>(layers.size()); ++i) {
    const int bits = (i == first || i == last) ? 8 : 4;
    layers[i].x_bits = bits;
    layers[i].w_bits = bits;
  }
  net.set_bitwidth_note("First and last layer 8-bit, the rest 4-bit");
}

dnn::Network parse_network(const Value& root) {
  const FieldReader r("network schema");
  if (!root.is_object()) r.fail("document must be an object");
  r.check_keys(root,
               {"name", "type", "bitwidth_policy", "bitwidth_note", "layers"});
  const std::string name = r.get_string(r.require(root, "name"), "name");
  if (name.empty()) r.fail("\"name\" must be non-empty");
  const FieldReader named = r.in("\"" + name + "\"");

  dnn::NetworkType type = dnn::NetworkType::kCnn;
  if (const Value* f = root.find("type")) {
    const std::string t = r.get_string(*f, "type");
    type = r.token_index(t, "type", {"cnn", "rnn"}) == 0
               ? dnn::NetworkType::kCnn
               : dnn::NetworkType::kRnn;
  }

  const Value& layers = r.require(root, "layers");
  if (!layers.is_array() || layers.as_array().empty()) {
    named.fail("\"layers\" must be a non-empty array of layer objects");
  }

  dnn::Network net(name, type);
  // Per-layer explicit bits override the policy, so remember which
  // layers declared them before the policy pass rewrites everything.
  std::vector<std::pair<int, int>> explicit_bits;  // (x, w); -1 = unset
  std::unordered_set<std::string> seen_names;
  for (std::size_t i = 0; i < layers.as_array().size(); ++i) {
    const Value& lv = layers.as_array()[i];
    const std::string context = "layers[" + std::to_string(i) + "]";
    dnn::Layer layer = parse_layer(r.in(context), lv);
    if (!seen_names.insert(layer.name).second) {
      named.fail(context + ": duplicate layer name \"" + layer.name + "\"");
    }
    explicit_bits.emplace_back(
        lv.find("x_bits") != nullptr ? layer.x_bits : -1,
        lv.find("w_bits") != nullptr ? layer.w_bits : -1);
    net.add(std::move(layer));
  }

  if (const Value* f = root.find("bitwidth_policy")) {
    const std::string policy = r.get_string(*f, "bitwidth_policy");
    if (!is_bitwidth_policy(policy)) {
      named.fail(unknown_bitwidth_policy(policy));
    }
    apply_bitwidth_policy(net, policy);
    for (std::size_t i = 0; i < explicit_bits.size(); ++i) {
      if (explicit_bits[i].first >= 0) {
        net.layers()[i].x_bits = explicit_bits[i].first;
      }
      if (explicit_bits[i].second >= 0) {
        net.layers()[i].w_bits = explicit_bits[i].second;
      }
    }
  }
  if (const Value* f = root.find("bitwidth_note")) {
    net.set_bitwidth_note(r.get_string(*f, "bitwidth_note"));
  }
  return net;
}

dnn::Network load_network(const std::string& path) {
  try {
    return parse_network(common::json::parse_file(path));
  } catch (const Error& e) {
    const std::string what = e.what();
    if (what.find(path) != std::string::npos) throw;  // parse error: has path
    throw Error(path + ": " + what);
  }
}

common::json::Value to_json(const dnn::Network& net) {
  Value root = Value::object();
  root.set("name", net.name());
  root.set("type", net.type() == dnn::NetworkType::kRnn ? "rnn" : "cnn");
  if (!net.bitwidth_note().empty()) {
    root.set("bitwidth_note", net.bitwidth_note());
  }
  Value layers = Value::array();
  for (const dnn::Layer& l : net.layers()) {
    Value lv = Value::object();
    lv.set("kind", dnn::to_string(l.kind));
    lv.set("name", l.name);
    switch (l.kind) {
      case dnn::LayerKind::kConv: {
        const dnn::ConvParams& p = l.conv();
        lv.set("in_c", p.in_c);
        lv.set("in_h", p.in_h);
        lv.set("in_w", p.in_w);
        lv.set("out_c", p.out_c);
        lv.set("kh", p.kh);
        lv.set("kw", p.kw);
        lv.set("stride", p.stride);
        lv.set("pad", p.pad);
        break;
      }
      case dnn::LayerKind::kFullyConnected: {
        const dnn::FcParams& p = l.fc();
        lv.set("in_features", p.in_features);
        lv.set("out_features", p.out_features);
        break;
      }
      case dnn::LayerKind::kPool: {
        const dnn::PoolParams& p = l.pool();
        lv.set("channels", p.channels);
        lv.set("in_h", p.in_h);
        lv.set("in_w", p.in_w);
        lv.set("k", p.k);
        lv.set("stride", p.stride);
        lv.set("pool", p.kind == dnn::PoolKind::kAverage ? "average" : "max");
        break;
      }
      case dnn::LayerKind::kRecurrent: {
        const dnn::RecurrentParams& p = l.recurrent();
        lv.set("cell",
               p.cell == dnn::RecurrentCellKind::kLstm ? "lstm" : "rnn");
        lv.set("input_size", p.input_size);
        lv.set("hidden_size", p.hidden_size);
        lv.set("time_steps", p.time_steps);
        break;
      }
    }
    lv.set("x_bits", l.x_bits);
    lv.set("w_bits", l.w_bits);
    layers.push_back(std::move(lv));
  }
  root.set("layers", std::move(layers));
  return root;
}

std::uint64_t network_fingerprint(const dnn::Network& net, int time_chunk) {
  // Names (network and layer) are deliberately excluded: they label
  // results but never change pricing, so structural twins share every
  // engine cache entry (the engine restores per-scenario labels on
  // cached results).
  common::ConfigHash f;
  f.u64(net.layers().size());
  for (const dnn::Layer& layer : net.layers()) {
    f.u64(backend::layer_fingerprint(layer, time_chunk));
  }
  return f.h;
}

}  // namespace bpvec::workload
