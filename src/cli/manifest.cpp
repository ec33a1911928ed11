#include "src/cli/manifest.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/backend/backend_registry.h"
#include "src/common/error.h"
#include "src/common/token.h"
#include "src/workload/network_registry.h"
#include "src/workload/schema.h"

namespace bpvec::cli {

using common::json::Value;

namespace {

// Tokens match under common::normalize_token (case, '-' and '_' ignored)
// so manifests can say "ResNet-18" or "resnet18", "tpu_like" or
// "TPU-like" — the rule every vocabulary shares.
using common::normalize_token;
using common::quoted_token_list;
using common::json::FieldReader;

FieldReader reader(std::string context = {}) {
  return FieldReader("manifest", std::move(context));
}

/// The enumerator `value` names in `tokens`, a token table indexed by
/// Enum (engine::platform_tokens(), engine::memory_tokens(),
/// dnn::bitwidth_mode_tokens()).
template <typename Enum>
Enum read_enum(const FieldReader& r, const std::string& value,
               const std::string& what,
               const std::vector<std::string>& tokens) {
  return static_cast<Enum>(r.token_index(value, what, tokens));
}

/// Fails naming `key` and the registered backends unless the live
/// BackendRegistry holds it.
void require_backend(const FieldReader& r, const std::string& key) {
  const auto& registry = backend::BackendRegistry::instance();
  if (!registry.contains(key)) {
    r.fail("unknown backend \"" + key + "\"; registered backends: " +
           quoted_token_list(registry.keys()));
  }
}

void apply_bitwidth_override(dnn::Network& net, const BitwidthOverride& o) {
  for (dnn::Layer& layer : net.layers()) {
    if (!layer.is_compute()) continue;
    layer.x_bits = o.x_bits;
    layer.w_bits = o.w_bits;
  }
}

/// The zoo builtin token that `name` names (normalized match), or
/// nullptr.
const std::string* builtin_named(const std::string& name) {
  const std::string norm = normalize_token(name);
  for (const std::string& b : workload::NetworkRegistry::builtin_tokens()) {
    if (normalize_token(b) == norm) return &b;
  }
  return nullptr;
}

/// The full network vocabulary for error messages: meta tokens, every
/// registered network, and the manifest's own (possibly not yet
/// registered) workload names.
std::vector<std::string> network_vocabulary(
    const std::vector<std::string>& workload_names) {
  std::vector<std::string> vocab{"all", "workloads"};
  for (const std::string& t : workload::NetworkRegistry::instance().tokens()) {
    vocab.push_back(t);
  }
  for (const std::string& n : workload_names) {
    if (!workload::NetworkRegistry::instance().contains(n)) {
      vocab.push_back(n);
    }
  }
  return vocab;
}

/// Resolves a networks axis to canonical registry tokens. Meta tokens:
/// "all" → the six zoo builtins, "workloads" → every network the
/// manifest's workloads block declares (each must be the sole entry).
/// `workload_names` are valid even before registration, so parsing has
/// no registry side effects.
std::vector<std::string> resolve_networks(
    const FieldReader& r, const std::vector<std::string>& names,
    const std::vector<std::string>& workload_names) {
  const auto& registry = workload::NetworkRegistry::instance();
  std::vector<std::string> out;
  for (const std::string& name : names) {
    const std::string norm = normalize_token(name);
    if (norm == "all") {
      if (names.size() != 1) {
        r.fail("\"all\" must be the only entry in \"networks\"");
      }
      return workload::NetworkRegistry::builtin_tokens();
    }
    if (norm == "workloads") {
      if (names.size() != 1) {
        r.fail("\"workloads\" must be the only entry in \"networks\"");
      }
      if (workload_names.empty()) {
        r.fail("\"workloads\" needs a non-empty manifest \"workloads\" "
               "block");
      }
      return workload_names;
    }
    if (auto key = registry.canonical_key(name)) {
      out.push_back(*key);
      continue;
    }
    const auto it = std::find_if(
        workload_names.begin(), workload_names.end(),
        [&](const std::string& w) { return normalize_token(w) == norm; });
    if (it != workload_names.end()) {
      out.push_back(*it);
      continue;
    }
    r.fail("unknown network \"" + name + "\"; expected one of " +
           quoted_token_list(network_vocabulary(workload_names)));
  }
  return out;
}

/// The omitted-key default mode (homogeneous8b) rewrites every layer to
/// 8/8 — right for the zoo's Table I regimes, but it would silently
/// discard a custom network's declared bitwidths (flattening e.g. a
/// generator bitwidth_policy sweep into identical scenarios). Make the
/// author choose. `key` is the block's mode key: the grid's
/// "bitwidth_modes" list or the search's "bitwidth_mode" string.
void require_mode_for_custom_networks(const FieldReader& r,
                                      const Value& block,
                                      const std::string& key,
                                      const std::vector<std::string>& nets) {
  if (block.find(key) != nullptr) return;
  const bool grid = key == "bitwidth_modes";
  const auto value = [&](const std::string& mode) {
    return grid ? "[\"" + mode + "\"]" : "\"" + mode + "\"";
  };
  for (const std::string& net : nets) {
    if (builtin_named(net) != nullptr) continue;
    r.fail("network \"" + net + "\" has declared bitwidths, but the " +
           (grid ? "grid" : "search") + " omits \"" + key +
           "\" and the default (homogeneous8b) would rewrite every layer "
           "to 8-bit; set \"" + key + "\" to " + value("heterogeneous") +
           " to keep the declared bits (or " + value("homogeneous8b") +
           " to mean it)");
  }
}

// ----- overrides ------------------------------------------------------

/// A knob's value, read as the type dse's knob table gives it.
double read_knob(const FieldReader& r, dse::Knob knob, const Value& v) {
  const std::string key = dse::to_string(knob);
  if (dse::knob_type(knob) == dse::KnobType::kInt) return r.get_int(v, key);
  if (dse::knob_type(knob) == dse::KnobType::kNumber) {
    return r.get_number(v, key);
  }
  // Knob values are doubles: integers past 2^53 would round silently.
  constexpr std::int64_t kExact = std::int64_t{1} << 53;
  const std::int64_t i = r.get_int64(v, key);
  if (i > kExact || i < -kExact) {
    r.fail("\"" + key + "\" out of range (beyond 2^53, which a knob value "
           "cannot hold exactly)");
  }
  return static_cast<double>(i);
}

/// A grid's "platform_overrides" or "memory_overrides" block (`key`): the
/// settings of the scope's `knobs`, in that order.
std::vector<dse::KnobSetting> parse_overrides(
    const FieldReader& r, const Value& v, const std::string& key,
    const std::vector<dse::Knob>& knobs) {
  if (!v.is_object()) r.fail("\"" + key + "\" must be an object");
  std::vector<std::string> allowed;
  for (const dse::Knob knob : knobs) allowed.emplace_back(dse::to_string(knob));
  r.check_keys(v, allowed);
  std::vector<dse::KnobSetting> settings;
  for (const dse::Knob knob : knobs) {
    if (const Value* f = v.find(dse::to_string(knob))) {
      settings.push_back({knob, read_knob(r, knob, *f)});
    }
  }
  return settings;
}

BitwidthOverride parse_bitwidth_override(const FieldReader& r,
                                         const Value& v) {
  if (!v.is_object()) r.fail("\"bitwidth_override\" must be an object");
  r.check_keys(v, {"x_bits", "w_bits"});
  BitwidthOverride o;
  o.x_bits = r.get_int(r.require(v, "x_bits"), "x_bits");
  o.w_bits = r.get_int(r.require(v, "w_bits"), "w_bits");
  if (o.x_bits < 1 || o.x_bits > 8 || o.w_bits < 1 || o.w_bits > 8) {
    r.fail("bitwidth_override bits must be in [1, 8]");
  }
  return o;
}

GridSpec parse_grid(const FieldReader& r, const Value& v,
                    const std::vector<std::string>& workload_names) {
  if (!v.is_object()) r.fail("grid must be an object");
  r.check_keys(v, {"backends", "platforms", "memories", "networks",
                   "bitwidth_modes", "platform_overrides", "memory_overrides",
                   "bitwidth_override", "id_suffix"});
  GridSpec g;
  if (const Value* f = v.find("backends")) {
    g.backends = r.get_string_list(*f, "backends");
  }
  const std::vector<std::string> platforms =
      r.get_string_list(r.require(v, "platforms"), "platforms");
  const std::vector<std::string> memories =
      r.get_string_list(r.require(v, "memories"), "memories");
  const std::vector<std::string> networks =
      r.get_string_list(r.require(v, "networks"), "networks");
  std::vector<std::string> modes;  // absent: GridSpec's default
  if (const Value* f = v.find("bitwidth_modes")) {
    modes = r.get_string_list(*f, "bitwidth_modes");
  }
  std::vector<dse::KnobSetting> platform_overrides, memory_overrides;
  if (const Value* f = v.find("platform_overrides")) {
    platform_overrides =
        parse_overrides(r, *f, "platform_overrides", dse::platform_knobs());
  }
  if (const Value* f = v.find("memory_overrides")) {
    memory_overrides =
        parse_overrides(r, *f, "memory_overrides", dse::memory_knobs());
  }
  if (const Value* f = v.find("bitwidth_override")) {
    g.bitwidth_override = parse_bitwidth_override(r, *f);
  }
  if (const Value* f = v.find("id_suffix")) {
    g.id_suffix = r.get_string(*f, "id_suffix");
  }

  // Resolve every axis now — errors should name the manifest problem,
  // not surface later as an engine failure. engine::platform_config and
  // engine::make_memory build the configs, as they do for make_scenario,
  // so a token can never resolve to different configs. Backends are
  // checked against the registry when the workloads register instead
  // (custom backends may be registered between parse and expand).
  for (const std::string& p : platforms) {
    g.platforms.push_back(engine::platform_config(read_enum<engine::Platform>(
        r, p, "platform", engine::platform_tokens())));
  }
  for (const std::string& m : memories) {
    g.memories.push_back(engine::make_memory(read_enum<engine::Memory>(
        r, m, "memory", engine::memory_tokens())));
  }
  g.networks = resolve_networks(r, networks, workload_names);
  require_mode_for_custom_networks(r, v, "bitwidth_modes", g.networks);
  if (!modes.empty()) g.bitwidth_modes.clear();
  for (const std::string& m : modes) {
    g.bitwidth_modes.push_back(read_enum<dnn::BitwidthMode>(
        r, m, "bitwidth mode", dnn::bitwidth_mode_tokens()));
  }
  for (const std::string& b : g.backends) {
    if (b.empty()) r.fail("backend keys must be non-empty");
  }

  // A platform knob sets no memory field and a memory knob no platform
  // field, so each axis applies its overrides beside a throwaway of the
  // other.
  for (sim::AcceleratorConfig& config : g.platforms) {
    arch::DramModel unused;
    for (const dse::KnobSetting& k : platform_overrides) {
      dse::apply_knob(k.knob, k.value, config, unused);
    }
    try {
      config.validate();
    } catch (const Error& e) {
      r.fail(std::string("platform_overrides produce an invalid platform: ") +
             e.what());
    }
  }
  for (arch::DramModel& memory : g.memories) {
    sim::AcceleratorConfig unused;
    for (const dse::KnobSetting& k : memory_overrides) {
      dse::apply_knob(k.knob, k.value, unused, memory);
    }
    if (!memory.valid()) {
      r.fail("memory_overrides produce an invalid memory system");
    }
  }
  return g;
}

std::string grid_context(std::size_t index) {
  return "grids[" + std::to_string(index) + "]";
}

// ----- workloads block ------------------------------------------------

std::string workload_context(std::size_t index) {
  return "workloads[" + std::to_string(index) + "]";
}

/// `file` against the manifest's directory (absolute paths and an empty
/// base_dir pass through).
std::string resolve_workload_path(const std::string& base_dir,
                                  const std::string& file) {
  if (base_dir.empty() || file.empty() || file.front() == '/') return file;
  return base_dir + "/" + file;
}

/// Generator knob lists: a positive integer, or a non-empty array of
/// positive integers.
std::vector<int> parse_knob_list(const FieldReader& r, const Value& v,
                                 const std::string& key) {
  std::vector<int> out;
  if (v.is_int()) {
    out.push_back(r.get_int(v, key));
  } else if (v.is_array() && !v.as_array().empty()) {
    for (const Value& e : v.as_array()) out.push_back(r.get_int(e, key));
  } else {
    r.fail("\"" + key + "\" must be a positive integer or a non-empty "
           "array of positive integers");
  }
  for (int i : out) {
    if (i < 1) {
      r.fail("\"" + key + "\" values must be positive, got " +
             std::to_string(i));
    }
  }
  return out;
}

WorkloadSpec parse_workload(const FieldReader& r, const Value& v,
                            const std::string& base_dir) {
  if (!v.is_object()) r.fail("workload must be an object");
  WorkloadSpec w;
  const bool has_file = v.find("file") != nullptr;
  const bool has_inline = v.find("network") != nullptr;
  const bool has_generator = v.find("generator") != nullptr;
  if (has_file + has_inline + has_generator != 1) {
    r.fail("workload needs exactly one of \"file\", \"network\", or "
           "\"generator\"");
  }
  if (has_file) {
    r.check_keys(v, {"file"});
    w.kind = WorkloadSpec::Kind::kFile;
    w.file = r.get_string(v.at("file"), "file");
    if (w.file.empty()) r.fail("\"file\" must be non-empty");
    w.prototypes.push_back(r.nest([&] {
      return workload::load_network(resolve_workload_path(base_dir, w.file));
    }));
    w.names.push_back(w.prototypes.back().name());
    return w;
  }
  if (has_inline) {
    r.check_keys(v, {"network"});
    w.kind = WorkloadSpec::Kind::kInline;
    w.prototypes.push_back(
        r.nest([&] { return workload::parse_network(v.at("network")); }));
    w.names.push_back(w.prototypes.back().name());
    return w;
  }
  r.check_keys(v, {"generator", "depth", "width", "bitwidth_policy"});
  w.kind = WorkloadSpec::Kind::kGenerator;
  w.generator = r.token(r.get_string(v.at("generator"), "generator"),
                        "workload generator", workload::generator_tokens());
  if (const Value* f = v.find("depth")) {
    w.depths = parse_knob_list(r, *f, "depth");
  }
  if (const Value* f = v.find("width")) {
    w.widths = parse_knob_list(r, *f, "width");
  }
  if (const Value* f = v.find("bitwidth_policy")) {
    w.policies = f->is_string()
                     ? std::vector<std::string>{f->as_string()}
                     : r.get_string_list(*f, "bitwidth_policy");
    for (const std::string& p : w.policies) {
      if (!workload::is_bitwidth_policy(p)) {
        r.fail(workload::unknown_bitwidth_policy(p));
      }
    }
  }
  // Cross product, depth-outermost (manifest knob order) — 0 means the
  // family default, resolved inside the generator.
  const std::vector<int> depths = w.depths.empty() ? std::vector<int>{0}
                                                   : w.depths;
  const std::vector<int> widths = w.widths.empty() ? std::vector<int>{0}
                                                   : w.widths;
  const std::vector<std::string> policies =
      w.policies.empty() ? std::vector<std::string>{""} : w.policies;
  for (int depth : depths) {
    for (int width : widths) {
      for (const std::string& policy : policies) {
        workload::GeneratorSpec spec{w.generator, depth, width, policy, ""};
        w.prototypes.push_back(
            r.nest([&] { return workload::generate(spec); }));
        w.names.push_back(w.prototypes.back().name());
      }
    }
  }
  return w;
}

/// Every name the manifest's workloads block declares, declaration
/// order (what the "workloads" meta token expands to).
std::vector<std::string> workload_names_of(const Manifest& manifest) {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : manifest.workloads) {
    names.insert(names.end(), w.names.begin(), w.names.end());
  }
  return names;
}

std::vector<WorkloadSpec> parse_workloads(const Value& v,
                                          const std::string& base_dir) {
  if (!v.is_array() || v.as_array().empty()) {
    reader().fail("\"workloads\" must be a non-empty array of workload "
                  "objects");
  }
  std::vector<WorkloadSpec> out;
  std::vector<std::string> seen;  // normalized names, across entries
  for (std::size_t i = 0; i < v.as_array().size(); ++i) {
    const FieldReader r = reader(workload_context(i));
    WorkloadSpec w = parse_workload(r, v.as_array()[i], base_dir);
    for (const std::string& name : w.names) {
      const std::string norm = normalize_token(name);
      if (std::find(seen.begin(), seen.end(), norm) != seen.end()) {
        r.fail("duplicate workload name \"" + name + "\"");
      }
      // Colliding with a zoo builtin would shadow every manifest that
      // names the token; registration would throw later, but the error
      // is clearer with the workload entry named.
      if (const std::string* b = builtin_named(name)) {
        r.fail("workload name \"" + name +
               "\" collides with the builtin network \"" + *b + "\"");
      }
      seen.push_back(norm);
    }
    out.push_back(std::move(w));
  }
  return out;
}

// ----- search block ---------------------------------------------------

dse::ParamSpace parse_search_space(const FieldReader& r, const Value& v) {
  if (!v.is_object() || v.members().empty()) {
    r.fail("\"space\" must be a non-empty object mapping knob names to "
           "value arrays");
  }
  std::vector<dse::Axis> axes;
  for (const auto& [key, values] : v.members()) {
    const auto knob = dse::knob_from_token(key);
    if (!knob) {
      r.fail("unknown knob \"" + key + "\"; valid knobs: " +
             quoted_token_list(dse::knob_tokens()));
    }
    if (!values.is_array() || values.as_array().empty()) {
      r.fail("knob \"" + key + "\" must map to a non-empty array of "
             "numbers");
    }
    dse::Axis axis;
    axis.knob = *knob;
    for (const Value& e : values.as_array()) {
      if (!e.is_number()) {
        r.fail("knob \"" + key + "\" has a non-numeric value");
      }
      // An int64 knob's integers past 2^53 fail as in grid overrides
      // instead of rounding; other values ParamSpace checks below.
      const bool int64 = dse::knob_type(*knob) == dse::KnobType::kInt64;
      axis.values.push_back(int64 && e.is_int() ? read_knob(r, *knob, e)
                                                : e.as_double());
    }
    axes.push_back(std::move(axis));
  }
  // Build the ParamSpace now so its errors carry manifest context
  // (duplicate knobs, integral knobs with fractional values…).
  return r.nest([&] {
    dse::ParamSpace space;
    for (dse::Axis& a : axes) space.add_axis(a.knob, std::move(a.values));
    return space;
  });
}

std::vector<dse::Objective> parse_objectives(const FieldReader& r,
                                             const Value& v) {
  if (!v.is_array() || v.as_array().empty()) {
    r.fail("\"objectives\" must be a non-empty array");
  }
  std::vector<dse::Objective> objectives;
  for (const Value& e : v.as_array()) {
    dse::Objective o;
    std::string token;
    if (e.is_string()) {
      token = e.as_string();
    } else if (e.is_object()) {
      r.check_keys(e, {"metric", "maximize"});
      token = r.get_string(r.require(e, "metric"), "metric");
    } else {
      r.fail("objectives must be metric names or {\"metric\", "
             "\"maximize\"} objects");
    }
    const auto metric = dse::metric_from_token(token);
    if (!metric) {
      r.fail("unknown metric \"" + token + "\"; valid metrics: " +
             quoted_token_list(dse::metric_tokens()));
    }
    o.metric = *metric;
    o.maximize = dse::default_maximize(*metric);
    if (const Value* m = e.find("maximize")) {
      o.maximize = r.get_bool(*m, "maximize");
    }
    for (const dse::Objective& seen : objectives) {
      if (seen.metric == o.metric) {
        r.fail("duplicate objective \"" + token + "\"");
      }
    }
    objectives.push_back(o);
  }
  return objectives;
}

dse::Constraints parse_constraints(const FieldReader& r, const Value& v) {
  if (!v.is_object()) r.fail("\"constraints\" must be an object");
  r.check_keys(v, {"min_utilization", "max_power_w", "max_energy_j",
                   "max_runtime_s", "max_cycles"});
  dse::Constraints c;
  if (const Value* f = v.find("min_utilization")) {
    c.min_utilization = r.get_number(*f, "min_utilization");
    if (*c.min_utilization < 0.0 || *c.min_utilization > 1.0) {
      r.fail("\"min_utilization\" must be in [0, 1]");
    }
  }
  // The max_* caps must be positive: a zero or negative cap marks every
  // candidate infeasible, which can only be a typo.
  if (const Value* f = v.find("max_power_w")) {
    c.max_power_w = r.get_number(*f, "max_power_w");
    if (*c.max_power_w <= 0.0) r.fail("\"max_power_w\" must be positive");
  }
  if (const Value* f = v.find("max_energy_j")) {
    c.max_energy_j = r.get_number(*f, "max_energy_j");
    if (*c.max_energy_j <= 0.0) r.fail("\"max_energy_j\" must be positive");
  }
  if (const Value* f = v.find("max_runtime_s")) {
    c.max_runtime_s = r.get_number(*f, "max_runtime_s");
    if (*c.max_runtime_s <= 0.0) r.fail("\"max_runtime_s\" must be positive");
  }
  if (const Value* f = v.find("max_cycles")) {
    c.max_cycles = r.get_int64(*f, "max_cycles");
    if (*c.max_cycles <= 0) r.fail("\"max_cycles\" must be positive");
  }
  return c;
}

std::vector<core::BitwidthMixEntry> parse_mix(const FieldReader& r,
                                              const Value& v) {
  if (!v.is_array() || v.as_array().empty()) {
    r.fail("\"mix\" must be a non-empty array");
  }
  std::vector<core::BitwidthMixEntry> mix;
  for (const Value& e : v.as_array()) {
    if (!e.is_object()) r.fail("mix entries must be objects");
    r.check_keys(e, {"x_bits", "w_bits", "weight"});
    core::BitwidthMixEntry m;
    m.x_bits = r.get_int(r.require(e, "x_bits"), "x_bits");
    m.w_bits = r.get_int(r.require(e, "w_bits"), "w_bits");
    if (m.x_bits < 1 || m.x_bits > 8 || m.w_bits < 1 || m.w_bits > 8) {
      r.fail("mix bitwidths must be in [1, 8]");
    }
    if (const Value* w = e.find("weight")) {
      m.weight = r.get_number(*w, "weight");
      if (m.weight <= 0.0) r.fail("mix weights must be positive");
    }
    mix.push_back(m);
  }
  return mix;
}

workload::GeneratorSpec parse_search_workload(const FieldReader& r,
                                              const Value& v) {
  if (!v.is_object()) r.fail("\"workload\" must be an object");
  r.check_keys(v, {"generator", "depth", "width", "bitwidth_policy"});
  workload::GeneratorSpec spec;
  spec.family = r.token(r.get_string(r.require(v, "generator"), "generator"),
                        "workload generator", workload::generator_tokens());
  if (const Value* f = v.find("depth")) {
    spec.depth = r.get_int(*f, "depth");
    if (spec.depth < 1) r.fail("\"depth\" must be positive");
  }
  if (const Value* f = v.find("width")) {
    spec.width = r.get_int(*f, "width");
    if (spec.width < 1) r.fail("\"width\" must be positive");
  }
  if (const Value* f = v.find("bitwidth_policy")) {
    spec.bitwidth_policy = r.get_string(*f, "bitwidth_policy");
    if (!workload::is_bitwidth_policy(spec.bitwidth_policy)) {
      r.fail(workload::unknown_bitwidth_policy(spec.bitwidth_policy));
    }
  }
  // Validate the resolved knobs now (range errors carry search context).
  (void)r.nest([&] { return workload::generated_name(spec); });
  return spec;
}

SearchSpec parse_search(const Value& v,
                        const std::vector<std::string>& workload_names) {
  if (!v.is_object()) reader().fail("\"search\" must be an object");
  const FieldReader r = reader("search");
  r.check_keys(v, {"backend", "platform", "memory", "network", "workload",
                   "bitwidth_mode", "bitwidth_override", "space", "strategy",
                   "budget", "seed", "restarts", "population", "objectives",
                   "constraints", "mix"});
  SearchSpec s;
  if (const Value* f = v.find("backend")) {
    s.backend = r.get_string(*f, "backend");
    if (s.backend.empty()) r.fail("backend key must be non-empty");
  }
  if (const Value* f = v.find("platform")) {
    s.platform = read_enum<engine::Platform>(
        r, r.get_string(*f, "platform"), "platform", engine::platform_tokens());
  }
  if (const Value* f = v.find("memory")) {
    s.memory = read_enum<engine::Memory>(r, r.get_string(*f, "memory"),
                                         "memory", engine::memory_tokens());
  }
  if (const Value* f = v.find("workload")) {
    if (v.find("network") != nullptr) {
      r.fail("\"network\" and \"workload\" are mutually exclusive (the "
             "workload generator is the network)");
    }
    if (v.find("bitwidth_mode") != nullptr) {
      r.fail("\"bitwidth_mode\" does not apply to a \"workload\" generator "
             "(its bitwidth_policy owns the bits)");
    }
    if (v.find("bitwidth_override") != nullptr) {
      // net_* axes regenerate the network per candidate, which would
      // silently drop a post-hoc override; the generator's
      // bitwidth_policy (and the net_bits axis) own the bits instead.
      r.fail("\"bitwidth_override\" does not apply to a \"workload\" "
             "generator (set its bitwidth_policy, or sweep \"net_bits\")");
    }
    s.workload = parse_search_workload(r, *f);
  } else {
    const std::string n = r.get_string(r.require(v, "network"), "network");
    const std::vector<std::string> resolved =
        resolve_networks(r, {n}, workload_names);
    if (resolved.size() != 1) {
      r.fail("\"network\" must name a single network (not \"" + n + "\")");
    }
    s.network = resolved.front();
    require_mode_for_custom_networks(r, v, "bitwidth_mode", resolved);
  }
  if (const Value* f = v.find("bitwidth_mode")) {
    s.bitwidth_mode = read_enum<dnn::BitwidthMode>(
        r, r.get_string(*f, "bitwidth_mode"), "bitwidth mode",
        dnn::bitwidth_mode_tokens());
  }
  if (const Value* f = v.find("bitwidth_override")) {
    s.bitwidth_override = parse_bitwidth_override(r, *f);
  }
  s.space = parse_search_space(r, r.require(v, "space"));
  for (const dse::Axis& a : s.space.axes()) {
    if (!dse::is_workload_knob(a.knob)) continue;
    if (!s.workload) {
      r.fail(std::string("knob \"") + dse::to_string(a.knob) +
             "\" needs a \"workload\" generator block");
    }
    // Range-check every axis value against the family's own caps now —
    // a bad value must fail --validate, not abort the search mid-run
    // after budget was spent. generated_name runs the generator's full
    // knob validation without building a network.
    for (double value : a.values) {
      workload::GeneratorSpec probe = *s.workload;
      try {
        dse::apply_workload_knob(a.knob, value, probe);
      } catch (const Error& e) {
        r.fail(std::string("knob ") + e.what());
      }
      try {
        (void)workload::generated_name(probe);
      } catch (const Error& e) {
        r.fail(std::string("knob \"") + dse::to_string(a.knob) + "\" value " +
               dse::knob_value_string(a.knob, value) + ": " + e.what());
      }
    }
  }
  if (const Value* f = v.find("strategy")) {
    s.strategy = r.token(r.get_string(*f, "strategy"), "strategy",
                         dse::strategy_tokens());
  }
  if (const Value* f = v.find("budget")) {
    const int b = r.get_int(*f, "budget");
    if (b <= 0) r.fail("\"budget\" must be positive");
    s.budget = static_cast<std::size_t>(b);
  }
  if (s.budget == 0 && (s.strategy == "random" || s.strategy == "annealing" ||
                        s.strategy == "genetic")) {
    r.fail("strategy \"" + s.strategy +
           "\" requires a \"budget\" (its proposal count)");
  }
  if (const Value* f = v.find("seed")) {
    if (!f->is_int() || f->as_int() < 0) {
      r.fail("\"seed\" must be a non-negative integer");
    }
    s.seed = static_cast<std::uint64_t>(f->as_int());
  }
  if (const Value* f = v.find("restarts")) {
    const int n = r.get_int(*f, "restarts");
    if (n <= 0) r.fail("\"restarts\" must be positive");
    s.restarts = static_cast<std::size_t>(n);
  }
  if (const Value* f = v.find("population")) {
    const int p = r.get_int(*f, "population");
    if (p < 2) r.fail("\"population\" must be at least 2");
    s.population = static_cast<std::size_t>(p);
  }
  if (const Value* f = v.find("objectives")) {
    s.objectives = parse_objectives(r, *f);
  }
  if (const Value* f = v.find("constraints")) {
    s.constraints = parse_constraints(r, *f);
  }
  if (const Value* f = v.find("mix")) s.mix = parse_mix(r, *f);
  return s;
}

}  // namespace

Manifest parse_manifest(const Value& root, const std::string& base_dir) {
  const FieldReader r = reader();
  if (!root.is_object()) r.fail("document must be an object");
  r.check_keys(root, {"name", "description", "workloads", "grids", "search"});
  Manifest m;
  m.name = r.get_string(r.require(root, "name"), "name");
  if (m.name.empty()) r.fail("\"name\" must be non-empty");
  if (const Value* d = root.find("description")) {
    m.description = r.get_string(*d, "description");
  }
  // Workloads first: grid/search network tokens may name them.
  if (const Value* workloads = root.find("workloads")) {
    m.workloads = parse_workloads(*workloads, base_dir);
  }
  const std::vector<std::string> workload_names = workload_names_of(m);
  if (const Value* grids = root.find("grids")) {
    if (!grids->is_array() || grids->as_array().empty()) {
      r.fail("\"grids\" must be a non-empty array");
    }
    for (std::size_t i = 0; i < grids->as_array().size(); ++i) {
      m.grids.push_back(parse_grid(reader(grid_context(i)),
                                   grids->as_array()[i], workload_names));
    }
  }
  if (const Value* search = root.find("search")) {
    m.search = parse_search(*search, workload_names);
  }
  if (m.grids.empty() && !m.search) {
    r.fail("manifest needs \"grids\", a \"search\" block, or both");
  }
  return m;
}

Manifest load_manifest(const std::string& path) {
  // Relative workload "file" paths resolve against the manifest's own
  // directory, so a manifest is runnable from any working directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  try {
    return parse_manifest(common::json::parse_file(path), base_dir);
  } catch (const Error& e) {
    const std::string what = e.what();
    if (what.find(path) != std::string::npos) throw;  // parse error: has path
    throw Error(path + ": " + what);
  }
}

common::json::Value to_json(const SearchSpec& s) {
  Value sv = Value::object();
  sv.set("backend", s.backend);
  sv.set("platform", engine::to_string(s.platform));
  sv.set("memory", engine::to_string(s.memory));
  if (s.workload) {
    Value wv = Value::object();
    wv.set("generator", s.workload->family);
    if (s.workload->depth > 0) wv.set("depth", s.workload->depth);
    if (s.workload->width > 0) wv.set("width", s.workload->width);
    if (!s.workload->bitwidth_policy.empty()) {
      wv.set("bitwidth_policy", s.workload->bitwidth_policy);
    }
    sv.set("workload", std::move(wv));
  } else {
    sv.set("network", s.network);
    sv.set("bitwidth_mode", dnn::to_string(s.bitwidth_mode));
  }
  if (s.bitwidth_override) {
    Value o = Value::object();
    o.set("x_bits", s.bitwidth_override->x_bits);
    o.set("w_bits", s.bitwidth_override->w_bits);
    sv.set("bitwidth_override", std::move(o));
  }
  Value space = Value::object();
  for (const dse::Axis& axis : s.space.axes()) {
    Value values = Value::array();
    for (double v : axis.values) {
      // Integer knobs as JSON integers, as manifests write them.
      if (dse::knob_is_integer(axis.knob)) {
        values.push_back(static_cast<std::int64_t>(std::llround(v)));
      } else {
        values.push_back(v);
      }
    }
    space.set(dse::to_string(axis.knob), std::move(values));
  }
  sv.set("space", std::move(space));
  sv.set("strategy", s.strategy);
  if (s.budget > 0) sv.set("budget", static_cast<std::int64_t>(s.budget));
  sv.set("seed", static_cast<std::int64_t>(s.seed));
  sv.set("restarts", static_cast<std::int64_t>(s.restarts));
  // Only genetic reads "population" — emitting it unconditionally would
  // churn the echoed spec in every non-genetic search report.
  if (s.strategy == "genetic") {
    sv.set("population", static_cast<std::int64_t>(s.population));
  }
  Value objectives = Value::array();
  for (const dse::Objective& o : s.objectives) {
    Value ov = Value::object();
    ov.set("metric", dse::to_string(o.metric));
    ov.set("maximize", o.maximize);
    objectives.push_back(std::move(ov));
  }
  sv.set("objectives", std::move(objectives));
  if (s.constraints.any()) {
    Value cv = Value::object();
    const dse::Constraints& c = s.constraints;
    if (c.min_utilization) cv.set("min_utilization", *c.min_utilization);
    if (c.max_power_w) cv.set("max_power_w", *c.max_power_w);
    if (c.max_energy_j) cv.set("max_energy_j", *c.max_energy_j);
    if (c.max_runtime_s) cv.set("max_runtime_s", *c.max_runtime_s);
    if (c.max_cycles) cv.set("max_cycles", *c.max_cycles);
    sv.set("constraints", std::move(cv));
  }
  if (!s.mix.empty()) {
    Value mix = Value::array();
    for (const core::BitwidthMixEntry& m : s.mix) {
      Value mv = Value::object();
      mv.set("x_bits", m.x_bits);
      mv.set("w_bits", m.w_bits);
      mv.set("weight", m.weight);
      mix.push_back(std::move(mv));
    }
    sv.set("mix", std::move(mix));
  }
  return sv;
}

std::vector<std::string> register_workloads(const Manifest& manifest) {
  // Every backend key first: a manifest the registry rejects must leave
  // the process-wide NetworkRegistry as it found it.
  for (std::size_t gi = 0; gi < manifest.grids.size(); ++gi) {
    for (const std::string& b : manifest.grids[gi].backends) {
      require_backend(reader(grid_context(gi)), b);
    }
  }
  if (manifest.search) {
    require_backend(reader("search"), manifest.search->backend);
  }
  // All workloads in one batch, so a collision on a later one leaves no
  // earlier one registered.
  std::vector<workload::NetworkRegistry::Prototype> batch;
  std::vector<std::size_t> owner;  // batch index → workloads[] index
  for (std::size_t wi = 0; wi < manifest.workloads.size(); ++wi) {
    const WorkloadSpec& w = manifest.workloads[wi];
    for (std::size_t i = 0; i < w.prototypes.size(); ++i) {
      batch.push_back({w.names[i], w.prototypes[i]});
      owner.push_back(wi);
    }
  }
  std::vector<std::string> names;
  for (const auto& p : batch) names.push_back(p.key);
  std::size_t failed = 0;
  try {
    workload::NetworkRegistry::instance().register_networks(std::move(batch),
                                                            &failed);
  } catch (const Error& e) {
    reader(workload_context(owner[failed])).fail(e.what());
  }
  return names;
}

std::vector<engine::Scenario> expand(const Manifest& manifest) {
  (void)register_workloads(manifest);
  auto& networks = workload::NetworkRegistry::instance();
  std::vector<engine::Scenario> scenarios;
  for (const GridSpec& g : manifest.grids) {
    for (const dnn::BitwidthMode mode : g.bitwidth_modes) {
      for (const std::string& net_token : g.networks) {
        dnn::Network net = networks.create(net_token, mode);
        if (g.bitwidth_override) {
          apply_bitwidth_override(net, *g.bitwidth_override);
        }
        for (const sim::AcceleratorConfig& platform : g.platforms) {
          for (const arch::DramModel& memory : g.memories) {
            for (const std::string& backend : g.backends) {
              engine::Scenario s = engine::make_scenario(
                  backend, platform, memory, net, /*id=*/"");
              s.id += g.id_suffix;
              scenarios.push_back(std::move(s));
            }
          }
        }
      }
    }
  }
  return scenarios;
}

dse::ParamSpace search_space(const SearchSpec& spec) { return spec.space; }

engine::Scenario search_base_scenario(const SearchSpec& spec) {
  const FieldReader r = reader("search");
  require_backend(r, spec.backend);
  dnn::Network net = r.nest([&] {
    // A generator's bitwidth_policy owns the bits; no mode applies.
    return spec.workload ? workload::generate(*spec.workload)
                         : workload::NetworkRegistry::instance().create(
                               spec.network, spec.bitwidth_mode);
  });
  if (spec.bitwidth_override) {
    apply_bitwidth_override(net, *spec.bitwidth_override);
  }
  return engine::make_scenario(spec.backend, spec.platform, spec.memory,
                               std::move(net), /*id=*/"");
}

}  // namespace bpvec::cli
