#include "src/dse/param_space.h"

#include <cmath>
#include <utility>

#include "src/common/error.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/token.h"

namespace bpvec::dse {

namespace {

struct KnobInfo {
  Knob knob;
  const char* token;
  KnobType type;
};

const KnobInfo kKnobs[] = {
    {Knob::kCvuSliceBits, "cvu_slice_bits", KnobType::kInt},
    {Knob::kCvuMaxBits, "cvu_max_bits", KnobType::kInt},
    {Knob::kCvuLanes, "cvu_lanes", KnobType::kInt},
    {Knob::kRows, "rows", KnobType::kInt},
    {Knob::kCols, "cols", KnobType::kInt},
    {Knob::kScratchpadBytes, "scratchpad_bytes", KnobType::kInt64},
    {Knob::kFrequencyHz, "frequency_hz", KnobType::kNumber},
    {Knob::kTimeChunk, "time_chunk", KnobType::kInt},
    {Knob::kBatchSize, "batch_size", KnobType::kInt},
    {Knob::kStaticCoreMw, "static_core_mw", KnobType::kNumber},
    {Knob::kMemBandwidthGbps, "bandwidth_gbps", KnobType::kNumber},
    {Knob::kMemEnergyPjPerBit, "energy_pj_per_bit", KnobType::kNumber},
    {Knob::kMemStartupLatencyNs, "startup_latency_ns", KnobType::kNumber},
    {Knob::kMemBackgroundPowerW, "background_power_w", KnobType::kNumber},
    {Knob::kNetDepth, "net_depth", KnobType::kInt},
    {Knob::kNetWidth, "net_width", KnobType::kInt},
    {Knob::kNetBits, "net_bits", KnobType::kInt},
};

const KnobInfo& info(Knob knob) {
  for (const KnobInfo& k : kKnobs) {
    if (k.knob == knob) return k;
  }
  throw Error("unknown knob enum value");
}

bool is_integral(double v) {
  return std::isfinite(v) && v == std::floor(v);
}

}  // namespace

const char* to_string(Knob knob) { return info(knob).token; }

KnobType knob_type(Knob knob) { return info(knob).type; }

bool knob_is_integer(Knob knob) {
  return knob_type(knob) != KnobType::kNumber;
}

bool is_workload_knob(Knob knob) {
  return knob == Knob::kNetDepth || knob == Knob::kNetWidth ||
         knob == Knob::kNetBits;
}

const std::vector<Knob>& platform_knobs() {
  static const std::vector<Knob> knobs{
      Knob::kRows,         Knob::kCols,         Knob::kScratchpadBytes,
      Knob::kFrequencyHz,  Knob::kTimeChunk,    Knob::kBatchSize,
      Knob::kStaticCoreMw, Knob::kCvuSliceBits, Knob::kCvuMaxBits,
      Knob::kCvuLanes};
  return knobs;
}

const std::vector<Knob>& memory_knobs() {
  static const std::vector<Knob> knobs{
      Knob::kMemBandwidthGbps, Knob::kMemEnergyPjPerBit,
      Knob::kMemStartupLatencyNs, Knob::kMemBackgroundPowerW};
  return knobs;
}

void apply_knob(Knob knob, double value, sim::AcceleratorConfig& platform,
                arch::DramModel& memory) {
  const auto i = [value] { return static_cast<int>(std::llround(value)); };
  switch (knob) {
    case Knob::kCvuSliceBits: platform.cvu.slice_bits = i(); break;
    case Knob::kCvuMaxBits: platform.cvu.max_bits = i(); break;
    case Knob::kCvuLanes: platform.cvu.lanes = i(); break;
    case Knob::kRows: platform.rows = i(); break;
    case Knob::kCols: platform.cols = i(); break;
    case Knob::kScratchpadBytes:
      platform.scratchpad_bytes = std::llround(value);
      break;
    case Knob::kFrequencyHz: platform.frequency_hz = value; break;
    case Knob::kTimeChunk: platform.time_chunk = i(); break;
    case Knob::kBatchSize: platform.batch_size = i(); break;
    case Knob::kStaticCoreMw: platform.static_core_mw = value; break;
    case Knob::kMemBandwidthGbps: memory.bandwidth_gbps = value; break;
    case Knob::kMemEnergyPjPerBit: memory.energy_pj_per_bit = value; break;
    case Knob::kMemStartupLatencyNs: memory.startup_latency_ns = value; break;
    case Knob::kMemBackgroundPowerW: memory.background_power_w = value; break;
    case Knob::kNetDepth:
    case Knob::kNetWidth:
    case Knob::kNetBits:
      break;  // apply_workload_knob sets these
  }
}

void apply_workload_knob(Knob knob, double value,
                         workload::GeneratorSpec& spec) {
  const int v = static_cast<int>(std::llround(value));
  if (v < 1) {
    throw Error(std::string("\"") + to_string(knob) +
                "\" values must be positive, got " + std::to_string(v));
  }
  switch (knob) {
    case Knob::kNetDepth: spec.depth = v; break;
    case Knob::kNetWidth: spec.width = v; break;
    case Knob::kNetBits:
      spec.bitwidth_policy = "uniform:" + std::to_string(v);
      break;
    default: break;
  }
}

std::optional<Knob> knob_from_token(const std::string& token) {
  const std::string norm = common::normalize_token(token);
  for (const KnobInfo& k : kKnobs) {
    if (common::normalize_token(k.token) == norm) return k.knob;
  }
  return std::nullopt;
}

const std::vector<std::string>& knob_tokens() {
  static const std::vector<std::string> tokens = [] {
    std::vector<std::string> t;
    for (const KnobInfo& k : kKnobs) t.emplace_back(k.token);
    return t;
  }();
  return tokens;
}

std::string knob_value_string(Knob knob, double value) {
  if (knob_is_integer(knob)) {
    return std::to_string(static_cast<std::int64_t>(std::llround(value)));
  }
  return common::json::format_double(value);
}

void ParamSpace::add_axis(Knob knob, std::vector<double> values) {
  for (const Axis& a : axes_) {
    if (a.knob == knob) {
      throw Error(std::string("ParamSpace: duplicate axis \"") +
                  to_string(knob) + "\"");
    }
  }
  if (values.empty()) {
    throw Error(std::string("ParamSpace: axis \"") + to_string(knob) +
                "\" has no values");
  }
  for (double v : values) {
    if (!std::isfinite(v)) {
      throw Error(std::string("ParamSpace: axis \"") + to_string(knob) +
                  "\" has a non-finite value");
    }
    if (knob_is_integer(knob) && !is_integral(v)) {
      throw Error(std::string("ParamSpace: axis \"") + to_string(knob) +
                  "\" requires integer values, got " +
                  common::json::format_double(v));
    }
  }
  axes_.push_back(Axis{knob, std::move(values)});
}

std::size_t ParamSpace::size() const {
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const Axis& a : axes_) {
    BPVEC_CHECK_MSG(n <= SIZE_MAX / a.values.size(),
                    "ParamSpace: cross-product size overflows");
    n *= a.values.size();
  }
  return n;
}

Candidate ParamSpace::at(std::size_t flat) const {
  BPVEC_CHECK_MSG(flat < size(), "ParamSpace: flat index out of range");
  Candidate c;
  c.choice.resize(axes_.size());
  // Row-major, first axis outermost: peel from the innermost (last) axis.
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const std::size_t n = axes_[a].values.size();
    c.choice[a] = flat % n;
    flat /= n;
  }
  return c;
}

std::size_t ParamSpace::flat_index(const Candidate& c) const {
  BPVEC_CHECK(c.choice.size() == axes_.size());
  std::size_t flat = 0;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    BPVEC_CHECK(c.choice[a] < axes_[a].values.size());
    flat = flat * axes_[a].values.size() + c.choice[a];
  }
  return flat;
}

double ParamSpace::value(const Candidate& c, std::size_t axis) const {
  BPVEC_CHECK(axis < axes_.size());
  BPVEC_CHECK(c.choice.size() == axes_.size());
  BPVEC_CHECK(c.choice[axis] < axes_[axis].values.size());
  return axes_[axis].values[c.choice[axis]];
}

std::optional<double> ParamSpace::value(const Candidate& c, Knob knob) const {
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    if (axes_[a].knob == knob) return value(c, a);
  }
  return std::nullopt;
}

std::uint64_t ParamSpace::candidate_key(const Candidate& c) const {
  common::ConfigHash h;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    h.u64(static_cast<std::uint64_t>(axes_[a].knob));
    h.f64(value(c, a));
  }
  return h.h;
}

std::string ParamSpace::label(const Candidate& c) const {
  std::string out;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    if (a) out += ' ';
    out += to_string(axes_[a].knob);
    out += '=';
    out += knob_value_string(axes_[a].knob, value(c, a));
  }
  return out;
}

engine::Scenario ParamSpace::materialize(
    const Candidate& c, const engine::Scenario& base,
    const workload::GeneratorSpec* generator) const {
  engine::Scenario s;
  materialize_into(c, base, generator, s);
  return s;
}

void ParamSpace::materialize_into(const Candidate& c,
                                  const engine::Scenario& base,
                                  const workload::GeneratorSpec* generator,
                                  engine::Scenario& out) const {
  engine::Scenario& s = out;
  s = base;
  // Workload axes first: the regenerated network replaces base.network
  // wholesale, so platform/memory knob application order is unaffected.
  bool regenerate = false;
  workload::GeneratorSpec spec;
  if (generator != nullptr) spec = *generator;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    if (!is_workload_knob(axes_[a].knob)) continue;
    if (generator == nullptr) {
      throw Error(std::string("ParamSpace: axis \"") +
                  to_string(axes_[a].knob) +
                  "\" needs a workload generator (give the search a "
                  "\"workload\" block)");
    }
    regenerate = true;
    try {
      apply_workload_knob(axes_[a].knob, value(c, a), spec);
    } catch (const Error& e) {
      throw Error(std::string("ParamSpace: axis ") + e.what());
    }
  }
  if (regenerate) {
    spec.name.clear();  // the derived name must encode the chosen knobs
    try {
      s.network = workload::generate(spec);
    } catch (const Error& e) {
      throw Error("ParamSpace: candidate [" + label(c) +
                  "] produces an invalid workload: " + e.what());
    }
  }
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    apply_knob(axes_[a].knob, value(c, a), s.platform, s.memory);
  }
  try {
    s.platform.validate();
  } catch (const Error& e) {
    throw Error("ParamSpace: candidate [" + label(c) +
                "] produces an invalid platform: " + e.what());
  }
  if (!s.memory.valid()) {
    throw Error("ParamSpace: candidate [" + label(c) +
                "] produces an invalid memory system");
  }
  s.id = base.id;
  s.id += " [";
  s.id += label(c);
  s.id += ']';
}

}  // namespace bpvec::dse
