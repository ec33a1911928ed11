// ParamSpace — the typed design space behind the DSE subsystem.
//
// The paper's Fig. 4 sweeps two knobs (CVU slice width α × vector length
// L); a real accelerator search also has platform knobs (array shape,
// scratchpad, batch size, frequency) and memory knobs (bandwidth, access
// energy). A ParamSpace unifies all of them as an ordered list of typed
// axes, each naming a knob and its candidate values. A Candidate picks
// one value per axis; materialize() applies those picks to a base
// engine::Scenario, so candidates ride SimEngine::run_batch and every
// cache layer below it.
//
// Enumeration order is canonical: flat index → candidate is row-major
// with the *first* axis outermost, so a space with axes [cvu_slice_bits,
// cvu_lanes] enumerates in the Fig. 4 order (slice widths outer, lanes
// inner).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/arch/dram.h"
#include "src/engine/scenario.h"
#include "src/sim/config.h"
#include "src/workload/generators.h"

namespace bpvec::dse {

/// Every knob a ParamSpace axis can vary. The tokens (to_string /
/// knob_from_token) are also the keys of a manifest grid's
/// "platform_overrides" / "memory_overrides" ("cvu_slice_bits",
/// "bandwidth_gbps", …), which set configs through apply_knob, so a
/// search manifest reads like a grid manifest with values pluralized
/// into axes. The enum order is hashed by candidate_key: append only.
enum class Knob {
  // CVU geometry (the Fig. 4 axes).
  kCvuSliceBits,
  kCvuMaxBits,
  kCvuLanes,
  // Platform knobs (sim::AcceleratorConfig).
  kRows,
  kCols,
  kScratchpadBytes,
  kFrequencyHz,
  kTimeChunk,
  kBatchSize,
  kStaticCoreMw,
  // Memory knobs (arch::DramModel).
  kMemBandwidthGbps,
  kMemEnergyPjPerBit,
  kMemStartupLatencyNs,
  kMemBackgroundPowerW,
  // Workload knobs (workload::GeneratorSpec — the generated-network
  // family axes). Materializing a candidate that picks one of these
  // regenerates the scenario's network from the search's generator, so
  // a search can sweep depth/width/bitwidth the same way it sweeps
  // rows or bandwidth.
  kNetDepth,
  kNetWidth,
  kNetBits,  // bitwidth_policy "uniform:<bits>"
};

const char* to_string(Knob knob);

/// How a knob's value reads from a manifest: an int, an int64
/// (scratchpad_bytes) or any number.
enum class KnobType { kInt, kInt64, kNumber };
KnobType knob_type(Knob knob);

/// True for knobs whose values must be integers (bits, lanes, rows, …).
bool knob_is_integer(Knob knob);

/// True for the net_* knobs, which set a workload::GeneratorSpec.
bool is_workload_knob(Knob knob);

/// The knobs a grid's "platform_overrides" (CVU and platform knobs) and
/// "memory_overrides" accept, in the order manifests list and emit them.
const std::vector<Knob>& platform_knobs();
const std::vector<Knob>& memory_knobs();

/// One knob fixed to one value, e.g. a grid override "rows": 4.
struct KnobSetting {
  Knob knob = Knob::kRows;
  double value = 0.0;
};

/// Sets the platform or memory field `knob` names to `value` (integer
/// knobs rounded to nearest). Validates nothing; workload knobs set
/// neither config.
void apply_knob(Knob knob, double value, sim::AcceleratorConfig& platform,
                arch::DramModel& memory);

/// Sets the generator field a net_* knob names (net_bits becomes the
/// policy "uniform:<bits>"). Throws bpvec::Error
/// `"<knob>" values must be positive, got <v>` for a value below 1: 0
/// means "family default" inside GeneratorSpec, so it would silently
/// duplicate the default network under a misleading label.
void apply_workload_knob(Knob knob, double value,
                         workload::GeneratorSpec& spec);

/// Resolves a manifest token (case-insensitive, '-'/'_' ignored) to a
/// knob; nullopt when unknown.
std::optional<Knob> knob_from_token(const std::string& token);

/// Every valid knob token, in declaration order (for error messages).
const std::vector<std::string>& knob_tokens();

/// One axis: a knob and its candidate values, in search order.
struct Axis {
  Knob knob = Knob::kCvuSliceBits;
  std::vector<double> values;
};

/// One point of the space: an index into each axis's value list.
struct Candidate {
  std::vector<std::size_t> choice;  // choice[a] indexes axes()[a].values
};

class ParamSpace {
 public:
  /// Appends an axis. Throws bpvec::Error on a duplicate knob, an empty
  /// value list, or non-integral values for an integer knob.
  void add_axis(Knob knob, std::vector<double> values);

  const std::vector<Axis>& axes() const { return axes_; }
  std::size_t num_axes() const { return axes_.size(); }

  /// Cross-product cardinality (0 only for a space with no axes... a
  /// space must have ≥1 axis to be searched; axes are never empty).
  std::size_t size() const;

  /// Canonical enumeration: flat index → candidate, row-major with the
  /// first axis outermost. at(flat_index(c)) == c.
  Candidate at(std::size_t flat) const;
  std::size_t flat_index(const Candidate& c) const;

  /// The chosen value on axis `axis`.
  double value(const Candidate& c, std::size_t axis) const;
  /// The chosen value for `knob`, or nullopt when no axis varies it.
  std::optional<double> value(const Candidate& c, Knob knob) const;

  /// Order-sensitive 64-bit key over the chosen (knob, value) pairs —
  /// stable across processes; used for duplicate detection and
  /// deterministic tie-breaking in frontier ordering.
  std::uint64_t candidate_key(const Candidate& c) const;

  /// "knob=value" pairs in axis order, e.g.
  /// "cvu_slice_bits=2 cvu_lanes=16 batch_size=4".
  std::string label(const Candidate& c) const;

  /// Applies every chosen knob to a copy of `base`, re-validates the
  /// platform config, and appends " [label]" to the scenario id (ids
  /// must be unique per candidate for reports). Throws bpvec::Error when
  /// the picks produce an invalid platform or memory system.
  ///
  /// `generator` supplies the workload family when the space has
  /// net_depth/net_width/net_bits axes: the chosen values override the
  /// spec's knobs (net_bits becomes policy "uniform:<bits>") and the
  /// regenerated network replaces base.network. A space with workload
  /// axes but no generator throws.
  engine::Scenario materialize(
      const Candidate& c, const engine::Scenario& base,
      const workload::GeneratorSpec* generator = nullptr) const;

  /// Allocation-lean materialize: writes the candidate scenario into
  /// `out` (which must not alias `base`). Copy-assignment into a reused
  /// buffer keeps the string/vector capacities of the previous candidate
  /// alive, so a search's per-candidate construction cost stops paying
  /// for fresh heap churn (ScenarioEvaluator reuses one buffer per batch
  /// slot). Identical semantics and errors to materialize().
  void materialize_into(const Candidate& c, const engine::Scenario& base,
                        const workload::GeneratorSpec* generator,
                        engine::Scenario& out) const;

 private:
  std::vector<Axis> axes_;
};

/// Formats an axis value the way labels and reports print it (integer
/// knobs without a decimal point, doubles shortest-round-trip).
std::string knob_value_string(Knob knob, double value);

}  // namespace bpvec::dse
