// The bpvec_run driver: manifest in, priced scenarios + reports out.
//
// The driver is a thin front end over serve::Session, the same request
// path the resident daemon (Server) multiplexes. A batch invocation
// constructs a fresh Session (cold memo caches; the disk cache still
// persists), runs exactly one typed request, and prints: human-readable
// comparison table / CSV on stdout + a machine-readable JSON report on
// disk. That shared path is what makes the serve determinism contract
// enforceable: a served request and a CLI run are the same computation,
// so their report bytes must match.
//
// The JSON report is what tests/test_goldens diffs, so its contract
// matters (builders live in src/cli/report.h):
//   * The "scenarios" array is a pure function of the manifest — same
//     manifest, same build ⇒ byte-identical bytes, whatever the thread
//     count or cache state (the engine's bit-identity guarantee plus
//     the deterministic JSON writer).
//   * The "stats" block (engine + disk-cache counters) is run-dependent
//     by nature (cold vs warm). --deterministic-report omits it so two
//     runs can be compared with cmp(1); --stats-out writes it to its
//     own file so tests/test_goldens can still assert warm disk hits.
//
// All functions throw bpvec::Error on bad input; main_cli catches and
// prints it, so tools/bpvec_run.cpp stays a two-liner.
// The `search` subcommand (`bpvec_run search <manifest>`) runs the
// manifest's "search" block through the dse subsystem instead: candidates
// materialize from the typed ParamSpace, ride the same engine (and disk
// cache), and the report carries the Pareto frontier in its canonical
// order — also a pure function of the manifest under
// --deterministic-report, so tests/test_goldens compares it cold vs
// warm vs the committed golden.
//
// `--validate` dry-runs either mode: parse + expand, print the scenario
// count (or search-space size), price nothing.
//
// `bpvec_run list` prints the canonical token vocabularies (backends,
// platforms, memories, bitwidth modes, networks, workload generators,
// search knobs, metrics, strategies) so manifest authors never guess;
// `--network-file FILE` (repeatable, both modes) registers extra
// workload-schema networks for the invocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/cli/manifest.h"
#include "src/common/json.h"
#include "src/dse/search.h"
#include "src/engine/sim_engine.h"
#include "src/sim/simulator.h"

namespace bpvec::serve {

/// What one bpvec_run invocation does — resolved from the subcommand
/// and --validate at parse time (main_cli). Exactly one per invocation.
enum class Command {
  kPrice,           // default: price the manifest's grids
  kSearch,          // `search`: run the manifest's "search" block
  kList,            // `list`: print the token vocabularies
  kValidate,        // --validate: dry-run the grids
  kValidateSearch,  // `search --validate`: dry-run the search block
};

struct DriverOptions {
  std::string manifest_path;
  /// What to do (see Command). main_cli resolves the `search`/`list`
  /// subcommands and --validate into this single field.
  Command command = Command::kPrice;
  /// Workload-schema files registered into the NetworkRegistry before
  /// anything runs (--network-file, repeatable) — their names become
  /// valid manifest network tokens for this invocation.
  std::vector<std::string> network_files;
  /// Persistent result-cache directory (engine disk cache); empty = off.
  std::string cache_dir;
  /// Report output path; empty = "REPORT_<manifest name>.json" in the
  /// working directory.
  std::string report_path;
  /// When non-empty, the stats block is also written here as its own
  /// JSON document (useful with --deterministic-report).
  std::string stats_path;
  int threads = 0;               // <= 0: hardware concurrency
  bool print_table = true;       // scenario comparison table on stdout
  bool print_csv = false;        // scenario CSV on stdout
  bool write_report = true;
  bool deterministic_report = false;  // omit run-dependent "stats" block
};

struct DriverResult {
  cli::Manifest manifest;
  std::vector<engine::Scenario> scenarios;
  std::vector<sim::RunResult> results;
  engine::EngineStats stats;
  common::json::Value report;  // what was (or would be) written
  /// Search-mode outcome (frontier + every evaluation); absent in grid
  /// mode and under --validate.
  std::optional<dse::SearchOutcome> search;
};

/// Runs a manifest end to end (per DriverOptions::command) through a
/// fresh Session. `out` receives the table/CSV output.
DriverResult run_manifest(const DriverOptions& options, std::ostream& out);

/// Parses bpvec_run's argv (argv[0] is skipped) and runs. Usage errors
/// and bpvec::Errors print to `err` and return a nonzero exit code.
int main_cli(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err);

/// The usage text (also printed on --help / bad flags).
std::string usage();

/// Parses a whole flag value as a base-10 integer in [lo, hi]. Trailing
/// characters ("3x"), an empty value and a value out of range throw a
/// bpvec::Error that names `flag`. Shared by bpvec_run and bpvec_serve.
std::int64_t parse_int_flag(const std::string& flag, const std::string& value,
                            std::int64_t lo, std::int64_t hi);

}  // namespace bpvec::serve
