#include "src/serve/driver.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

#include "src/cli/report.h"
#include "src/common/error.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/serve/session.h"

namespace bpvec::serve {

using common::json::Value;

namespace {

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.flush();
  if (!out.good()) throw Error("cannot write file: " + path);
}

/// Disk-cache trouble counters for the summary line. Empty in the normal
/// case — rejected entries (corrupt/stale cache contents re-priced) and
/// store failures (results that could not be persisted) only ever appear
/// when there is something for an operator to look at.
std::string disk_trouble_summary(const engine::EngineStats& stats) {
  std::string out;
  if (stats.disk_rejected > 0) {
    out += ", " + std::to_string(stats.disk_rejected) + " disk rejects";
  }
  if (stats.disk_store_failures > 0) {
    out += ", " + std::to_string(stats.disk_store_failures) +
           " store failures";
  }
  return out;
}

void print_table(std::ostream& out,
                 const std::vector<engine::Scenario>& batch,
                 const std::vector<sim::RunResult>& results) {
  // The measured column appears only when some backend in the batch
  // actually executed layers (functional scenarios); modeled-only
  // batches keep the historical table shape.
  bool any_measured = false;
  for (const sim::RunResult& r : results) {
    if (r.measured_macs > 0) any_measured = true;
  }
  Table t;
  std::vector<std::string> header{"Scenario",    "Cycles", "Latency (ms)",
                                  "Energy (mJ)", "GOps/s", "GOps/W"};
  if (any_measured) header.push_back("Measured (ms)");
  t.set_header(header);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const sim::RunResult& r = results[i];
    std::vector<std::string> row{
        batch[i].id,                       std::to_string(r.total_cycles),
        Table::num(r.runtime_s * 1e3, 3),  Table::num(r.energy_j * 1e3, 3),
        Table::num(r.gops_per_s, 0),       Table::num(r.gops_per_w, 0)};
    if (any_measured) {
      row.push_back(r.measured_macs > 0
                        ? Table::num(r.measured_wall_s * 1e3, 3)
                        : "-");
    }
    t.add_row(row);
  }
  out << t.to_string();
}

void print_csv(std::ostream& out,
               const std::vector<engine::Scenario>& batch,
               const std::vector<sim::RunResult>& results) {
  // Full-precision CSV (the table rounds for humans; this is for
  // plotting scripts).
  out << "id,backend,platform,network,memory,total_cycles,total_macs,"
         "runtime_s,energy_j,average_power_w,gops_per_s,gops_per_w,"
         "measured_wall_s,measured_macs\n";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const sim::RunResult& r = results[i];
    std::string id = batch[i].id;
    for (char& c : id) {
      if (c == ',') c = ';';  // ids are free text; keep the CSV parsable
    }
    out << id << ',' << r.backend << ',' << r.platform << ',' << r.network
        << ',' << r.memory << ',' << r.total_cycles << ',' << r.total_macs
        << ',' << common::json::format_double(r.runtime_s) << ','
        << common::json::format_double(r.energy_j) << ','
        << common::json::format_double(r.average_power_w) << ','
        << common::json::format_double(r.gops_per_s) << ','
        << common::json::format_double(r.gops_per_w) << ','
        << common::json::format_double(r.measured_wall_s) << ','
        << r.measured_macs << '\n';
  }
}

// ----- search mode ----------------------------------------------------

std::string metric_cell(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

void print_frontier_table(std::ostream& out, const dse::ParamSpace& space,
                          const dse::SearchOutcome& outcome) {
  Table t;
  std::vector<std::string> header{"#", "Candidate"};
  for (const dse::Objective& o : outcome.objectives) {
    header.push_back(std::string(dse::to_string(o.metric)) +
                     (o.maximize ? " (max)" : " (min)"));
  }
  t.set_header(header);
  const std::vector<dse::Evaluation> frontier = outcome.frontier.sorted();
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    std::vector<std::string> row{std::to_string(i + 1),
                                 space.label(frontier[i].candidate)};
    for (double v : frontier[i].objectives) row.push_back(metric_cell(v));
    t.add_row(row);
  }
  out << t.to_string();
}

void print_search_csv(std::ostream& out, const dse::ParamSpace& space,
                      const dse::SearchOutcome& outcome) {
  // Every evaluation (not just the frontier), full precision, proposal
  // order — the plotting-script view of the whole search.
  out << "id";
  for (const dse::Axis& a : space.axes()) out << ',' << dse::to_string(a.knob);
  out << ",feasible,total_cycles,total_macs,runtime_s,energy_j,"
         "average_power_w,gops_per_s,gops_per_w,mac_power,mac_area,"
         "utilization,core_area_um2\n";
  for (const dse::Evaluation& e : outcome.evaluations) {
    BPVEC_CHECK(e.result != nullptr);
    const sim::RunResult& r = *e.result;
    std::string id = e.id;
    for (char& c : id) {
      if (c == ',') c = ';';
    }
    out << id;
    for (std::size_t a = 0; a < space.num_axes(); ++a) {
      out << ','
          << dse::knob_value_string(space.axes()[a].knob,
                                    space.value(e.candidate, a));
    }
    out << ',' << (e.feasible ? 1 : 0) << ',' << r.total_cycles << ','
        << r.total_macs << ',' << common::json::format_double(r.runtime_s)
        << ',' << common::json::format_double(r.energy_j) << ','
        << common::json::format_double(r.average_power_w) << ','
        << common::json::format_double(r.gops_per_s) << ','
        << common::json::format_double(r.gops_per_w) << ','
        << common::json::format_double(e.design.cost.power_total()) << ','
        << common::json::format_double(e.design.cost.area_total()) << ','
        << common::json::format_double(e.design.mix_utilization) << ','
        << common::json::format_double(e.core_area_um2) << '\n';
  }
}

/// Search mode's summary line and frontier table (below the shared
/// "Manifest:" header) and its CSV.
void print_search(const DriverOptions& options, const DriverResult& result,
                  std::ostream& out) {
  const cli::SearchSpec& spec = *result.manifest.search;
  const dse::ParamSpace space = cli::search_space(spec);
  const dse::SearchOutcome& outcome = *result.search;
  if (options.print_table) {
    out << "search: " << spec.strategy << " over " << space.size()
        << " candidates — " << outcome.candidates << " evaluated ("
        << outcome.unique_candidates << " unique, " << outcome.infeasible
        << " infeasible, " << result.stats.simulations_run << " simulated, "
        << result.stats.cache_hits << " memo hits, "
        << result.stats.disk_hits << " disk hits"
        << disk_trouble_summary(result.stats) << ")\n"
        << "Pareto frontier: " << outcome.frontier.size()
        << " non-dominated candidates\n\n";
    print_frontier_table(out, space, outcome);
  }
  if (options.print_csv) print_search_csv(out, space, outcome);
}

/// Price mode's summary line and scenario table (below the shared
/// "Manifest:" header) and its CSV.
void print_grid(const DriverOptions& options, const DriverResult& result,
                std::ostream& out) {
  if (options.print_table) {
    out << result.scenarios.size() << " scenarios ("
        << result.stats.simulations_run << " simulated, "
        << result.stats.cache_hits << " memo hits, "
        << result.stats.disk_hits << " disk hits"
        << disk_trouble_summary(result.stats) << ")\n\n";
    print_table(out, result.scenarios, result.results);
  }
  if (options.print_csv) print_csv(out, result.scenarios, result.results);
}

}  // namespace

DriverResult run_manifest(const DriverOptions& options, std::ostream& out) {
  DriverResult result;
  // One fresh Session per invocation — batch semantics (cold memo
  // caches; the disk cache still persists across runs). The daemon
  // keeps a Session alive instead; both run the same request path.
  SessionOptions session_options;
  session_options.threads = options.threads;
  session_options.cache_dir = options.cache_dir;
  Session session(session_options);
  // Extra networks first: their tokens must be valid when the manifest
  // parses. Registration is idempotent for identical files.
  for (const std::string& file : options.network_files) {
    session.register_network_file(file);
  }
  if (options.command == Command::kList) {
    out << session.list().text;
    return result;
  }
  result.manifest = cli::load_manifest(options.manifest_path);

  const bool search = options.command == Command::kSearch ||
                      options.command == Command::kValidateSearch;
  if (search && !result.manifest.search) {
    throw Error(options.manifest_path +
                ": manifest has no \"search\" block (omit the search "
                "subcommand to run its grids)");
  }
  if (!search && result.manifest.grids.empty()) {
    throw Error(options.manifest_path +
                ": manifest has no grids (use `bpvec_run search` for its "
                "\"search\" block)");
  }

  if (options.command == Command::kValidate ||
      options.command == Command::kValidateSearch) {
    ValidateRequest request;
    request.manifest = result.manifest;
    request.search = search;
    Response response = session.validate(request);
    result.scenarios = std::move(response.scenarios);
    out << response.text;
    return result;
  }

  Response response;
  if (search) {
    SearchRequest request;
    request.manifest = result.manifest;
    request.deterministic_report = options.deterministic_report;
    response = session.search(request);
    result.search = std::move(response.search);
  } else {
    PriceRequest request;
    request.manifest = result.manifest;
    request.deterministic_report = options.deterministic_report;
    response = session.price(request);
    result.scenarios = std::move(response.scenarios);
    result.results = std::move(response.results);
  }
  // The session is fresh, so the per-request delta equals the engine's
  // totals.
  result.stats = response.delta;
  result.report = std::move(response.report);

  if (options.print_table) {
    out << "Manifest: " << result.manifest.name;
    if (!result.manifest.description.empty()) {
      out << " — " << result.manifest.description;
    }
    out << "\n";
  }
  if (search) {
    print_search(options, result, out);
  } else {
    print_grid(options, result, out);
  }
  if (options.write_report) {
    const std::string path =
        options.report_path.empty()
            ? "REPORT_" + result.manifest.name + ".json"
            : options.report_path;
    write_file(path, result.report.dump(1));
    if (options.print_table) out << "\n[bpvec_run] wrote " << path << "\n";
  }
  if (!options.stats_path.empty()) {
    write_file(options.stats_path, engine::to_json(result.stats).dump(1));
    if (options.print_table) {
      out << "[bpvec_run] wrote " << options.stats_path << "\n";
    }
  }
  return result;
}

std::string usage() {
  return
      "usage: bpvec_run [search | list] <manifest.json> [options]\n"
      "\n"
      "Prices every scenario in the manifest through the batch engine and\n"
      "writes a machine-readable JSON report.\n"
      "\n"
      "subcommands:\n"
      "  search             run the manifest's \"search\" block: explore its\n"
      "                     knob space with the configured strategy\n"
      "                     (grid | random | hill_climb | annealing |\n"
      "                     genetic) and report the Pareto frontier over\n"
      "                     its objectives\n"
      "  list               print the canonical token vocabularies\n"
      "                     (backends, platforms, memories, bitwidth modes,\n"
      "                     networks, workload generators, search knobs,\n"
      "                     metrics, strategies) — no manifest needed\n"
      "\n"
      "options:\n"
      "  --network-file FILE\n"
      "                     register a workload-schema network (repeatable);\n"
      "                     its name becomes a valid manifest network token\n"
      "                     and shows up in `list`\n"
      "  --validate         dry run: parse + expand, print the scenario\n"
      "                     count (or search-space size), price nothing\n"
      "  --cache-dir DIR    persistent result cache: scenarios priced in any\n"
      "                     earlier run (same build, same configs) are served\n"
      "                     from disk, bit-identically\n"
      "  --report FILE      report path (default REPORT_<name>.json)\n"
      "  --no-report        skip the JSON report\n"
      "  --stats-out FILE   write engine/disk-cache counters to FILE\n"
      "  --deterministic-report\n"
      "                     omit the run-dependent stats block from the\n"
      "                     report so identical configs yield byte-identical\n"
      "                     files (the determinism contract)\n"
      "  --threads N        N pool workers (default: hardware concurrency);\n"
      "                     the calling thread computes too, so N + 1\n"
      "                     chunks can run at once\n"
      "  --csv              print a full-precision scenario CSV to stdout\n"
      "  --no-table         skip the human-readable table\n"
      "  --version          print build identity (SIMD variant, disk-cache\n"
      "                     format, compiler) as JSON and exit\n"
      "  --help             this text\n";
}

std::int64_t parse_int_flag(const std::string& flag, const std::string& value,
                            std::int64_t lo, std::int64_t hi) {
  std::int64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [p, ec] = std::from_chars(value.data(), end, v);
  if (ec == std::errc::invalid_argument || p != end) {
    throw Error(flag + " expects an integer, got \"" + value + "\"");
  }
  // On overflow `v` is unset; the sign says which bound was passed.
  const bool overflow = ec == std::errc::result_out_of_range;
  if (v > hi || (overflow && value[0] != '-')) {
    throw Error(flag + " must be at most " + std::to_string(hi) + ", got " +
                value);
  }
  if (v < lo || overflow) {
    throw Error(flag + " must be at least " + std::to_string(lo) + ", got " +
                value);
  }
  return v;
}

int main_cli(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  DriverOptions options;
  // Parse-time subcommand state, resolved into the one Command below.
  bool search_sub = false;
  bool list_sub = false;
  bool validate = false;
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      throw Error(std::string(flag) + " requires a value");
    }
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        out << usage();
        return 0;
      } else if (arg == "--version") {
        out << cli::version_json().dump(1) << "\n";
        return 0;
      } else if (arg == "search" && options.manifest_path.empty() &&
                 !search_sub) {
        if (list_sub) {
          throw Error("`list` and `search` are mutually exclusive "
                      "subcommands");
        }
        search_sub = true;
      } else if (arg == "list" && options.manifest_path.empty() &&
                 !list_sub) {
        if (search_sub) {
          throw Error("`list` and `search` are mutually exclusive "
                      "subcommands");
        }
        list_sub = true;
      } else if (arg == "--network-file") {
        options.network_files.push_back(need_value(i, "--network-file"));
      } else if (arg == "--validate") {
        validate = true;
      } else if (arg == "--cache-dir") {
        options.cache_dir = need_value(i, "--cache-dir");
      } else if (arg == "--report") {
        options.report_path = need_value(i, "--report");
      } else if (arg == "--no-report") {
        options.write_report = false;
      } else if (arg == "--stats-out") {
        options.stats_path = need_value(i, "--stats-out");
      } else if (arg == "--deterministic-report") {
        options.deterministic_report = true;
      } else if (arg == "--threads") {
        options.threads = static_cast<int>(
            parse_int_flag("--threads", need_value(i, "--threads"),
                           std::numeric_limits<int>::min(),
                           common::ThreadPool::kMaxThreads));
      } else if (arg == "--csv") {
        options.print_csv = true;
      } else if (arg == "--no-table") {
        options.print_table = false;
      } else if (!arg.empty() && arg[0] == '-') {
        throw Error("unknown flag: " + arg);
      } else if (options.manifest_path.empty()) {
        options.manifest_path = arg;
      } else {
        throw Error("more than one manifest given: " + arg);
      }
    }
    if (options.manifest_path.empty() && !list_sub) {
      err << usage();
      return 2;
    }
    if (list_sub && !options.manifest_path.empty()) {
      throw Error("`list` takes no manifest");
    }
    // Resolve subcommand + --validate into the single typed Command
    // (`list --validate` is a plain list).
    if (list_sub) {
      options.command = Command::kList;
    } else if (search_sub) {
      options.command =
          validate ? Command::kValidateSearch : Command::kSearch;
    } else {
      options.command = validate ? Command::kValidate : Command::kPrice;
    }
    (void)run_manifest(options, out);
    return 0;
  } catch (const std::exception& e) {
    err << "bpvec_run: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace bpvec::serve
