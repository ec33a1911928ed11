// Typed request/response shapes for the serving layer. A resident
// Session accepts them over and over on one warm engine:
//
//   PriceRequest     the manifest's grids through SimEngine::run_batch
//   SearchRequest    the manifest's "search" block through src/dse
//   ValidateRequest  parse + expand, price nothing (either mode)
//
// Every request carries a parsed cli::Manifest — the identical shape
// the batch CLI builds from a file — so a served request and a CLI run
// are the same computation by construction. The Response carries the
// exact report document (built by src/cli/report, the shared report
// contract) plus two EngineStats blocks:
//
//   delta   what THIS request did to the shared engine (snapshot
//           before/after, subtracted). A warm repeat request shows
//           simulations_run == 0 here even though the fleet has priced
//           thousands of scenarios. With concurrent requests in flight
//           the snapshots overlap (each delta sees every counter tick
//           between its two snapshots); serial requests are exact.
//   fleet   the engine's cumulative counters after the request — the
//           whole session's history, what a fleet operator monitors.
//
// Cancellation is cooperative: a CancelToken is a shared flag the
// Session checks between engine batches (price batches, search rounds).
// Cancelling never poisons the engine — everything priced before the
// check landed in the caches normally and stays valid, so the engine
// is immediately reusable (tested).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cli/manifest.h"
#include "src/common/json.h"
#include "src/dse/search.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/sim/simulator.h"

namespace bpvec::serve {

/// Shared cooperative-cancellation flag. Copies observe the same flag;
/// default-constructed tokens are live (not cancelled). Thread-safe:
/// any thread may cancel() while the request runs elsewhere.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Price the manifest's grids (the batch CLI's default mode).
struct PriceRequest {
  cli::Manifest manifest;
  /// Omit the run-dependent "stats" block from the report, so identical
  /// requests yield byte-identical documents (the determinism contract:
  /// tests/test_goldens compares them with the batch CLI's golden).
  bool deterministic_report = false;
};

/// Run the manifest's "search" block (the `search` subcommand).
struct SearchRequest {
  cli::Manifest manifest;
  bool deterministic_report = false;
};

/// Dry-run: parse + expand, price nothing, write nothing.
struct ValidateRequest {
  cli::Manifest manifest;
  /// Validate the "search" block instead of the grids.
  bool search = false;
};

/// What every Session call returns. Fields are populated per operation;
/// unused ones stay default (report: JSON null, vectors empty).
struct Response {
  /// The exact report document the batch CLI would have written for the
  /// same manifest (price/search; null for validate/list/cancelled).
  /// Serialize with dump(1) to reproduce the CLI's report bytes.
  common::json::Value report;
  /// Human-readable output (validate summaries, list vocabularies) —
  /// exactly what the CLI prints for the same invocation.
  std::string text;
  /// This request's engine work (after - before snapshots).
  engine::EngineStats delta;
  /// The shared engine's cumulative counters after this request.
  engine::EngineStats fleet;
  /// Wall-clock seconds spent serving this request.
  double wall_s = 0.0;
  /// The request's CancelToken fired before completion. No report; the
  /// engine keeps everything priced so far and stays reusable.
  bool cancelled = false;
  // Price mode: the expanded scenarios and their results, input order
  // (the driver's table/CSV printers consume these; the daemon ignores
  // them — the report carries the same numbers).
  std::vector<engine::Scenario> scenarios;
  std::vector<sim::RunResult> results;
  /// Search mode: the full outcome (frontier + every evaluation).
  std::optional<dse::SearchOutcome> search;
};

}  // namespace bpvec::serve
