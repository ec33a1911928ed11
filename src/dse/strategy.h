// Pluggable search strategies over a ParamSpace.
//
// A strategy is a proposal engine: the search driver repeatedly asks it
// for the next batch of candidates (propose), prices them, and hands the
// evaluations back (observe). All built-ins are deterministic — random
// choices flow through Rng::fork keyed on stable indices (draw index,
// chain × step, generation × slot), never on thread identity or wall
// clock — so a search is a pure function of (space, strategy, seed,
// budget). Batch size never changes which candidates a strategy
// proposes: rounds are planned whole and merely sliced to max_batch.
//
//   grid        exhaustive enumeration in the space's canonical
//               (row-major, first-axis-outermost) order.
//   random      `samples` independent draws; draw j picks each axis
//               uniformly from rng.fork(j). Batch size never changes
//               which candidates are drawn. Repeats are possible by
//               design — the engine's caches make them near-free and
//               the frontier dedupes them.
//   hill_climb  greedy local refinement with `restarts` lock-stepped
//               starts (drawn like random's first `restarts` samples).
//               Each round proposes every ±1-step axis neighbor of each
//               active climber; a climber moves to its best strictly
//               improving neighbor (scalarize() order, first-wins ties)
//               and stalls — permanently — when none improves. Neighbor
//               candidate keys are cached per climber position, so
//               known-score skip checks are O(1) map lookups instead of
//               a re-enumeration + re-hash per round.
//   annealing   simulated annealing: `restarts` lock-stepped chains
//               started like hill_climb's, each proposing one random
//               ±1-step axis neighbor per round. Worse neighbors are
//               accepted with probability exp(-(s'/s - 1)/T) under a
//               geometric temperature schedule (1.0 → 1e-3 across the
//               budget), so chains escape the local optima hill_climb
//               stalls in. Requires a budget (> 0 total proposals).
//   genetic     generational GA: a population drawn like random's first
//               P samples, then per generation the top quarter survives
//               (elitism) and the rest are children of tournament-
//               selected parents via uniform crossover + per-axis
//               mutation (probability 1/num_axes). Requires a budget.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/dse/param_space.h"
#include "src/dse/pareto.h"

namespace bpvec::dse {

/// Geometric scalarization of an evaluation: the product of all
/// minimized metric values divided by the product of all maximized ones
/// — the multi-objective generalization of core::best_design's
/// power·area/utilization² score. Infeasible evaluations score +inf.
/// Used by hill_climb/annealing/genetic to order candidates (the
/// frontier itself never scalarizes).
double scalarize(const std::vector<Objective>& objectives,
                 const Evaluation& e);

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  virtual const char* name() const = 0;

  /// Next candidates to price, at most `max_batch` (> 0). Empty means
  /// the strategy is exhausted and the search ends.
  virtual std::vector<Candidate> propose(std::size_t max_batch) = 0;

  /// Evaluations for exactly the candidates of the last propose(), in
  /// the same order. Called once per non-empty propose().
  virtual void observe(const std::vector<Evaluation>& batch) { (void)batch; }
};

class GridStrategy final : public SearchStrategy {
 public:
  explicit GridStrategy(const ParamSpace& space);

  const char* name() const override { return "grid"; }
  std::vector<Candidate> propose(std::size_t max_batch) override;

 private:
  const ParamSpace& space_;
  std::size_t cursor_ = 0;
};

class RandomStrategy final : public SearchStrategy {
 public:
  /// Draws exactly `samples` candidates from `seed`.
  RandomStrategy(const ParamSpace& space, std::size_t samples,
                 std::uint64_t seed);

  const char* name() const override { return "random"; }
  std::vector<Candidate> propose(std::size_t max_batch) override;

 private:
  const ParamSpace& space_;
  std::size_t samples_;
  std::size_t drawn_ = 0;
  Rng rng_;
};

/// The round mechanism shared by the score-driven strategies
/// (hill_climb, annealing, genetic). A subclass plans each round whole
/// in plan_round(); propose() slices it to max_batch and asks for the
/// next round only once this one is fully proposed, and observe() books
/// each evaluation's scalarize() score by candidate key.
class ScoredStrategy : public SearchStrategy {
 public:
  std::vector<Candidate> propose(std::size_t max_batch) final;
  void observe(const std::vector<Evaluation>& batch) final;

 protected:
  ScoredStrategy(const ParamSpace& space, std::uint64_t seed,
                 std::vector<Objective> objectives);

  /// The next round, planned once every earlier round is observed.
  /// Empty means the strategy is exhausted.
  virtual std::vector<Candidate> plan_round() = 0;

  const ParamSpace& space_;
  Rng rng_;
  std::vector<Objective> objectives_;
  /// Scores observed so far, by candidate key (scalarize()).
  std::unordered_map<std::uint64_t, double> score_by_key_;

 private:
  /// The current round and how much of it has been proposed.
  std::vector<Candidate> pending_;
  std::size_t pending_cursor_ = 0;
};

class HillClimbStrategy final : public ScoredStrategy {
 public:
  HillClimbStrategy(const ParamSpace& space, std::size_t restarts,
                    std::uint64_t seed, std::vector<Objective> objectives);

  const char* name() const override { return "hill_climb"; }

 private:
  /// A ±1-step axis neighbor with its candidate_key computed once — the
  /// skip check ("score already known?") is then a hash-map lookup, not
  /// a fresh enumeration + key hash per round.
  struct Neighbor {
    Candidate candidate;
    std::uint64_t key = 0;
  };

  struct Climber {
    Candidate current;
    double score = 0.0;
    bool active = false;  // set once the start point is scored
    bool done = false;
    /// Neighbors of `current`, enumeration order (axis-major, -1 then
    /// +1). Valid while the climber sits at `current`.
    std::vector<Neighbor> neighbors;
    bool neighbors_cached = false;
  };

  /// Starts, then neighbor rounds.
  std::vector<Candidate> plan_round() override;
  /// (Re)enumerates `c.current`'s neighbors with their keys.
  void cache_neighbors(Climber& c) const;

  std::size_t restarts_;
  std::vector<Climber> climbers_;
  bool starts_planned_ = false;
};

class SimulatedAnnealingStrategy final : public ScoredStrategy {
 public:
  /// `chains` lock-stepped annealing chains (started like hill_climb's
  /// restarts), `budget` total proposals across all chains (> 0; sets
  /// the cooling schedule's length), seeded like every strategy.
  SimulatedAnnealingStrategy(const ParamSpace& space, std::size_t chains,
                             std::size_t budget, std::uint64_t seed,
                             std::vector<Objective> objectives);

  const char* name() const override { return "annealing"; }

 private:
  struct Chain {
    Candidate current;
    double score = 0.0;
    bool active = false;  // set once the start point is scored
    Candidate proposal;
    bool has_proposal = false;
    /// Acceptance draw and temperature, fixed at proposal time so the
    /// verdict is a pure function of (chain, step) — not of batching.
    double accept_u = 0.0;
    double accept_temp = 1.0;
  };

  std::vector<Candidate> plan_round() override;
  bool accept(const Chain& c, double proposal_score) const;

  std::size_t budget_;
  std::vector<Chain> chains_;
  /// Axes with >= 2 values (the only ones a neighbor step can move).
  std::vector<std::size_t> movable_axes_;
  double cooling_ = 1.0;   // geometric per-round factor
  std::size_t step_ = 0;   // neighbor rounds planned so far
  std::size_t proposed_ = 0;
  bool starts_planned_ = false;
};

class GeneticStrategy final : public ScoredStrategy {
 public:
  /// `population` candidates per generation (>= 2), `budget` total
  /// proposals (> 0). Generation 0 is drawn exactly like random's first
  /// `population` samples.
  GeneticStrategy(const ParamSpace& space, std::size_t population,
                  std::size_t budget, std::uint64_t seed,
                  std::vector<Objective> objectives);

  const char* name() const override { return "genetic"; }

 private:
  /// One generation per round.
  std::vector<Candidate> plan_round() override;

  std::size_t population_;
  std::size_t budget_;
  /// The previous generation, proposal order (the parent pool).
  std::vector<Candidate> parents_;
  std::size_t generation_ = 0;
  std::size_t proposed_ = 0;
};

/// Valid strategy tokens:
/// {"grid", "random", "hill_climb", "annealing", "genetic"}.
const std::vector<std::string>& strategy_tokens();

/// Everything make_strategy needs beyond the space. `budget` is the
/// random strategy's sample count and the annealing/genetic proposal
/// budget (those three require it > 0); `restarts` is hill_climb's
/// start count and annealing's chain count; `population` is genetic's
/// generation size; `objectives` rank candidates for every
/// score-driven strategy.
struct StrategyOptions {
  std::size_t budget = 0;
  std::size_t restarts = 4;
  std::size_t population = 16;
  std::uint64_t seed = 42;
  std::vector<Objective> objectives;
};

/// Builds a strategy from its token. Throws bpvec::Error on an unknown
/// token or an option the strategy rejects (e.g. a missing budget).
std::unique_ptr<SearchStrategy> make_strategy(const std::string& token,
                                              const ParamSpace& space,
                                              StrategyOptions options);

}  // namespace bpvec::dse
