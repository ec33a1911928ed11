#include "src/dse/strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/error.h"
#include "src/common/token.h"

namespace bpvec::dse {

double scalarize(const std::vector<Objective>& objectives,
                 const Evaluation& e) {
  if (!e.feasible) return std::numeric_limits<double>::infinity();
  BPVEC_CHECK(e.objectives.size() == objectives.size());
  double score = 1.0;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    if (objectives[i].maximize) {
      score /= e.objectives[i];
    } else {
      score *= e.objectives[i];
    }
  }
  return score;
}

// ----- grid ----------------------------------------------------------

GridStrategy::GridStrategy(const ParamSpace& space) : space_(space) {}

std::vector<Candidate> GridStrategy::propose(std::size_t max_batch) {
  BPVEC_CHECK(max_batch > 0);
  const std::size_t total = space_.size();
  std::vector<Candidate> out;
  while (cursor_ < total && out.size() < max_batch) {
    out.push_back(space_.at(cursor_++));
  }
  return out;
}

// ----- random --------------------------------------------------------

namespace {

/// Draw `j`: one independent stream per draw index, one uniform pick per
/// axis. Deterministic in (seed, j) — independent of batching.
Candidate draw(const ParamSpace& space, const Rng& rng, std::uint64_t j) {
  Rng stream = rng.fork(j);
  Candidate c;
  c.choice.reserve(space.num_axes());
  for (const Axis& axis : space.axes()) {
    c.choice.push_back(static_cast<std::size_t>(stream.uniform(
        0, static_cast<std::int64_t>(axis.values.size()) - 1)));
  }
  return c;
}

// Stream salts keeping per-round fork indices clear of the start-point
// draw indices 0..N-1 (all forks of one parent must be distinct).
constexpr std::uint64_t kAnnealRoundSalt = 0x414e4e45414cull;   // "ANNEAL"
constexpr std::uint64_t kGeneticGenSalt = 0x47454e45ull;        // "GENE"

}  // namespace

RandomStrategy::RandomStrategy(const ParamSpace& space, std::size_t samples,
                               std::uint64_t seed)
    : space_(space), samples_(samples), rng_(seed) {
  BPVEC_CHECK_MSG(samples_ > 0, "random strategy needs samples > 0");
}

std::vector<Candidate> RandomStrategy::propose(std::size_t max_batch) {
  BPVEC_CHECK(max_batch > 0);
  std::vector<Candidate> out;
  while (drawn_ < samples_ && out.size() < max_batch) {
    out.push_back(draw(space_, rng_, drawn_++));
  }
  return out;
}

// ----- score-driven rounds --------------------------------------------

ScoredStrategy::ScoredStrategy(const ParamSpace& space, std::uint64_t seed,
                               std::vector<Objective> objectives)
    : space_(space), rng_(seed), objectives_(std::move(objectives)) {}

std::vector<Candidate> ScoredStrategy::propose(std::size_t max_batch) {
  BPVEC_CHECK(max_batch > 0);
  if (pending_cursor_ >= pending_.size()) {
    pending_ = plan_round();
    pending_cursor_ = 0;
  }
  std::vector<Candidate> out;
  while (pending_cursor_ < pending_.size() && out.size() < max_batch) {
    out.push_back(pending_[pending_cursor_++]);
  }
  return out;
}

void ScoredStrategy::observe(const std::vector<Evaluation>& batch) {
  for (const Evaluation& e : batch) {
    score_by_key_.emplace(e.key, scalarize(objectives_, e));
  }
}

// ----- hill climb ----------------------------------------------------

HillClimbStrategy::HillClimbStrategy(const ParamSpace& space,
                                     std::size_t restarts,
                                     std::uint64_t seed,
                                     std::vector<Objective> objectives)
    : ScoredStrategy(space, seed, std::move(objectives)),
      restarts_(restarts) {
  BPVEC_CHECK_MSG(restarts_ > 0, "hill_climb needs restarts > 0");
  BPVEC_CHECK_MSG(!objectives_.empty(),
                  "hill_climb needs objectives to rank neighbors");
  climbers_.resize(restarts_);
}

void HillClimbStrategy::cache_neighbors(Climber& c) const {
  // Enumeration order (axis-major, -1 before +1) is the proposal and
  // tie-break order — identical to enumerating inline, but the
  // candidate_key is hashed once per position instead of once per
  // neighbor per round.
  c.neighbors.clear();
  for (std::size_t a = 0; a < space_.num_axes(); ++a) {
    for (int step : {-1, +1}) {
      const std::size_t n = space_.axes()[a].values.size();
      const std::size_t cur = c.current.choice[a];
      if (step < 0 && cur == 0) continue;
      if (step > 0 && cur + 1 >= n) continue;
      Neighbor nb;
      nb.candidate = c.current;
      nb.candidate.choice[a] = cur + step;
      nb.key = space_.candidate_key(nb.candidate);
      c.neighbors.push_back(std::move(nb));
    }
  }
  c.neighbors_cached = true;
}

std::vector<Candidate> HillClimbStrategy::plan_round() {
  std::vector<Candidate> round;
  if (!starts_planned_) {
    // Round 0: the start points (drawn exactly like random's first
    // `restarts` samples).
    starts_planned_ = true;
    for (std::size_t r = 0; r < restarts_; ++r) {
      climbers_[r].current = draw(space_, rng_, r);
      round.push_back(climbers_[r].current);
    }
    return round;
  }

  // Keep stepping climbers whose neighbor scores are all known already;
  // only unknown-score candidates are proposed. Every move strictly
  // improves the score, so this loop terminates.
  while (true) {
    bool any_active = false;
    for (Climber& c : climbers_) {
      if (c.done) continue;
      if (!c.active) {
        // Adopt the start point's score (observed in round 0).
        const auto it = score_by_key_.find(space_.candidate_key(c.current));
        BPVEC_CHECK(it != score_by_key_.end());
        c.score = it->second;
        c.active = true;
      }
      any_active = true;
    }
    if (!any_active) return round;  // all climbers stalled — exhausted

    // Collect the neighbors whose scores we don't know yet — an O(1)
    // key lookup each, against the per-position neighbor cache.
    bool all_known = true;
    for (Climber& c : climbers_) {
      if (c.done) continue;
      if (!c.neighbors_cached) cache_neighbors(c);
      for (const Neighbor& nb : c.neighbors) {
        if (score_by_key_.count(nb.key)) continue;
        all_known = false;
        round.push_back(nb.candidate);
      }
    }
    // Propose the unknowns; resume after they are observed.
    if (!all_known) return round;

    // All neighbor scores are known: apply one greedy step per climber.
    for (Climber& c : climbers_) {
      if (c.done) continue;
      double best_score = c.score;
      const Neighbor* best = nullptr;
      for (const Neighbor& nb : c.neighbors) {
        const double s = score_by_key_.at(nb.key);
        if (s < best_score) {  // strict improvement; first-wins ties
          best_score = s;
          best = &nb;
        }
      }
      if (best != nullptr) {
        c.current = best->candidate;
        c.score = best_score;
        c.neighbors_cached = false;  // the position moved
      } else {
        c.done = true;
      }
    }
  }
}

// ----- simulated annealing -------------------------------------------

SimulatedAnnealingStrategy::SimulatedAnnealingStrategy(
    const ParamSpace& space, std::size_t chains, std::size_t budget,
    std::uint64_t seed, std::vector<Objective> objectives)
    : ScoredStrategy(space, seed, std::move(objectives)), budget_(budget) {
  BPVEC_CHECK_MSG(chains > 0, "annealing needs chains (restarts) > 0");
  BPVEC_CHECK_MSG(budget_ > 0,
                  "annealing needs a budget (its proposal count)");
  BPVEC_CHECK_MSG(!objectives_.empty(),
                  "annealing needs objectives to score moves");
  // More chains than budget would start chains that can never move.
  chains_.resize(std::min(chains, budget_));
  for (std::size_t a = 0; a < space_.num_axes(); ++a) {
    if (space_.axes()[a].values.size() > 1) movable_axes_.push_back(a);
  }
  // Geometric schedule T: 1.0 → 1e-3 across the ~budget/chains neighbor
  // rounds the budget affords.
  const double rounds = std::max<double>(
      1.0, static_cast<double>(budget_) / static_cast<double>(chains_.size()));
  cooling_ = std::pow(1e-3, 1.0 / rounds);
}

bool SimulatedAnnealingStrategy::accept(const Chain& c,
                                        double proposal_score) const {
  // Downhill (or equal, including inf → inf and inf → finite) always
  // moves; after this test the current score is finite.
  if (!(proposal_score > c.score)) return true;
  // Degenerate current score (<= 0: an exactly-zero objective) — the
  // ratio test below is meaningless, move freely.
  if (!(c.score > 0.0)) return true;
  if (std::isinf(proposal_score)) return false;  // never go infeasible
  // Scale-free uphill acceptance: scalarize() is a positive product, so
  // the relative regression s'/s - 1 plays the role of ΔE.
  const double p =
      std::exp(-((proposal_score / c.score) - 1.0) / c.accept_temp);
  return c.accept_u < p;
}

std::vector<Candidate> SimulatedAnnealingStrategy::plan_round() {
  std::vector<Candidate> round;
  if (!starts_planned_) {
    // Round 0: starts, drawn exactly like random's / hill_climb's.
    starts_planned_ = true;
    for (std::size_t k = 0; k < chains_.size(); ++k) {
      chains_[k].current = draw(space_, rng_, k);
      round.push_back(chains_[k].current);
      ++proposed_;
    }
    return round;
  }

  // Absorb the previous round: adopt start scores, then settle each
  // chain's pending proposal with the acceptance draw and temperature
  // fixed when it was proposed.
  for (Chain& c : chains_) {
    if (!c.active) {
      c.score = score_by_key_.at(space_.candidate_key(c.current));
      c.active = true;
    } else if (c.has_proposal) {
      const double s =
          score_by_key_.at(space_.candidate_key(c.proposal));
      if (accept(c, s)) {
        c.current = c.proposal;
        c.score = s;
      }
      c.has_proposal = false;
    }
  }

  if (proposed_ >= budget_ || movable_axes_.empty()) return {};  // exhausted

  // Plan one neighbor per chain. Every random draw comes from a stream
  // keyed on (round, chain), so proposals — and the acceptance draws
  // settled next round — are batch-size invariant.
  const double temp = std::pow(cooling_, static_cast<double>(step_));
  for (std::size_t k = 0;
       k < chains_.size() && proposed_ < budget_; ++k) {
    Chain& c = chains_[k];
    Rng stream = rng_.fork(kAnnealRoundSalt + step_).fork(k);
    Candidate nb = c.current;
    const std::size_t a = movable_axes_[static_cast<std::size_t>(
        stream.uniform(0,
                       static_cast<std::int64_t>(movable_axes_.size()) - 1))];
    const std::size_t n = space_.axes()[a].values.size();
    const std::size_t cur = nb.choice[a];
    std::size_t next;
    if (cur == 0) {
      next = cur + 1;
    } else if (cur + 1 >= n) {
      next = cur - 1;
    } else {
      next = stream.uniform(0, 1) == 0 ? cur - 1 : cur + 1;
    }
    nb.choice[a] = next;
    c.proposal = std::move(nb);
    c.accept_u = stream.uniform01();
    c.accept_temp = temp;
    c.has_proposal = true;
    round.push_back(c.proposal);
    ++proposed_;
  }
  ++step_;
  return round;
}

// ----- genetic -------------------------------------------------------

GeneticStrategy::GeneticStrategy(const ParamSpace& space,
                                 std::size_t population, std::size_t budget,
                                 std::uint64_t seed,
                                 std::vector<Objective> objectives)
    : ScoredStrategy(space, seed, std::move(objectives)),
      population_(population),
      budget_(budget) {
  BPVEC_CHECK_MSG(population_ >= 2, "genetic needs a population >= 2");
  BPVEC_CHECK_MSG(budget_ > 0, "genetic needs a budget (its proposal count)");
  BPVEC_CHECK_MSG(!objectives_.empty(),
                  "genetic needs objectives to rank the population");
}

std::vector<Candidate> GeneticStrategy::plan_round() {
  if (proposed_ >= budget_) return {};  // exhausted

  if (generation_ == 0) {
    // Generation 0: drawn exactly like random's first P samples.
    const std::size_t n = std::min(population_, budget_);
    for (std::size_t j = 0; j < n; ++j) {
      parents_.push_back(draw(space_, rng_, j));
    }
    proposed_ += n;
    ++generation_;
    return parents_;
  }

  // Rank the previous generation by (scalarized score, candidate key):
  // the key tie-break keeps the order — and therefore selection — a
  // pure function of the scores, independent of map iteration order.
  struct Ranked {
    double score;
    std::uint64_t key;
    std::size_t idx;
  };
  std::vector<Ranked> ranked(parents_.size());
  for (std::size_t i = 0; i < parents_.size(); ++i) {
    const std::uint64_t key = space_.candidate_key(parents_[i]);
    ranked[i] = {score_by_key_.at(key), key, i};
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.score != b.score) return a.score < b.score;
                     return a.key < b.key;
                   });

  // Tournament of 2 over the ranked pool (rank order breaks ties).
  auto tournament = [&](Rng& stream) -> const Candidate& {
    const auto pick = [&] {
      return static_cast<std::size_t>(stream.uniform(
          0, static_cast<std::int64_t>(ranked.size()) - 1));
    };
    const std::size_t i = pick();
    const std::size_t j = pick();
    return parents_[ranked[std::min(i, j)].idx];
  };

  const std::size_t num_axes = space_.num_axes();
  const std::size_t elite = std::min(
      parents_.size(), std::max<std::size_t>(1, population_ / 4));
  std::vector<Candidate> next;
  for (std::size_t s = 0; s < population_ && proposed_ < budget_; ++s) {
    Candidate child;
    if (s < elite) {
      // Elites re-enter the pool unchanged (the engine's caches make
      // re-evaluating them nearly free, and it keeps every generation's
      // scores resident for the next ranking).
      child = parents_[ranked[s].idx];
    } else {
      Rng stream = rng_.fork(kGeneticGenSalt + generation_).fork(s);
      const Candidate& a = tournament(stream);
      const Candidate& b = tournament(stream);
      child.choice.resize(num_axes);
      for (std::size_t ax = 0; ax < num_axes; ++ax) {  // uniform crossover
        child.choice[ax] =
            stream.uniform(0, 1) == 0 ? a.choice[ax] : b.choice[ax];
      }
      for (std::size_t ax = 0; ax < num_axes; ++ax) {  // 1/num_axes mutation
        if (stream.uniform(0, static_cast<std::int64_t>(num_axes) - 1) != 0) {
          continue;
        }
        child.choice[ax] = static_cast<std::size_t>(stream.uniform(
            0,
            static_cast<std::int64_t>(space_.axes()[ax].values.size()) - 1));
      }
    }
    next.push_back(std::move(child));
    ++proposed_;
  }
  parents_ = std::move(next);
  ++generation_;
  return parents_;
}

// ----- factory -------------------------------------------------------

const std::vector<std::string>& strategy_tokens() {
  static const std::vector<std::string> tokens{
      "grid", "random", "hill_climb", "annealing", "genetic"};
  return tokens;
}

std::unique_ptr<SearchStrategy> make_strategy(const std::string& token,
                                              const ParamSpace& space,
                                              StrategyOptions options) {
  if (token == "grid") return std::make_unique<GridStrategy>(space);
  if (token == "random") {
    if (options.budget == 0) {
      throw Error("random strategy requires a budget (its sample count)");
    }
    return std::make_unique<RandomStrategy>(space, options.budget,
                                            options.seed);
  }
  if (token == "hill_climb") {
    return std::make_unique<HillClimbStrategy>(
        space, options.restarts, options.seed, std::move(options.objectives));
  }
  if (token == "annealing") {
    if (options.budget == 0) {
      throw Error(
          "annealing strategy requires a budget (its proposal count)");
    }
    return std::make_unique<SimulatedAnnealingStrategy>(
        space, options.restarts, options.budget, options.seed,
        std::move(options.objectives));
  }
  if (token == "genetic") {
    if (options.budget == 0) {
      throw Error("genetic strategy requires a budget (its proposal count)");
    }
    return std::make_unique<GeneticStrategy>(
        space, options.population, options.budget, options.seed,
        std::move(options.objectives));
  }
  throw Error("unknown search strategy \"" + token + "\"; expected one of " +
              common::quoted_token_list(strategy_tokens()));
}

}  // namespace bpvec::dse
