#pragma once
// Internal shared machinery for the GA-family baselines: the serial-protocol
// batch evaluator. Generations are simulated through the problem's
// evaluation backend in whole-population evaluate_batch() calls (the
// backend may run them as lanes, shard them and dedup repeated genes), but
// individuals are *scored* in the historical one-at-a-time order, stopping
// at the first satisfying individual or the eval budget — so GaResult is
// bit-identical to the serial loop for a fixed seed. Both run_ga and
// run_ga_ml share this so their result contracts cannot drift apart.

#include <cstddef>
#include <functional>
#include <vector>

#include "baselines/genetic.hpp"
#include "circuits/sizing_problem.hpp"

namespace autockt::baselines::detail {

struct Individual {
  circuits::ParamVector genes;
  double fitness = -1e30;
  circuits::SpecVector specs;
};

class SerialProtocolEvaluator {
 public:
  /// `on_scored`, if set, observes every scored individual in processing
  /// order (the GA+ML discriminator dataset hook).
  SerialProtocolEvaluator(const circuits::SizingProblem& problem,
                          const circuits::SpecVector& target, long max_evals,
                          GaResult& result,
                          std::function<void(const Individual&)> on_scored = {})
      : problem_(problem),
        target_(target),
        max_evals_(max_evals),
        result_(result),
        on_scored_(std::move(on_scored)) {}

  long remaining_budget() const {
    return max_evals_ > result_.total_evals
               ? max_evals_ - result_.total_evals
               : 0;
  }

  /// Batch-simulate individuals [0, limit) of `group`, then score them in
  /// order; returns true when the run should stop (goal reached or budget
  /// exhausted — both can happen mid-batch, exactly like the serial loop).
  bool evaluate_group(std::vector<Individual>& group, std::size_t limit) {
    std::vector<circuits::ParamVector> points;
    points.reserve(limit);
    for (std::size_t i = 0; i < limit; ++i) points.push_back(group[i].genes);
    const auto batch = problem_.evaluate_batch(points);
    for (std::size_t i = 0; i < limit; ++i) {
      if (score(group[i], batch[i])) return true;
      if (result_.total_evals >= max_evals_) return true;
    }
    return false;
  }

 private:
  /// Score one simulated individual under the serial result protocol.
  bool score(Individual& ind,
             const util::Expected<circuits::SpecVector>& specs) {
    ++result_.total_evals;
    ind.specs = specs.ok() ? specs.value() : problem_.fail_specs();
    ind.fitness = problem_.reward_eq1(ind.specs, target_);
    if (on_scored_) on_scored_(ind);
    if (ind.fitness > result_.best_reward || result_.best_params.empty()) {
      result_.best_reward = ind.fitness;
      result_.best_params = ind.genes;
      result_.best_specs = ind.specs;
    }
    if (!result_.reached && problem_.goal_met(ind.specs, target_)) {
      result_.reached = true;
      result_.evals_to_reach = result_.total_evals;
    }
    return result_.reached;
  }

  const circuits::SizingProblem& problem_;
  const circuits::SpecVector& target_;
  const long max_evals_;
  GaResult& result_;
  std::function<void(const Individual&)> on_scored_;
};

}  // namespace autockt::baselines::detail
