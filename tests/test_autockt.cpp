// Integration tests for the AutoCkt facade: train -> deploy -> transfer on
// the cheap synthetic problem, plus deployment statistics and trajectory
// tracing contracts.

#include <gtest/gtest.h>

#include <memory>

#include "autockt/autockt.hpp"
#include "autockt/experiments.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using circuits::SpecVector;

namespace {

std::shared_ptr<const circuits::SizingProblem> synth() {
  return std::make_shared<const circuits::SizingProblem>(
      test_support::make_synthetic_problem(3, 21));
}

core::AutoCktConfig small_config() {
  core::AutoCktConfig config;
  config.ppo.max_iterations = 20;
  config.ppo.steps_per_iteration = 400;
  config.env_config.horizon = 15;
  config.train_target_count = 20;
  config.seed = 5;
  return config;
}

}  // namespace

TEST(AutoCkt, TrainDeployRoundTrip) {
  auto prob = synth();
  auto outcome = core::train_agent(prob, small_config());
  EXPECT_EQ(outcome.train_targets.size(), 20u);
  ASSERT_FALSE(outcome.history.iterations.empty());

  util::Rng rng(9);
  const auto targets = env::sample_targets(*prob, 40, rng);
  const auto stats = core::deploy_agent(outcome.agent, prob, targets,
                                        small_config().env_config);
  EXPECT_EQ(stats.total(), 40);
  EXPECT_GT(stats.reach_fraction(), 0.7);
  EXPECT_GT(stats.avg_steps_reached(), 0.0);
  // A failed greedy attempt may be followed by one stochastic retry, so a
  // reached target can cost up to two horizons of simulations.
  EXPECT_LE(stats.avg_steps_reached(), 30.0);
}

TEST(AutoCkt, DeployRecordsAreComplete) {
  auto prob = synth();
  auto outcome = core::train_agent(prob, small_config());
  util::Rng rng(10);
  const auto targets = env::sample_targets(*prob, 5, rng);
  const auto stats = core::deploy_agent(outcome.agent, prob, targets,
                                        small_config().env_config);
  for (const auto& r : stats.records) {
    EXPECT_EQ(r.target.size(), prob->specs.size());
    EXPECT_EQ(r.final_specs.size(), prob->specs.size());
    EXPECT_EQ(r.final_params.size(), prob->params.size());
    EXPECT_GE(r.steps, 1);
    if (r.reached) {
      EXPECT_TRUE(prob->goal_met(r.final_specs, r.target));
    }
  }
}

TEST(AutoCkt, StatsAggregation) {
  core::DeployStats stats;
  stats.records.push_back({{1}, {1}, 5, true, {0}});
  stats.records.push_back({{1}, {1}, 9, true, {0}});
  stats.records.push_back({{1}, {1}, 30, false, {0}});
  EXPECT_EQ(stats.total(), 3);
  EXPECT_EQ(stats.reached_count(), 2);
  EXPECT_NEAR(stats.reach_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.avg_steps_reached(), 7.0, 1e-12);
  EXPECT_EQ(stats.total_sim_steps(), 44);
}

TEST(AutoCkt, EmptyStatsAreSafe) {
  core::DeployStats stats;
  EXPECT_EQ(stats.total(), 0);
  EXPECT_EQ(stats.reached_count(), 0);
  EXPECT_EQ(stats.reach_fraction(), 0.0);
  EXPECT_EQ(stats.avg_steps_reached(), 0.0);
}

TEST(AutoCkt, TransferAcrossEnvironments) {
  // Train on the base problem, deploy on a "PEX-like" variant whose specs
  // are systematically degraded — the agent must still navigate.
  auto base = synth();
  auto outcome = core::train_agent(base, small_config());

  auto shifted = test_support::make_synthetic_problem(3, 21);
  const auto base_backend = shifted.backend;
  shifted.set_evaluator(
      [base_backend](const circuits::ParamVector& p)
          -> util::Expected<circuits::SpecVector> {
        auto specs = base_backend->evaluate(p);
        if (!specs.ok()) return specs;
        (*specs)[0] *= 0.97;  // GreaterEq spec degraded
        (*specs)[1] *= 1.02;  // LessEq spec degraded
        return specs;
      },
      "pexish");
  auto pexish = std::make_shared<const circuits::SizingProblem>(
      std::move(shifted));

  util::Rng rng(11);
  const auto targets = env::sample_targets(*pexish, 30, rng);
  const auto stats = core::deploy_agent(outcome.agent, pexish, targets,
                                        small_config().env_config);
  EXPECT_GT(stats.reach_fraction(), 0.5);  // knowledge transfers
}

TEST(AutoCkt, TraceTrajectoryContract) {
  auto prob = synth();
  auto outcome = core::train_agent(prob, small_config());
  util::Rng rng(12);
  const auto target = env::sample_target(*prob, rng);
  const auto trace = core::trace_trajectory(outcome.agent, prob, target,
                                            small_config().env_config);
  ASSERT_GE(trace.specs.size(), 2u);  // start plus at least one step
  EXPECT_EQ(trace.specs.size(), trace.params.size());
  EXPECT_EQ(trace.target, target);
  // First point is the grid centre.
  EXPECT_EQ(trace.params.front(), prob->center_params());
  if (trace.reached) {
    EXPECT_TRUE(prob->goal_met(trace.specs.back(), trace.target));
  }
}

TEST(AutoCkt, StochasticDeploymentAlsoWorks) {
  auto prob = synth();
  auto outcome = core::train_agent(prob, small_config());
  util::Rng rng(13);
  const auto targets = env::sample_targets(*prob, 20, rng);
  const auto stats =
      core::deploy_agent(outcome.agent, prob, targets,
                         small_config().env_config, /*stochastic=*/true);
  EXPECT_GT(stats.reach_fraction(), 0.5);
}

TEST(AutoCkt, TrainAgentProducesSuitesAndHoldoutProbe) {
  auto prob = synth();
  auto config = small_config();
  config.holdout_target_count = 10;
  config.holdout_interval = 3;
  auto outcome = core::train_agent(prob, config);

  EXPECT_EQ(outcome.train_suite.size(), outcome.train_targets.size());
  EXPECT_EQ(outcome.train_suite.targets(), outcome.train_targets);
  ASSERT_EQ(outcome.holdout_suite.size(), 10u);
  EXPECT_EQ(outcome.holdout_suite.name(), "synthetic/holdout");
  // The probe ran and landed in [0, 1].
  EXPECT_GE(outcome.history.final_holdout_goal_rate, 0.0);
  EXPECT_LE(outcome.history.final_holdout_goal_rate, 1.0);
  // A trained agent on this easy problem generalizes to the holdout.
  EXPECT_GT(outcome.history.final_holdout_goal_rate, 0.5);
}

TEST(AutoCkt, HoldoutSuiteIsInvariantUnderTrainingSeed) {
  auto prob = synth();
  auto config = small_config();
  config.ppo.max_iterations = 1;  // the suites are fixed before training
  config.holdout_target_count = 8;
  auto a = core::train_agent(prob, config);
  config.seed = config.seed + 1234;
  auto b = core::train_agent(prob, config);
  EXPECT_EQ(a.holdout_suite, b.holdout_suite);
  // ...while the training targets DO follow the training seed.
  EXPECT_NE(a.train_targets, b.train_targets);
}

TEST(AutoCkt, EvaluateGeneralizationReportsBothSuites) {
  auto prob = synth();
  auto config = small_config();
  config.holdout_target_count = 10;
  auto outcome = core::train_agent(prob, config);
  const auto report = core::evaluate_generalization(
      outcome.agent, prob, outcome.train_suite, outcome.holdout_suite,
      config.env_config);
  EXPECT_EQ(report.train.total(),
            static_cast<int>(outcome.train_suite.size()));
  EXPECT_EQ(report.holdout.total(), 10);
  EXPECT_EQ(report.train_suite_name, "synthetic/train");
  EXPECT_EQ(report.holdout_suite_name, "synthetic/holdout");
  EXPECT_GT(report.train_goal_rate(), 0.5);
  EXPECT_GT(report.holdout_goal_rate(), 0.5);
  EXPECT_NEAR(report.gap(),
              report.train_goal_rate() - report.holdout_goal_rate(), 1e-12);
}

TEST(AutoCkt, CurriculumTrainingReachesHoldoutTargets) {
  auto prob = synth();
  auto config = small_config();
  config.sampling = core::AutoCktConfig::Sampling::Curriculum;
  config.holdout_target_count = 10;
  auto outcome = core::train_agent(prob, config);
  EXPECT_TRUE(outcome.train_targets.empty());  // no fixed set under curriculum
  EXPECT_GE(outcome.history.final_holdout_goal_rate, 0.5);
}

TEST(Experiments, DeploySuiteIsSharedAcrossMethods) {
  auto prob = synth();
  const auto suite = core::make_deploy_suite(*prob, 12, 0xabc);
  EXPECT_EQ(suite.name(), "synthetic/deploy");
  ASSERT_EQ(suite.size(), 12u);
  // Same (problem, count, seed) -> byte-identical suite in any process.
  EXPECT_EQ(core::make_deploy_suite(*prob, 12, 0xabc), suite);

  // GA and the random agent consume the same suite the RL deployment uses.
  baselines::GaConfig ga;
  ga.max_evals = 1500;
  const auto ga_agg = core::run_ga_over_suite(*prob, suite.head(3), ga, {10});
  EXPECT_EQ(ga_agg.targets, 3);
  env::EnvConfig env_config;
  const auto rand_agg =
      core::run_random_over_suite(prob, suite, env_config, 3);
  EXPECT_EQ(rand_agg.targets, 12);
}

TEST(Experiments, PaperEquivalentHours) {
  EXPECT_NEAR(core::paper_equivalent_hours(3600.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(core::paper_equivalent_hours(40 * 23, 91.0), 23.26, 0.05);
}

TEST(Experiments, SpeedupString) {
  EXPECT_EQ(core::speedup_string(400.0, 10.0), "40.0x");
  EXPECT_EQ(core::speedup_string(0.0, 10.0), "n/a");
  EXPECT_EQ(core::speedup_string(10.0, 0.0), "n/a");
}

TEST(Experiments, GaOverTargetsAggregates) {
  const auto prob = test_support::make_synthetic_problem();
  util::Rng rng(14);
  const auto targets = env::sample_targets(prob, 4, rng);
  baselines::GaConfig config;
  config.max_evals = 2000;
  const auto agg = core::run_ga_over_targets(prob, targets, config, {10, 20});
  EXPECT_EQ(agg.targets, 4);
  EXPECT_GT(agg.reached, 0);
  EXPECT_GT(agg.avg_evals_to_reach, 0.0);
}

TEST(Experiments, RandomOverTargetsAggregates) {
  auto prob = synth();
  util::Rng rng(15);
  const auto targets = env::sample_targets(*prob, 10, rng);
  env::EnvConfig env_config;
  const auto agg =
      core::run_random_over_targets(prob, targets, env_config, 3);
  EXPECT_EQ(agg.targets, 10);
  EXPECT_GE(agg.reached, 0);
  EXPECT_LE(agg.reached, 10);
}

// ---- evaluation-backend telemetry ------------------------------------------

#include "eval/cached_backend.hpp"

namespace {

/// Synthetic problem behind a memo cache, as the real factories build it.
std::shared_ptr<const circuits::SizingProblem> synth_cached() {
  auto prob = test_support::make_synthetic_problem(3, 21);
  prob.backend = std::make_shared<eval::CachedBackend>(prob.backend, 8);
  return std::make_shared<const circuits::SizingProblem>(std::move(prob));
}

}  // namespace

TEST(AutoCkt, RepeatedDeploymentHitsCacheWithUnchangedOutcomes) {
  auto prob = synth_cached();
  // An untrained agent is fine: deployment behavior is deterministic for a
  // fixed seed, which is exactly what makes the second pass cacheable.
  rl::PpoConfig ppo;
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), ppo);

  util::Rng rng(21);
  const auto targets = env::sample_targets(*prob, 8, rng);
  const auto first =
      core::deploy_agent(agent, prob, targets, env_config, false, 77);
  const auto second =
      core::deploy_agent(agent, prob, targets, env_config, false, 77);

  // Outcomes are unchanged...
  ASSERT_EQ(first.total(), second.total());
  for (int i = 0; i < first.total(); ++i) {
    EXPECT_EQ(first.records[i].reached, second.records[i].reached);
    EXPECT_EQ(first.records[i].steps, second.records[i].steps);
    EXPECT_EQ(first.records[i].final_params, second.records[i].final_params);
    EXPECT_EQ(first.records[i].final_specs, second.records[i].final_specs);
  }
  // ...but the second pass is answered from the cache.
  EXPECT_GT(second.eval_stats.cache_hits, 0);
  EXPECT_EQ(second.eval_stats.simulations, 0);
  EXPECT_GT(first.eval_stats.cache_misses, 0);
}

TEST(AutoCkt, TrainingSurfacesEvalStats) {
  auto prob = synth_cached();
  auto config = small_config();
  config.ppo.max_iterations = 2;
  auto outcome = core::train_agent(prob, config);
  const auto& history = outcome.history;
  EXPECT_GT(history.eval_stats.cache_lookups(), 0);
  // Every episode restarts from the grid centre, so training revisits at
  // least that point constantly.
  EXPECT_GT(history.eval_stats.cache_hits, 0);
  ASSERT_FALSE(history.iterations.empty());
  const auto& last = history.iterations.back();
  EXPECT_GT(last.cumulative_simulations + last.cumulative_cache_hits, 0);
  EXPECT_EQ(last.cumulative_cache_hits, history.eval_stats.cache_hits);
}
