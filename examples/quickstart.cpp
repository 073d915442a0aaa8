// Quickstart: the smallest end-to-end tour of the library.
//
//  1. Build one of the paper's sizing problems (the transimpedance
//     amplifier) and simulate a single design point.
//  2. Step the gym-style environment by hand.
//  3. Train a tiny PPO agent for a few iterations and ask it for a design.
//
// Usage: quickstart [--iterations=N]

#include <cstdio>
#include <memory>

#include "autockt/autockt.hpp"
#include "autockt/experiments.hpp"
#include "circuits/problems.hpp"
#include "util/cli.hpp"

using namespace autockt;

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);

  // --- 1. A sizing problem is a parameter grid + specs + evaluate() -------
  auto problem = std::make_shared<const circuits::SizingProblem>(
      circuits::make_tia_problem());
  std::printf("problem: %s\n", problem->description.c_str());
  std::printf("grid: %zu parameters, 10^%.1f combinations\n",
              problem->params.size(), problem->action_space_log10());

  const circuits::ParamVector center = problem->center_params();
  auto specs = problem->evaluate(center);
  if (!specs.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 specs.error().message.c_str());
    return 1;
  }
  std::printf("grid-centre design:\n");
  for (std::size_t i = 0; i < problem->specs.size(); ++i) {
    std::printf("  %-20s = %.4g\n", problem->specs[i].name.c_str(),
                (*specs)[i]);
  }

  // --- 2. The RL environment ----------------------------------------------
  env::EnvConfig env_config;
  env::SizingEnv sizing_env(problem, env_config);
  util::Rng rng(1);
  sizing_env.set_target(env::sample_target(*problem, rng));
  sizing_env.reset();
  // Nudge every parameter up once and observe the reward.
  std::vector<int> up(static_cast<std::size_t>(sizing_env.num_params()), 2);
  auto sr = sizing_env.step(up);
  std::printf("\none env step: reward=%.3f done=%d\n", sr.reward,
              sr.done ? 1 : 0);

  // --- 3. Train on sampled targets, evaluate on a frozen holdout ----------
  // The spec subsystem (src/spec/) makes the paper's protocol explicit:
  // training draws episode targets from a sampler over the spec space,
  // while a holdout SpecSuite — generated from suite_seed alone, never
  // trained on — is probed at checkpoint intervals to watch generalization.
  core::AutoCktConfig config;
  config.ppo.max_iterations = static_cast<int>(args.get_int("iterations", 8));
  config.ppo.steps_per_iteration = 800;
  config.holdout_target_count = 25;
  config.holdout_interval = 4;
  std::printf("\ntraining a small agent (%d iterations)...\n",
              config.ppo.max_iterations);
  auto outcome =
      core::train_agent(problem, config, [](const rl::IterationStats& s) {
        if (s.holdout_evaluated) {
          std::printf("  iter %2d  train goal rate %.2f  holdout %.2f\n",
                      s.iteration, s.goal_rate, s.holdout_goal_rate);
        }
      });
  if (outcome.history.iterations.empty()) {
    std::printf("no training iterations ran (agent stays at init)\n");
  } else {
    std::printf("final mean episode reward: %.2f\n",
                outcome.history.iterations.back().mean_episode_reward);
  }

  // The paper's generalization sweep: a suite of unseen targets, rolled out
  // through a VectorSizingEnv — every tick is one batched policy forward
  // plus one evaluate_batch() fanned out by the backend stack. The same
  // named suite can be saved to CSV and replayed against any baseline.
  const spec::SpecSuite deploy_suite =
      core::make_deploy_suite(*problem, 100, /*suite_seed=*/0xdeb101);
  const auto stats = core::deploy_agent(outcome.agent, problem, deploy_suite,
                                        config.env_config);
  std::printf("deployment on %zu fresh targets (%s): reached %d, "
              "avg steps %.1f\n",
              deploy_suite.size(), deploy_suite.name().c_str(),
              stats.reached_count(), stats.avg_steps_reached());

  // Train-vs-holdout scorecard with the frozen agent.
  if (!outcome.holdout_suite.empty()) {
    const auto report = core::evaluate_generalization(
        outcome.agent, problem, outcome.train_suite, outcome.holdout_suite,
        config.env_config);
    std::printf("generalization: train %.2f vs holdout %.2f (gap %.2f)\n",
                report.train_goal_rate(), report.holdout_goal_rate(),
                report.gap());
  }

  // --- 4. The evaluation backend keeps the books --------------------------
  // Training + deployment share one backend stack (memo cache over the
  // batch simulator), so repeat visits to grid points are
  // free and every simulator invocation is accounted for.
  std::printf("\ntraining eval stats:   %s\n",
              outcome.history.eval_stats.summary().c_str());
  std::printf("deployment eval stats: %s\n",
              stats.eval_stats.summary().c_str());
  const auto again = core::deploy_agent(outcome.agent, problem, deploy_suite,
                                        config.env_config);
  std::printf("same targets again:    %s\n",
              again.eval_stats.summary().c_str());
  std::printf("\n(see train_two_stage_opamp / transfer_to_pex for the full "
              "paper flows)\n");
  return 0;
}
