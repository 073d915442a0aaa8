// Generalization smoke for CI: a short PPO run on the cheap synthetic
// problem, training on a sampled target suite while probing a frozen
// holdout suite, then a final train-vs-holdout deployment scorecard. Emits
// a small JSON record alongside the micro-bench artifacts so the CI run
// history carries both goal-met rates per commit.
//
// Usage: bench_generalization_smoke [--iterations=N] [--steps=N] [--seed=S]
//                                   [--holdout=N] [--out=path.json]

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "autockt/autockt.hpp"
#include "circuits/synthetic.hpp"
#include "util/cli.hpp"

using namespace autockt;

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  auto problem = std::make_shared<const circuits::SizingProblem>(
      circuits::make_synthetic_problem(3, 21));

  core::AutoCktConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  config.env_config.horizon = 15;
  config.train_target_count = 20;
  config.ppo.max_iterations = static_cast<int>(args.get_int("iterations", 12));
  config.ppo.steps_per_iteration = static_cast<int>(args.get_int("steps", 600));
  config.holdout_target_count =
      static_cast<std::size_t>(args.get_int("holdout", 20));
  config.holdout_interval = 3;

  std::printf("[smoke] training on %s (%d iterations x %d steps)\n",
              problem->name.c_str(), config.ppo.max_iterations,
              config.ppo.steps_per_iteration);
  auto outcome =
      core::train_agent(problem, config, [](const rl::IterationStats& s) {
        std::printf("[smoke] iter %2d  train goal rate %.3f  holdout %s\n",
                    s.iteration, s.goal_rate,
                    s.holdout_evaluated
                        ? std::to_string(s.holdout_goal_rate).c_str()
                        : "-");
      });

  const auto report = core::evaluate_generalization(
      outcome.agent, problem, outcome.train_suite, outcome.holdout_suite,
      config.env_config);
  std::printf("[smoke] deploy: train %.3f  holdout %.3f  gap %.3f\n",
              report.train_goal_rate(), report.holdout_goal_rate(),
              report.gap());

  if (outcome.history.iterations.empty()) {
    std::fprintf(stderr, "[smoke] FAIL: no training iterations ran\n");
    return 1;
  }
  const auto& last = outcome.history.iterations.back();
  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"name\": \"generalization_smoke\",\n"
      "  \"problem\": \"%s\",\n"
      "  \"iterations\": %zu,\n"
      "  \"train_targets\": %zu,\n"
      "  \"holdout_targets\": %zu,\n"
      "  \"final_train_goal_rate\": %.6f,\n"
      "  \"final_holdout_goal_rate\": %.6f,\n"
      "  \"deploy_train_goal_rate\": %.6f,\n"
      "  \"deploy_holdout_goal_rate\": %.6f,\n"
      "  \"generalization_gap\": %.6f\n"
      "}\n",
      problem->name.c_str(), outcome.history.iterations.size(),
      outcome.train_suite.size(), outcome.holdout_suite.size(),
      last.goal_rate, outcome.history.final_holdout_goal_rate,
      report.train_goal_rate(), report.holdout_goal_rate(), report.gap());
  std::fputs(json, stdout);

  const std::string out_path = args.get("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "[smoke] cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::printf("[smoke] wrote %s\n", out_path.c_str());
  }

  // Smoke criterion: the probe ran and produced sane rates.
  if (outcome.history.final_holdout_goal_rate < 0.0) {
    std::fprintf(stderr, "[smoke] FAIL: holdout probe never ran\n");
    return 1;
  }
  return 0;
}
