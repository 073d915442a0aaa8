#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "rl/ppo.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using circuits::SpecVector;

namespace {

std::shared_ptr<const circuits::SizingProblem> synth() {
  return std::make_shared<const circuits::SizingProblem>(
      test_support::make_synthetic_problem(3, 21));
}

rl::PpoConfig small_config() {
  rl::PpoConfig config;
  config.max_iterations = 40;
  config.steps_per_iteration = 800;
  config.minibatch = 128;
  config.epochs = 6;
  config.num_workers = 2;
  config.seed = 3;
  return config;
}

}  // namespace

TEST(PpoAgent, ActionShapesAndBounds) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  util::Rng rng(1);
  const std::vector<double> obs(9, 0.1);
  const auto a = agent.act_sample(obs, rng);
  ASSERT_EQ(a.size(), 3u);
  for (int v : a) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, env::SizingEnv::kActionsPerParam);
  }
  const auto g = agent.act_greedy(obs);
  ASSERT_EQ(g.size(), 3u);
}

TEST(PpoAgent, GreedyIsDeterministic) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  const std::vector<double> obs(9, -0.2);
  EXPECT_EQ(agent.act_greedy(obs), agent.act_greedy(obs));
}

TEST(PpoAgent, LogProbIsConsistentWithSampling) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  util::Rng rng(2);
  const std::vector<double> obs(9, 0.0);
  double logp = 0.0;
  agent.act_sample(obs, rng, &logp);
  EXPECT_LE(logp, 0.0);                       // probability <= 1
  EXPECT_GT(logp, 3.0 * std::log(1e-12));     // not degenerate
}

TEST(PpoAgent, TrainRejectsEmptyTargets) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  auto prob = synth();
  EXPECT_THROW(agent.train([prob] { return env::SizingEnv(prob, {}); },
                           std::vector<SpecVector>{}),
               std::invalid_argument);
}

TEST(PpoAgent, LearnsSyntheticSizingProblem) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 15;
  env::SizingEnv probe(prob, env_config);

  rl::PpoConfig config = small_config();
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);

  util::Rng rng(11);
  const auto targets = env::sample_targets(*prob, 20, rng);
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      targets);

  ASSERT_FALSE(history.iterations.empty());
  const auto& first = history.iterations.front();
  const auto& last = history.iterations.back();
  EXPECT_GT(last.mean_episode_reward, first.mean_episode_reward);
  EXPECT_GT(last.goal_rate, 0.7);
  EXPECT_GT(history.total_env_steps, 0);
}

TEST(PpoAgent, TrainingIsSeedReproducible) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;

  auto run = [&](std::uint64_t seed) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    config.seed = seed;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    util::Rng rng(7);
    const auto targets = env::sample_targets(*prob, 10, rng);
    const auto history = agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        targets);
    return history.iterations.back().mean_episode_reward;
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
  // And a different seed gives a genuinely different trajectory.
  EXPECT_NE(run(5), run(6));
}

TEST(PpoAgent, EarlyStopOnGoalRate) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 15;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 60;
  config.target_goal_rate = 0.75;
  config.target_mean_reward = 1e9;  // force the goal-rate criterion
  config.stop_patience = 1;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(13);
  const auto targets = env::sample_targets(*prob, 10, rng);
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      targets);
  EXPECT_TRUE(history.converged);
  EXPECT_LT(static_cast<int>(history.iterations.size()),
            config.max_iterations);
}

TEST(PpoAgent, OnIterationCallbackFires) {
  auto prob = synth();
  env::EnvConfig env_config;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 2;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(17);
  const auto targets = env::sample_targets(*prob, 5, rng);
  int calls = 0;
  agent.train([prob, env_config] { return env::SizingEnv(prob, env_config); },
              targets,
              [&](const rl::IterationStats& s) {
                EXPECT_EQ(s.iteration, calls);
                ++calls;
              });
  EXPECT_EQ(calls, 2);
}

TEST(PpoAgent, SaveLoadRoundTrip) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  std::stringstream ss;
  agent.save(ss);
  const auto loaded = rl::PpoAgent::load(ss);
  EXPECT_EQ(loaded.obs_size(), 9);
  EXPECT_EQ(loaded.num_params(), 3);
  const std::vector<double> obs(9, 0.3);
  EXPECT_EQ(agent.act_greedy(obs), loaded.act_greedy(obs));
  EXPECT_DOUBLE_EQ(agent.value(obs), loaded.value(obs));
}

TEST(PpoAgent, LoadRejectsGarbage) {
  std::stringstream ss("bogus");
  EXPECT_THROW(rl::PpoAgent::load(ss), std::runtime_error);
}

namespace {

/// An agent file whose header claims (obs_size, num_params) but whose nets
/// are `policy` and `value`.
std::string agent_file(int obs_size, int num_params, const nn::Mlp& policy,
                       const nn::Mlp& value) {
  std::stringstream ss;
  ss << "ppo_agent " << obs_size << " " << num_params << "\n";
  policy.save(ss);
  value.save(ss);
  return ss.str();
}

nn::Mlp net(std::vector<int> sizes) {
  return nn::Mlp(std::move(sizes), nn::Activation::Tanh, 3);
}

}  // namespace

TEST(PpoAgent, LoadAcceptsMatchingNets) {
  std::stringstream ss(agent_file(9, 3, net({9, 50, 9}), net({9, 50, 1})));
  EXPECT_NO_THROW(rl::PpoAgent::load(ss));
}

TEST(PpoAgent, LoadRejectsBadHeaderSizes) {
  std::stringstream ss(agent_file(-9, 3, net({9, 50, 9}), net({9, 50, 1})));
  EXPECT_THROW(rl::PpoAgent::load(ss), std::runtime_error);
}

TEST(PpoAgent, LoadRejectsPolicyInputMismatch) {
  std::stringstream ss(agent_file(8, 3, net({9, 50, 9}), net({8, 50, 1})));
  EXPECT_THROW(rl::PpoAgent::load(ss), std::runtime_error);
}

TEST(PpoAgent, LoadRejectsPolicyOutputMismatch) {
  // num_params = 4 needs 12 logits; the policy emits 9.
  std::stringstream ss(agent_file(9, 4, net({9, 50, 9}), net({9, 50, 1})));
  EXPECT_THROW(rl::PpoAgent::load(ss), std::runtime_error);
}

TEST(PpoAgent, LoadRejectsValueInputMismatch) {
  std::stringstream ss(agent_file(9, 3, net({9, 50, 9}), net({7, 50, 1})));
  EXPECT_THROW(rl::PpoAgent::load(ss), std::runtime_error);
}

TEST(PpoAgent, LoadRejectsValueOutputMismatch) {
  std::stringstream ss(agent_file(9, 3, net({9, 50, 9}), net({9, 50, 2})));
  EXPECT_THROW(rl::PpoAgent::load(ss), std::runtime_error);
}

TEST(PpoAgent, LoadsShippedDeployAgent) {
  // The frozen ngm_ota agent the end-to-end benchmark deploys.
  std::ifstream in(std::string(AUTOCKT_SOURCE_DIR) +
                   "/e2ebench/data/ngm_ota_agent.txt");
  ASSERT_TRUE(in);
  const auto agent = rl::PpoAgent::load(in);
  EXPECT_EQ(agent.obs_size(), 13);
  EXPECT_EQ(agent.num_params(), 7);
}

TEST(PpoConfig, ValidateRejectsNonpositiveRolloutShape) {
  rl::PpoConfig config;
  config.num_workers = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.num_workers = -2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.envs_per_worker = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.steps_per_iteration = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.minibatch = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.epochs = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(rl::PpoConfig{}.validate());
}

TEST(PpoAgent, TrainRejectsInvalidRolloutShape) {
  auto prob = synth();
  rl::PpoConfig config = small_config();
  config.num_workers = 0;
  rl::PpoAgent agent(9, 3, config);
  util::Rng rng(23);
  const auto targets = env::sample_targets(*prob, 4, rng);
  EXPECT_THROW(
      agent.train([prob] { return env::SizingEnv(prob, {}); }, targets),
      std::invalid_argument);
}

TEST(PpoAgent, TrajectoriesInvariantUnderWorkerLaneSplit) {
  // The rollout-engine contract: for a fixed seed, training depends only on
  // num_workers * envs_per_worker (lane seeds are drawn in global lane
  // order and each lane's stream is private), so any split of 4 lanes
  // produces identical iterations.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;

  auto run = [&](int workers, int envs_per_worker) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    config.num_workers = workers;
    config.envs_per_worker = envs_per_worker;
    config.seed = 31;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    util::Rng rng(7);
    const auto targets = env::sample_targets(*prob, 10, rng);
    return agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        targets);
  };

  const auto h14 = run(1, 4);
  const auto h41 = run(4, 1);
  const auto h22 = run(2, 2);
  ASSERT_EQ(h14.iterations.size(), h41.iterations.size());
  ASSERT_EQ(h14.iterations.size(), h22.iterations.size());
  for (std::size_t i = 0; i < h14.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(h14.iterations[i].mean_episode_reward,
                     h41.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(h14.iterations[i].mean_episode_reward,
                     h22.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(h14.iterations[i].policy_loss,
                     h41.iterations[i].policy_loss);
    EXPECT_DOUBLE_EQ(h14.iterations[i].value_loss,
                     h22.iterations[i].value_loss);
    EXPECT_EQ(h14.iterations[i].cumulative_env_steps,
              h41.iterations[i].cumulative_env_steps);
  }
}

TEST(PpoAgent, PipelinedInferenceMatchesInline) {
  // Collection's value estimates come from a per-worker helper thread when
  // pipelined and from the worker itself otherwise; both must train the
  // same agent bit for bit. A 100-row minibatch also runs the update's
  // short 36-row chunk.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;

  auto run = [&](bool pipelined, std::string* saved) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    config.minibatch = 100;
    config.pipeline_inference = pipelined;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    util::Rng rng(7);
    const auto targets = env::sample_targets(*prob, 10, rng);
    const auto history = agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        targets);
    std::ostringstream out;
    agent.save(out);
    *saved = out.str();
    return history;
  };

  std::string saved_pipelined, saved_inline;
  const auto pipelined = run(true, &saved_pipelined);
  const auto inline_values = run(false, &saved_inline);
  ASSERT_EQ(pipelined.iterations.size(), inline_values.iterations.size());
  for (std::size_t i = 0; i < pipelined.iterations.size(); ++i) {
    const auto& a = pipelined.iterations[i];
    const auto& b = inline_values.iterations[i];
    EXPECT_EQ(a.cumulative_env_steps, b.cumulative_env_steps);
    EXPECT_EQ(a.mean_episode_reward, b.mean_episode_reward);
    EXPECT_EQ(a.goal_rate, b.goal_rate);
    EXPECT_EQ(a.policy_loss, b.policy_loss);
    EXPECT_EQ(a.value_loss, b.value_loss);
    EXPECT_EQ(a.entropy, b.entropy);
  }
  EXPECT_EQ(saved_pipelined, saved_inline);
}

// ---- spec-scenario training (TrainOptions: sampler + holdout suite) --------

TEST(PpoAgent, SamplerApiMatchesLegacyTargetListBitwise) {
  // train(factory, targets) and train(factory, {SuiteSampler(targets)})
  // must collect identical trajectories: the suite sampler consumes the
  // lane RNG exactly like the historical inline pick.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  util::Rng rng(7);
  const auto targets = env::sample_targets(*prob, 10, rng);

  auto run = [&](bool use_options) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    auto factory = [prob, env_config] {
      return env::SizingEnv(prob, env_config);
    };
    if (!use_options) return agent.train(factory, targets);
    rl::TrainOptions options;
    options.sampler = std::make_shared<spec::SuiteSampler>(targets);
    return agent.train(factory, options);
  };
  const auto legacy = run(false);
  const auto sampled = run(true);
  ASSERT_EQ(legacy.iterations.size(), sampled.iterations.size());
  for (std::size_t i = 0; i < legacy.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy.iterations[i].mean_episode_reward,
                     sampled.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(legacy.iterations[i].policy_loss,
                     sampled.iterations[i].policy_loss);
  }
}

TEST(PpoAgent, HoldoutProbeRunsAtIntervalAndOnFinalIteration) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 5;
  config.target_mean_reward = 1e9;  // no early stop
  config.target_goal_rate = 2.0;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);

  const spec::SpecSpace space(*prob);
  auto suites = spec::make_train_holdout_suites(space, 12, 6, 0xfeed, "t");
  rl::TrainOptions options;
  options.sampler =
      std::make_shared<spec::SuiteSampler>(suites.train.targets());
  options.holdout = suites.holdout;
  options.holdout_interval = 2;

  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      options);
  ASSERT_EQ(history.iterations.size(), 5u);
  // Interval pattern: iterations 0, 2, 4 probe; 4 is also the final one.
  const std::vector<bool> expect_probe{true, false, true, false, true};
  for (std::size_t i = 0; i < history.iterations.size(); ++i) {
    EXPECT_EQ(history.iterations[i].holdout_evaluated, expect_probe[i])
        << "iteration " << i;
    if (expect_probe[i]) {
      EXPECT_GE(history.iterations[i].holdout_goal_rate, 0.0);
      EXPECT_LE(history.iterations[i].holdout_goal_rate, 1.0);
    } else {
      EXPECT_DOUBLE_EQ(history.iterations[i].holdout_goal_rate, -1.0);
    }
  }
  EXPECT_DOUBLE_EQ(history.final_holdout_goal_rate,
                   history.iterations.back().holdout_goal_rate);
}

TEST(PpoAgent, HoldoutProbeDoesNotPerturbTraining) {
  // The probe interleaves greedy holdout rollouts with collection on the
  // shared backend; trajectories (and thus learned stats) must not move.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  util::Rng rng(7);
  const auto targets = env::sample_targets(*prob, 10, rng);

  auto run = [&](std::size_t holdout_count) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    rl::TrainOptions options;
    options.sampler = std::make_shared<spec::SuiteSampler>(targets);
    if (holdout_count > 0) {
      const spec::SpecSpace space(*prob);
      spec::StratifiedSampler stratified(
          space, static_cast<int>(holdout_count));
      options.holdout = spec::SpecSuite::generate(
          space, stratified, holdout_count, 0xcafe, "probe");
      options.holdout_interval = 1;
    }
    return agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        options);
  };
  const auto without = run(0);
  const auto with = run(8);
  ASSERT_EQ(without.iterations.size(), with.iterations.size());
  for (std::size_t i = 0; i < without.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(without.iterations[i].mean_episode_reward,
                     with.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(without.iterations[i].value_loss,
                     with.iterations[i].value_loss);
  }
}

TEST(PpoAgent, CurriculumTrainingIsSeedReproducible) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  auto run = [&] {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    rl::TrainOptions options;
    options.sampler = std::make_shared<spec::CurriculumSampler>(
        spec::SpecSpace(*prob));
    return agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        options);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iterations[i].mean_episode_reward,
                     b.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(a.iterations[i].policy_loss, b.iterations[i].policy_loss);
  }
}

TEST(PpoAgent, CurriculumLearnsFromOutcomes) {
  // After training on the synthetic problem, the curriculum must have
  // digested one outcome per collected episode.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 2;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  auto curriculum = std::make_shared<spec::CurriculumSampler>(
      spec::SpecSpace(*prob));
  rl::TrainOptions options;
  options.sampler = curriculum;
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      options);
  EXPECT_GT(curriculum->outcomes_recorded(), 0);
  EXPECT_GT(history.total_env_steps, 0);
}

TEST(PpoAgent, RejectsSequentialSamplerWithMultipleWorkers) {
  auto prob = synth();
  rl::PpoConfig config = small_config();
  ASSERT_GT(config.num_workers, 1);
  rl::PpoAgent agent(9, 3, config);
  rl::TrainOptions options;
  options.sampler =
      std::make_shared<spec::StratifiedSampler>(spec::SpecSpace(*prob), 8);
  EXPECT_THROW(
      agent.train([prob] { return env::SizingEnv(prob, {}); }, options),
      std::invalid_argument);
}

TEST(PpoAgent, RejectsMissingSampler) {
  auto prob = synth();
  rl::PpoAgent agent(9, 3, small_config());
  EXPECT_THROW(
      agent.train([prob] { return env::SizingEnv(prob, {}); },
                  rl::TrainOptions{}),
      std::invalid_argument);
}

TEST(PpoAgent, EvaluateGoalRateIsLaneCountInvariant) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), small_config());
  util::Rng rng(3);
  const auto targets = env::sample_targets(*prob, 11, rng);
  auto factory = [prob, env_config] {
    return env::SizingEnv(prob, env_config);
  };
  const double r1 = agent.evaluate_goal_rate(factory, targets, 1);
  const double r4 = agent.evaluate_goal_rate(factory, targets, 4);
  const double r16 = agent.evaluate_goal_rate(factory, targets, 16);
  EXPECT_DOUBLE_EQ(r1, r4);
  EXPECT_DOUBLE_EQ(r1, r16);
}

TEST(PpoAgent, SingleWorkerMatchesConfig) {
  // num_workers = 1 must work (serial path) and be reproducible.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 8;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.num_workers = 1;
  config.max_iterations = 2;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(19);
  const auto targets = env::sample_targets(*prob, 5, rng);
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      targets);
  EXPECT_EQ(history.iterations.size(), 2u);
  EXPECT_GE(history.iterations[0].cumulative_env_steps,
            config.steps_per_iteration);
}
