#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/categorical.hpp"
#include "nn/mlp.hpp"
#include "rl/ppo.hpp"
#include "rl/update.hpp"
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
  // Every statistic and every saved weight must repeat exactly, so a sum
  // whose order depends on thread scheduling fails here.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;

  auto run = [&](std::uint64_t seed, std::string* saved) {
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
    std::ostringstream out;
    agent.save(out);
    *saved = out.str();
    return history;
  };
  std::string saved_a, saved_b, saved_other;
  const auto a = run(5, &saved_a);
  const auto b = run(5, &saved_b);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const rl::IterationStats& x = a.iterations[i];
    const rl::IterationStats& y = b.iterations[i];
    EXPECT_EQ(x.iteration, y.iteration);
    EXPECT_EQ(x.cumulative_env_steps, y.cumulative_env_steps);
    EXPECT_EQ(x.mean_episode_reward, y.mean_episode_reward);
    EXPECT_EQ(x.goal_rate, y.goal_rate);
    EXPECT_EQ(x.mean_episode_len, y.mean_episode_len);
    EXPECT_EQ(x.policy_loss, y.policy_loss);
    EXPECT_EQ(x.value_loss, y.value_loss);
    EXPECT_EQ(x.entropy, y.entropy);
    EXPECT_EQ(x.cumulative_simulations, y.cumulative_simulations);
    EXPECT_EQ(x.cumulative_cache_hits, y.cumulative_cache_hits);
    EXPECT_EQ(x.holdout_goal_rate, y.holdout_goal_rate);
    EXPECT_EQ(x.holdout_evaluated, y.holdout_evaluated);
  }
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.total_env_steps, b.total_env_steps);
  EXPECT_EQ(saved_a, saved_b);
  // And a different seed gives a genuinely different trajectory.
  const auto other = run(6, &saved_other);
  EXPECT_NE(a.iterations.back().mean_episode_reward,
            other.iterations.back().mean_episode_reward);
  EXPECT_NE(saved_a, saved_other);
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

  // Lane groups are thread-team items, and the lane total is an int.
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  config = rl::PpoConfig{};
  config.envs_per_worker = 1;
  config.num_workers = rl::detail::ThreadTeam::kMaxItems + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.num_workers = kMaxInt;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.num_workers = rl::detail::ThreadTeam::kMaxItems;
  EXPECT_NO_THROW(config.validate());
  config.num_workers = 2;
  config.envs_per_worker = kMaxInt / 2 + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.num_workers = 3;
  config.envs_per_worker = kMaxInt / 2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.num_workers = 2;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.total_lanes(), kMaxInt - 1);
  config.num_workers = 1;
  config.envs_per_worker = kMaxInt;
  EXPECT_NO_THROW(config.validate());

  // Settings that would train silently wrong: a zero-width net, a clip
  // norm or learning rate that is not positive, a discount outside [0, 1].
  const auto rejects = [](auto&& edit) {
    rl::PpoConfig config;
    edit(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rejects([](rl::PpoConfig& c) { c.hidden = 0; });
  rejects([](rl::PpoConfig& c) { c.hidden = -3; });
  rejects([](rl::PpoConfig& c) { c.hidden_layers = -1; });
  for (double bad : {0.0, -0.5, nan}) {
    rejects([bad](rl::PpoConfig& c) { c.max_grad_norm = bad; });
    rejects([bad](rl::PpoConfig& c) { c.lr_policy = bad; });
    rejects([bad](rl::PpoConfig& c) { c.lr_value = bad; });
  }
  for (double bad : {-0.01, 1.01, nan}) {
    rejects([bad](rl::PpoConfig& c) { c.gamma = bad; });
    rejects([bad](rl::PpoConfig& c) { c.gae_lambda = bad; });
  }
  rl::PpoConfig edges;
  edges.hidden = 1;
  edges.hidden_layers = 0;
  edges.gamma = 1.0;
  edges.gae_lambda = 0.0;
  edges.max_grad_norm = 1e-9;
  EXPECT_NO_THROW(edges.validate());
  // A zero-width net cannot even be built.
  rl::PpoConfig blind;
  blind.hidden = 0;
  EXPECT_THROW(rl::PpoAgent(9, 3, blind), std::invalid_argument);
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

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

TEST(PpoAgent, TrajectoriesInvariantUnderWorkerLaneSplit) {
  // The rollout-engine contract: for a fixed seed, training depends only on
  // num_workers * envs_per_worker (lane seeds are drawn in global lane
  // order and each lane's stream is private), so any split of 8 lanes
  // trains the same agent bit for bit, whichever team threads run the lane
  // groups, the value pass and the holdout probe groups. A 100-row
  // minibatch also runs the update's short 36-row chunk.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  const spec::SpecSpace space(*prob);
  spec::StratifiedSampler stratified(space, 7);
  const spec::SpecSuite holdout =
      spec::SpecSuite::generate(space, stratified, 7, 0xcafe, "probe");

  auto run = [&](int workers, int envs_per_worker, std::string* saved) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    config.minibatch = 100;
    config.num_workers = workers;
    config.envs_per_worker = envs_per_worker;
    config.seed = 31;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    util::Rng rng(7);
    rl::TrainOptions options;
    options.sampler = std::make_shared<spec::SuiteSampler>(
        env::sample_targets(*prob, 10, rng));
    options.holdout = holdout;
    options.holdout_interval = 1;
    options.holdout_lanes = 3;
    const auto history = agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        options);
    std::ostringstream out;
    agent.save(out);
    *saved = out.str();
    return history;
  };

  std::string want_saved;
  const auto want = run(1, 8, &want_saved);
  ASSERT_EQ(want.iterations.size(), 3u);
  // The saved agent the 2 x 4 split trained before lane groups ran on the
  // thread team and values came from one pass after collection. Its bits
  // hold per libm variant: glibc picks its math functions by the CPU's
  // features when it loads, and its FMA variants of tanh, expm1 and exp
  // round some results an ulp or two apart from the others. One tanh
  // result names the variant; the volatile keeps the compiler from folding
  // it.
  volatile double probe_x = -0x1.276b3b3cf533ep+1;
  const std::uint64_t libm = bits(std::tanh(probe_x));
  // glibc 2.36's tanh with its FMA variants, then without them
  // (GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2).
  std::uint64_t want_hash = 0;
  if (libm == 0xbfef5f7fe8770648ULL) want_hash = 0x76e672cd353525c8ULL;
  if (libm == 0xbfef5f7fe8770649ULL) want_hash = 0x761caa6aa4f20f50ULL;
  if (want_hash == 0) {
    ADD_FAILURE() << std::hex << "no hash is pinned for libm fingerprint 0x"
                  << libm << "; the saved agent hashes to 0x"
                  << fnv1a(want_saved);
  } else {
    EXPECT_EQ(fnv1a(want_saved), want_hash);
  }
  for (const auto& [workers, envs] :
       std::vector<std::pair<int, int>>{{2, 4}, {4, 2}, {8, 1}}) {
    SCOPED_TRACE(std::to_string(workers) + " x " + std::to_string(envs));
    std::string saved;
    const auto got = run(workers, envs, &saved);
    ASSERT_EQ(got.iterations.size(), want.iterations.size());
    for (std::size_t i = 0; i < got.iterations.size(); ++i) {
      const rl::IterationStats& x = got.iterations[i];
      const rl::IterationStats& y = want.iterations[i];
      EXPECT_EQ(x.iteration, y.iteration);
      EXPECT_EQ(x.cumulative_env_steps, y.cumulative_env_steps);
      EXPECT_EQ(bits(x.mean_episode_reward), bits(y.mean_episode_reward));
      EXPECT_EQ(bits(x.goal_rate), bits(y.goal_rate));
      EXPECT_EQ(bits(x.mean_episode_len), bits(y.mean_episode_len));
      EXPECT_EQ(bits(x.policy_loss), bits(y.policy_loss));
      EXPECT_EQ(bits(x.value_loss), bits(y.value_loss));
      EXPECT_EQ(bits(x.entropy), bits(y.entropy));
      // No cache: every evaluation simulates, whichever thread asks.
      EXPECT_EQ(x.cumulative_simulations, y.cumulative_simulations);
      EXPECT_EQ(x.cumulative_cache_hits, y.cumulative_cache_hits);
      EXPECT_TRUE(x.holdout_evaluated);
      EXPECT_EQ(bits(x.holdout_goal_rate), bits(y.holdout_goal_rate));
    }
    EXPECT_EQ(got.total_env_steps, want.total_env_steps);
    EXPECT_EQ(bits(got.final_holdout_goal_rate),
              bits(want.final_holdout_goal_rate));
    EXPECT_EQ(saved, want_saved);
  }
}

namespace {

struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Forwards to `inner`, except that its `fail_at`-th evaluate_batch call
/// (counted from 1) throws InjectedFault. Counting at this outermost layer
/// makes the count a function of the trajectories alone.
class FaultyBackend : public eval::EvalBackend {
 public:
  FaultyBackend(std::shared_ptr<eval::EvalBackend> inner, long fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}
  std::string name() const override { return "faulty"; }
  long batches() const { return batches_.load(); }

 protected:
  eval::EvalResult do_evaluate(const eval::ParamVector& params,
                               eval::SimHint* hint) override {
    return inner_->evaluate(params, hint);
  }
  std::vector<eval::EvalResult> do_evaluate_batch(
      const std::vector<eval::ParamVector>& points,
      const std::vector<eval::SimHint*>& hints) override {
    const long call = ++batches_;
    if (call == fail_at_) {
      throw InjectedFault("injected fault at batch " + std::to_string(call));
    }
    return dispatch_batch(*inner_, points, hints);
  }

 private:
  std::shared_ptr<eval::EvalBackend> inner_;
  const long fail_at_;
  std::atomic<long> batches_{0};
};

/// One-iteration training of four lane groups on a synthetic problem whose
/// backend fails at batch `fail_at` (never when 0). Returns the batches
/// the backend saw.
long train_with_fault(long fail_at, bool holdout) {
  auto built = test_support::make_synthetic_problem(3, 21);
  auto backend = std::make_shared<FaultyBackend>(built.backend, fail_at);
  built.backend = backend;
  auto prob = std::make_shared<const circuits::SizingProblem>(std::move(built));
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 1;
  config.num_workers = 4;
  config.envs_per_worker = 2;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(7);
  rl::TrainOptions options;
  options.sampler = std::make_shared<spec::SuiteSampler>(
      env::sample_targets(*prob, 10, rng));
  if (holdout) {
    const spec::SpecSpace space(*prob);
    spec::StratifiedSampler stratified(space, 9);
    options.holdout =
        spec::SpecSuite::generate(space, stratified, 9, 0xcafe, "probe");
    options.holdout_lanes = 2;
  }
  agent.train([prob, env_config] { return env::SizingEnv(prob, env_config); },
              options);
  return backend->batches();
}

/// The message of the InjectedFault train_with_fault() throws, or "" when
/// it returns or throws anything else.
std::string fault_message(long fail_at, bool holdout) {
  try {
    train_with_fault(fail_at, holdout);
  } catch (const InjectedFault& e) {
    return e.what();
  } catch (...) {
  }
  return "";
}

}  // namespace

TEST(PpoAgent, TrainRethrowsAnEvaluationFaultFromAnyPhase) {
  // A lane group or a holdout probe group that throws on a team helper
  // must not end the process: train() joins the run and rethrows the
  // exception, type and message intact, and the team's threads join as
  // it unwinds.
  const long collection = train_with_fault(0, false);
  const long with_probe = train_with_fault(0, true);
  ASSERT_GT(collection, 8);
  ASSERT_GT(with_probe, collection);
  // Collection is the first phase to evaluate, and the probe follows it.
  EXPECT_EQ(fault_message(3, false), "injected fault at batch 3");
  EXPECT_EQ(fault_message(collection, false),
            "injected fault at batch " + std::to_string(collection));
  EXPECT_EQ(fault_message(collection + 1, true),
            "injected fault at batch " + std::to_string(collection + 1));
  EXPECT_EQ(fault_message(with_probe, true),
            "injected fault at batch " + std::to_string(with_probe));
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

// ---- the update's thread team ---------------------------------------------

TEST(ThreadTeam, RunsEveryItemOncePerRun) {
  EXPECT_THROW(rl::detail::ThreadTeam(0), std::invalid_argument);
  const int size = rl::detail::update_team_size();
  EXPECT_GE(size, 1);
  EXPECT_LE(size, rl::detail::kUpdateChunk / 16);
  for (int threads = 1; threads <= 4; ++threads) {
    rl::detail::ThreadTeam team(threads);
    ASSERT_EQ(team.size(), threads);
    // Item i counts in its own slot, thread t in its own.
    std::vector<long> per_item(13, 0), expected(13, 0);
    std::vector<long> per_thread(static_cast<std::size_t>(threads), 0);
    long total = 0;
    for (int i = 0; i < 2000; ++i) {
      const int items = i % 14;  // 0 to 13 items, an empty run included
      team.run(items, [&](int item, int t) noexcept {
        ++per_item[static_cast<std::size_t>(item)];
        ++per_thread[static_cast<std::size_t>(t)];
      });
      for (int k = 0; k < items; ++k) ++expected[static_cast<std::size_t>(k)];
      total += items;
    }
    EXPECT_EQ(per_item, expected);
    long claimed = 0;
    for (long n : per_thread) claimed += n;
    EXPECT_EQ(claimed, total);
    EXPECT_THROW(team.run(-1, [](int, int) noexcept {}),
                 std::invalid_argument);
    // A one-item run executes on the calling thread.
    std::thread::id ran_on;
    int ran_as = -1;
    team.run(1, [&](int, int t) noexcept {
      ran_on = std::this_thread::get_id();
      ran_as = t;
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_EQ(ran_as, 0);
  }
}

// The wake paths: thousands of back-to-back short runs, which start while
// the helpers still spin, and runs after idle gaps longer than the spin
// window, which must wake sleeping helpers. In one run an item outlasts
// the window, so the threads waiting for it (the caller among them, unless
// it runs that item) spin out and block. Every item runs exactly once per
// run (a plain counter per item, so TSan sees any missing ordering), and a
// team destroyed while its helpers spin joins them.
TEST(ThreadTeam, WakesForBackToBackAndIdleSeparatedRuns) {
  using rl::detail::ThreadTeam;
  for (int threads = 2; threads <= 4; ++threads) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadTeam team(threads);
    std::vector<int> hits(9, 0);
    const auto check = [&](int items, auto&& extra) {
      team.run(items, [&](int item, int) noexcept {
        ++hits[static_cast<std::size_t>(item)];
        extra(item);
      });
      for (int k = 0; k < 9; ++k) {
        ASSERT_EQ(hits[static_cast<std::size_t>(k)], k < items ? 1 : 0)
            << "item " << k << " of " << items;
        hits[static_cast<std::size_t>(k)] = 0;
      }
    };
    const auto none = [](int) noexcept {};
    for (int i = 0; i < 3000; ++i) check(1 + i % 9, none);
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(2 * ThreadTeam::kSpinWindow);
      check(2 + i, none);
    }
    check(threads, [](int item) noexcept {
      if (item == 1) std::this_thread::sleep_for(2 * ThreadTeam::kSpinWindow);
    });
  }
  for (int i = 0; i < 200; ++i) {
    ThreadTeam team(4);
    team.run(4, [](int, int) noexcept {});
  }
}

namespace {

/// A synthetic update batch: random observations and actions, logps near
/// the initial policy's (so both surrogate branches occur), random
/// advantages and returns, and every epoch's shuffle.
struct SyntheticBatch {
  std::vector<rl::detail::Transition> storage;
  std::vector<const rl::detail::Transition*> steps;
  std::vector<double> advantages, returns;
  std::vector<std::size_t> orders;
};

SyntheticBatch make_batch(const nn::Mlp& policy, int heads, int n, int epochs,
                          util::Rng& rng) {
  constexpr int kActions = env::SizingEnv::kActionsPerParam;
  SyntheticBatch b;
  b.storage.resize(static_cast<std::size_t>(n));
  for (auto& tr : b.storage) {
    tr.obs.resize(static_cast<std::size_t>(policy.input_size()));
    for (double& x : tr.obs) x = rng.uniform(-1.0, 1.0);
    const auto logits = policy.forward(tr.obs);
    tr.logp = rng.uniform(-0.3, 0.3);
    for (int h = 0; h < heads; ++h) {
      const int a = static_cast<int>(rng.bounded(kActions));
      tr.action.push_back(a);
      const auto probs = nn::softmax_slice(
          logits, static_cast<std::size_t>(h) * kActions, kActions);
      tr.logp += std::log(probs[static_cast<std::size_t>(a)]);
    }
    b.steps.push_back(&tr);
    b.advantages.push_back(rng.uniform(-1.5, 1.5));
    b.returns.push_back(rng.uniform(-1.0, 1.0));
  }
  const std::size_t count = static_cast<std::size_t>(n);
  for (int e = 0; e < epochs; ++e) {
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    for (std::size_t i = count; i-- > 1;) {
      std::swap(order[i], order[rng.bounded(i + 1)]);
    }
    b.orders.insert(b.orders.end(), order.begin(), order.end());
  }
  return b;
}

/// The update one row at a time: forward_trace + backward per row, a
/// serial global-norm clip and Adam::step per minibatch, loss terms added
/// in row order (entropy row-major, head-minor). Counts the clipped steps.
rl::detail::UpdateLosses reference_update(nn::Mlp& policy, nn::Mlp& value,
                                          nn::Adam& opt_policy,
                                          nn::Adam& opt_value,
                                          const SyntheticBatch& b,
                                          const rl::PpoConfig& config,
                                          int heads, int* clipped_steps) {
  constexpr int kActions = env::SizingEnv::kActionsPerParam;
  const auto clip = [&](std::vector<double>& grads) {
    double sq = 0.0;
    for (double g : grads) sq += g * g;
    const double norm = std::sqrt(sq);
    if (norm > config.max_grad_norm && norm > 0.0) {
      const double scale = config.max_grad_norm / norm;
      for (double& g : grads) g *= scale;
      ++*clipped_steps;
    }
  };
  rl::detail::UpdateLosses losses;
  const std::size_t n = b.steps.size();
  const std::size_t mb = static_cast<std::size_t>(config.minibatch);
  const std::size_t width = static_cast<std::size_t>(heads) * kActions;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const std::size_t* order = b.orders.data() + epoch * n;
    for (std::size_t start = 0; start < n; start += mb) {
      const std::size_t stop = std::min(start + mb, n);
      const double inv_b = 1.0 / static_cast<double>(stop - start);
      policy.zero_grad();
      value.zero_grad();
      for (std::size_t k = start; k < stop; ++k) {
        const rl::detail::Transition& tr = *b.steps[order[k]];
        const double adv = b.advantages[order[k]];
        const auto trace = policy.forward_trace(tr.obs);
        std::vector<double> probs(width), dz(width, 0.0);
        double logp_new = 0.0;
        for (int h = 0; h < heads; ++h) {
          const std::size_t off = static_cast<std::size_t>(h) * kActions;
          nn::softmax_into(trace.output.data() + off, kActions,
                           probs.data() + off);
          logp_new += std::log(std::max(
              probs[off + static_cast<std::size_t>(tr.action[h])], 1e-12));
        }
        const double ratio = std::exp(logp_new - tr.logp);
        const double unclipped = ratio * adv;
        const double clipped =
            std::clamp(ratio, 1.0 - config.clip, 1.0 + config.clip) * adv;
        losses.policy += -std::min(unclipped, clipped);
        const double dlogp = unclipped <= clipped ? -ratio * adv * inv_b : 0.0;
        for (int h = 0; h < heads; ++h) {
          const std::size_t off = static_cast<std::size_t>(h) * kActions;
          const double ent = nn::entropy(probs.data() + off, kActions);
          losses.entropy += ent;
          for (int j = 0; j < kActions; ++j) {
            const double p = probs[off + static_cast<std::size_t>(j)];
            double g = dlogp * ((tr.action[h] == j ? 1.0 : 0.0) - p);
            g += config.entropy_coef * inv_b * p *
                 (std::log(std::max(p, 1e-12)) + ent);
            dz[off + static_cast<std::size_t>(j)] += g;
          }
        }
        policy.backward(trace, dz);

        const auto v_trace = value.forward_trace(tr.obs);
        const double err = v_trace.output[0] - b.returns[order[k]];
        losses.value += 0.5 * err * err;
        value.backward(v_trace, {err * inv_b});
      }
      clip(policy.grads());
      clip(value.grads());
      opt_policy.step(policy.params(), policy.grads());
      opt_value.step(value.params(), value.grads());
    }
  }
  return losses;
}

}  // namespace

// One update on a team of 1-4 threads against the per-row reference: both
// nets' parameters and the three loss sums, bitwise. 300 transitions in
// 128-row minibatches leave a short 44-row last minibatch, and two epochs
// run six Adam steps, so the moments carry over between steps.
class PpoUpdateTeam : public ::testing::TestWithParam<int> {};

TEST_P(PpoUpdateTeam, MatchesSerialPerRowReferenceBitwise) {
  constexpr int kObs = 11, kHeads = 4;
  rl::PpoConfig config;
  config.minibatch = 128;
  config.epochs = 2;
  const auto make_policy = [] {
    return nn::Mlp({kObs, 50, 50, kHeads * env::SizingEnv::kActionsPerParam},
                   nn::Activation::Tanh, 17, 0.01);
  };
  const auto make_value = [] {
    return nn::Mlp({kObs, 50, 50, 1}, nn::Activation::Tanh, 18, 1.0);
  };
  nn::Mlp policy = make_policy(), value = make_value();
  nn::Mlp ref_policy = make_policy(), ref_value = make_value();
  util::Rng rng(29);
  const SyntheticBatch b = make_batch(policy, kHeads, 300, config.epochs, rng);

  nn::Adam opt_policy(policy.param_count(), config.lr_policy);
  nn::Adam opt_value(value.param_count(), config.lr_value);
  rl::detail::ThreadTeam team(GetParam());
  rl::detail::PpoUpdate update(policy, value, config, team);
  const rl::detail::UpdateLosses got = update.run(
      {b.steps, b.advantages, b.returns, b.orders}, opt_policy, opt_value);

  nn::Adam ref_opt_policy(policy.param_count(), config.lr_policy);
  nn::Adam ref_opt_value(value.param_count(), config.lr_value);
  int clipped_steps = 0;
  const rl::detail::UpdateLosses want =
      reference_update(ref_policy, ref_value, ref_opt_policy, ref_opt_value,
                       b, config, kHeads, &clipped_steps);
  // Both branches of the clip ran: some of the 12 net steps clipped.
  EXPECT_GT(clipped_steps, 0);
  EXPECT_LT(clipped_steps, 12);

  EXPECT_EQ(got.policy, want.policy);
  EXPECT_EQ(got.entropy, want.entropy);
  EXPECT_EQ(got.value, want.value);
  ASSERT_EQ(policy.params().size(), ref_policy.params().size());
  for (std::size_t i = 0; i < policy.params().size(); ++i) {
    ASSERT_EQ(policy.params()[i], ref_policy.params()[i]) << "policy " << i;
  }
  for (std::size_t i = 0; i < value.params().size(); ++i) {
    ASSERT_EQ(value.params()[i], ref_value.params()[i]) << "value " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PpoUpdateTeam, ::testing::Values(1, 2, 3, 4));
