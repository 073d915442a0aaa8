#pragma once
// Proximal Policy Optimization for the sizing environment, from scratch.
//
// Mirrors the paper's setup: a three-layer, 50-neuron policy network with a
// factored 3-way categorical head per circuit parameter, a separate value
// network, GAE(lambda) advantages, the clipped surrogate objective, and
// parallel trajectory collection (the paper uses Ray/RLlib; we run
// `num_workers` lane groups as items of one thread team, each group
// driving a VectorSizingEnv of `envs_per_worker` lockstep lanes, so every
// policy forward is batched and every simulation tick is one
// evaluate_batch() on the shared backend). Each lane's RNG stream is
// derived from the master seed and its global lane index only, so for a
// fixed seed the collected trajectories are identical for any worker/lane
// split with the same total lane count (num_workers * envs_per_worker),
// regardless of thread scheduling. Training stops when the mean episode
// reward reaches the paper's criterion (>= 0, i.e. targets are
// consistently satisfied).

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "env/sizing_env.hpp"
#include "env/vector_env.hpp"
#include "eval/stats.hpp"
#include "nn/mlp.hpp"
#include "spec/spec_suite.hpp"
#include "spec/target_sampler.hpp"
#include "util/rng.hpp"

namespace autockt::rl {

struct PpoConfig {
  // Network (paper: "three layers with 50 neurons each").
  int hidden = 50;
  int hidden_layers = 3;

  // Optimization.
  int max_iterations = 80;
  int steps_per_iteration = 1200;
  int minibatch = 256;
  int epochs = 8;
  double lr_policy = 3e-4;
  double lr_value = 1e-3;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip = 0.2;
  double entropy_coef = 0.003;
  double max_grad_norm = 0.5;

  // Early stopping. The paper stops when "the mean reward has reached 0,
  // meaning all target specifications are consistently satisfied"; with the
  // +10 terminal bonus, *consistently* satisfied corresponds to a mean
  // episode reward near the bonus OR a goal rate near one (the former can
  // sit lower on long-horizon problems where en-route penalties accumulate).
  double target_mean_reward = 9.0;
  double target_goal_rate = 0.98;
  int stop_patience = 2;

  // Rollout engine shape: num_workers lane groups, each stepping a
  // VectorSizingEnv of envs_per_worker lockstep lanes, run as items of the
  // trainer's thread team, so up to the team's size of groups simulate at
  // once. The holdout probe splits its targets into as many groups.
  // Trajectories depend only on seed and the product num_workers *
  // envs_per_worker. Both must be >= 1 (validated by
  // PpoConfig::validate()).
  int num_workers = 4;
  int envs_per_worker = 2;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on settings that would hang, divide by
  /// zero, overflow or train silently wrong instead of training:
  /// nonpositive worker/lane counts, steps, minibatch or epochs; more
  /// workers than a thread-team run has items, or a lane total
  /// num_workers * envs_per_worker above INT_MAX; hidden < 1 or
  /// hidden_layers < 0; max_grad_norm, lr_policy or lr_value not > 0
  /// (NaN included); gamma or gae_lambda outside [0, 1].
  void validate() const;

  int total_lanes() const { return num_workers * envs_per_worker; }
};

struct IterationStats {
  int iteration = 0;
  long cumulative_env_steps = 0;
  double mean_episode_reward = 0.0;
  double goal_rate = 0.0;       // fraction of episodes reaching the target
  double mean_episode_len = 0.0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  /// Evaluation-backend activity since training started (cumulative):
  /// real simulations vs cache hits — the paper's true cost axis.
  long cumulative_simulations = 0;
  long cumulative_cache_hits = 0;
  /// Generalization probe: greedy goal-met rate on the frozen holdout
  /// suite (TrainOptions::holdout), refreshed every holdout_interval
  /// iterations and on the final one. Compare against goal_rate (the
  /// train-sampler rate) to watch the generalization gap. Meaningful only
  /// when holdout_evaluated is true; -1 otherwise.
  double holdout_goal_rate = -1.0;
  bool holdout_evaluated = false;
};

struct TrainHistory {
  std::vector<IterationStats> iterations;
  bool converged = false;
  long total_env_steps = 0;
  /// Backend activity over the whole training run (delta from train start).
  eval::EvalStats eval_stats;
  /// Last holdout probe of the run (-1 when no holdout suite was given).
  double final_holdout_goal_rate = -1.0;
};

/// Spec-scenario training protocol: where episode targets come from and
/// which frozen suite measures generalization along the way.
struct TrainOptions {
  /// Per-episode target source (required). Drawn through each lane's own
  /// RNG stream; with several workers the sampler must be safe for
  /// concurrent sampling (spec::TargetSampler::concurrent_sampling_safe) —
  /// stateful generators like StratifiedSampler are suite generators, not
  /// training samplers, and are rejected up front. Episode outcomes are
  /// buffered per lane during collection and replayed to
  /// sampler->record_outcome in global lane order after workers join, so
  /// curriculum state updates are deterministic and worker-split-invariant
  /// (the sampling distribution is frozen within an iteration).
  std::shared_ptr<spec::TargetSampler> sampler;
  /// Frozen holdout suite the agent never trains on. When non-empty, every
  /// holdout_interval-th iteration (and the last) rolls every holdout
  /// target out greedily and reports the goal-met rate in
  /// IterationStats::holdout_goal_rate. The targets split into
  /// PpoConfig::num_workers contiguous groups that roll out on the
  /// trainer's thread team; the rate does not depend on the split.
  spec::SpecSuite holdout;
  int holdout_interval = 5;
  /// Lockstep lanes of each holdout probe group (cost control only;
  /// results are lane-count-invariant).
  int holdout_lanes = 8;
};

class PpoAgent {
 public:
  PpoAgent(int obs_size, int num_params, PpoConfig config);

  /// Sample an action (one {0,1,2} per parameter); optionally returns the
  /// summed log-probability. Thread-safe.
  std::vector<int> act_sample(const std::vector<double>& obs, util::Rng& rng,
                              double* logp_out = nullptr) const;

  /// Deterministic per-head argmax action. Thread-safe.
  std::vector<int> act_greedy(const std::vector<double>& obs) const;

  double value(const std::vector<double>& obs) const;

  // ---- batched inference (one GEMM per layer over all rows) --------------
  // `obs_rows` holds `rows` observations stacked row-major. Row r of the
  // result equals the corresponding single-row call bitwise; sampling draws
  // from rngs[r], preserving per-lane stream discipline. Thread-safe.

  /// Returns rows x num_params actions row-major; optional per-row summed
  /// log-probabilities in `logps`.
  std::vector<int> act_sample_batch(const std::vector<double>& obs_rows,
                                    int rows,
                                    const std::vector<util::Rng*>& rngs,
                                    std::vector<double>* logps = nullptr) const;

  /// Returns rows x num_params greedy actions row-major.
  std::vector<int> act_greedy_batch(const std::vector<double>& obs_rows,
                                    int rows) const;

  /// Returns one value estimate per row.
  std::vector<double> value_batch(const std::vector<double>& obs_rows,
                                  int rows) const;

  /// Train against environments produced by `env_factory`, drawing each
  /// episode's target from options.sampler and (optionally) probing the
  /// frozen holdout suite at checkpoint intervals. `on_iteration`, if set,
  /// observes progress (used for live logging and the reward-curve
  /// benches).
  TrainHistory train(
      const std::function<env::SizingEnv()>& env_factory,
      const TrainOptions& options,
      const std::function<void(const IterationStats&)>& on_iteration = {});

  /// Compatibility form — the paper's protocol: each episode uses a target
  /// drawn uniformly from `train_targets` (the paper's 50 sampled target
  /// specifications), no holdout probe. Identical to passing a
  /// spec::SuiteSampler over the same targets (bitwise, for a fixed seed).
  TrainHistory train(
      const std::function<env::SizingEnv()>& env_factory,
      const std::vector<circuits::SpecVector>& train_targets,
      const std::function<void(const IterationStats&)>& on_iteration = {});

  /// Greedy goal-met rate of the current policy over an explicit target
  /// set, rolled out through `holdout_lanes` lockstep lanes. Deterministic
  /// (greedy policy, fixed targets) and lane-count-invariant. Used for the
  /// holdout probe; public so tools can score checkpoints on any suite.
  double evaluate_goal_rate(
      const std::function<env::SizingEnv()>& env_factory,
      const std::vector<circuits::SpecVector>& targets,
      int holdout_lanes = 8) const;

  int obs_size() const { return obs_size_; }
  int num_params() const { return num_params_; }
  const PpoConfig& config() const { return config_; }

  void save(std::ostream& out) const;
  static PpoAgent load(std::istream& in);

 private:
  PpoConfig config_;
  int obs_size_ = 0;
  int num_params_ = 0;
  nn::Mlp policy_;
  nn::Mlp value_;
};

}  // namespace autockt::rl
