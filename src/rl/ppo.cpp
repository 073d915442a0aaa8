#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <istream>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/categorical.hpp"
#include "rl/update.hpp"
#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::rl {

namespace {

constexpr int kActions = env::SizingEnv::kActionsPerParam;

/// Rows per work item of the value pass.
constexpr int kValueItemRows = 16;

using detail::ThreadTeam;
using detail::Transition;

struct Episode {
  std::vector<Transition> steps;
  bool terminal_goal = false;     // ended by reaching the target
  std::vector<double> final_obs;  // last observation when truncated
  double bootstrap_value = 0.0;   // V(final_obs) when truncated
  double total_reward = 0.0;
};

/// Runs job(item) for every item in [0, items) on `team`. An item's
/// exception is caught into that item's slot, so the team's job stays
/// noexcept; once every item is done, the lowest-indexed one is rethrown.
template <class Job>
void run_fallible(ThreadTeam& team, int items, const Job& job) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(items));
  team.run(items, [&](int item, int) noexcept {
    try {
      job(item);
    } catch (...) {
      errors[static_cast<std::size_t>(item)] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// One row of the value pass: an observation and where its value goes.
struct ValueRow {
  const double* obs;
  double* value;
};

/// Writes net(row.obs) into every row's slot, in items of kValueItemRows
/// rows on `team`; thread t runs its items through traces[t]. Row r equals
/// net.forward() of its observation bitwise, whatever the split.
void value_pass(const nn::Mlp& net, const std::vector<ValueRow>& rows,
                std::vector<nn::Mlp::BatchTrace>& traces, ThreadTeam& team) {
  const std::size_t width = static_cast<std::size_t>(net.input_size());
  const std::size_t per_item = kValueItemRows;
  const std::size_t per_run = per_item * ThreadTeam::kMaxItems;
  for (std::size_t first = 0; first < rows.size(); first += per_run) {
    const std::size_t count = std::min(per_run, rows.size() - first);
    const int items = static_cast<int>((count + per_item - 1) / per_item);
    team.run(items, [&](int item, int t) noexcept {
      nn::Mlp::BatchTrace& trace = traces[static_cast<std::size_t>(t)];
      const std::size_t begin =
          first + static_cast<std::size_t>(item) * per_item;
      const std::size_t end = std::min(begin + per_item, rows.size());
      trace.rows = static_cast<int>(end - begin);
      double* in = trace.input();
      for (std::size_t r = begin; r < end; ++r) {
        in = std::copy(rows[r].obs, rows[r].obs + width, in);
      }
      net.forward_rows(trace, 0, trace.rows);
      for (std::size_t r = begin; r < end; ++r) {
        *rows[r].value = trace.output()[r - begin];
      }
    });
  }
}

/// Rolls the nonempty target range [first, last) out greedily through up
/// to `lanes` lockstep lanes and returns how many reached their target.
/// Greedy actions and fixed targets make the count independent of the lane
/// count.
int count_reached(const PpoAgent& agent,
                  const std::function<env::SizingEnv()>& env_factory,
                  const std::vector<circuits::SpecVector>& targets,
                  std::size_t first, std::size_t last, int lanes) {
  env::SizingEnv probe = env_factory();
  // Cold-start every evaluation: holdout probes interleave with training
  // collection on the shared backend cache, and pinning warm-start off
  // keeps every memoized result identical to the cold path (the same
  // contract multi-worker collection relies on).
  env::EnvConfig holdout_config = probe.config();
  holdout_config.warm_start = false;
  const int L = static_cast<int>(std::min(
      static_cast<std::size_t>(std::max(lanes, 1)), last - first));
  env::VectorSizingEnv venv(probe.problem_ptr(), holdout_config, L);
  const int num_params = agent.num_params();

  std::vector<std::vector<double>> obs(static_cast<std::size_t>(L));
  std::size_t next = first;
  auto assign = [&](int i) {
    if (next >= last) return false;
    venv.set_target(i, targets[next++]);
    return true;
  };
  std::vector<int> to_reset;
  for (int i = 0; i < L; ++i) {
    if (assign(i)) to_reset.push_back(i);
  }
  {
    auto fresh = venv.reset_lanes(to_reset);
    for (std::size_t k = 0; k < to_reset.size(); ++k) {
      obs[static_cast<std::size_t>(to_reset[k])] = std::move(fresh[k]);
    }
  }

  int reached = 0;
  std::vector<std::vector<int>> actions(static_cast<std::size_t>(L));
  std::vector<int> act_lanes;
  std::vector<double> rows;
  while (venv.running_count() > 0) {
    act_lanes.clear();
    rows.clear();
    for (int i = 0; i < L; ++i) {
      if (!venv.lane_running(i)) continue;
      act_lanes.push_back(i);
      const auto& o = obs[static_cast<std::size_t>(i)];
      rows.insert(rows.end(), o.begin(), o.end());
    }
    const int n = static_cast<int>(act_lanes.size());
    const std::vector<int> acts = agent.act_greedy_batch(rows, n);
    for (int k = 0; k < n; ++k) {
      actions[static_cast<std::size_t>(act_lanes[k])].assign(
          acts.begin() + static_cast<std::size_t>(k) * num_params,
          acts.begin() + static_cast<std::size_t>(k + 1) * num_params);
    }
    const auto results = venv.step_all(actions, [](int) { return false; });
    to_reset.clear();
    for (int i = 0; i < L; ++i) {
      const auto& ls = results[static_cast<std::size_t>(i)];
      if (!ls.stepped) continue;
      if (!ls.done) {
        obs[static_cast<std::size_t>(i)] = ls.obs;
        continue;
      }
      reached += ls.goal_met ? 1 : 0;
      if (assign(i)) to_reset.push_back(i);
    }
    if (!to_reset.empty()) {
      auto fresh = venv.reset_lanes(to_reset);
      for (std::size_t k = 0; k < to_reset.size(); ++k) {
        obs[static_cast<std::size_t>(to_reset[k])] = std::move(fresh[k]);
      }
    }
  }
  return reached;
}

}  // namespace

void PpoConfig::validate() const {
  if (num_workers <= 0) {
    throw std::invalid_argument(
        "PpoConfig: num_workers must be >= 1 (got " +
        std::to_string(num_workers) + ")");
  }
  if (envs_per_worker <= 0) {
    throw std::invalid_argument(
        "PpoConfig: envs_per_worker must be >= 1 (got " +
        std::to_string(envs_per_worker) + ")");
  }
  // Each lane group is one item of a thread-team run.
  if (num_workers > ThreadTeam::kMaxItems) {
    throw std::invalid_argument(
        "PpoConfig: num_workers must be <= " +
        std::to_string(ThreadTeam::kMaxItems) + " (got " +
        std::to_string(num_workers) + ")");
  }
  if (envs_per_worker > std::numeric_limits<int>::max() / num_workers) {
    throw std::invalid_argument(
        "PpoConfig: num_workers * envs_per_worker must fit in an int (got " +
        std::to_string(num_workers) + " * " +
        std::to_string(envs_per_worker) + ")");
  }
  if (steps_per_iteration <= 0) {
    throw std::invalid_argument(
        "PpoConfig: steps_per_iteration must be >= 1 (got " +
        std::to_string(steps_per_iteration) + ")");
  }
  if (minibatch <= 0) {
    throw std::invalid_argument("PpoConfig: minibatch must be >= 1 (got " +
                                std::to_string(minibatch) + ")");
  }
  if (epochs <= 0) {
    throw std::invalid_argument("PpoConfig: epochs must be >= 1 (got " +
                                std::to_string(epochs) + ")");
  }
  if (hidden < 1) {
    throw std::invalid_argument("PpoConfig: hidden must be >= 1 (got " +
                                std::to_string(hidden) + ")");
  }
  if (hidden_layers < 0) {
    throw std::invalid_argument(
        "PpoConfig: hidden_layers must be >= 0 (got " +
        std::to_string(hidden_layers) + ")");
  }
  // Written as !(x > 0) so that NaN fails too. A nonpositive clip norm
  // would turn every step into ascent or freeze both nets.
  const std::pair<const char*, double> positive[] = {
      {"max_grad_norm", max_grad_norm},
      {"lr_policy", lr_policy},
      {"lr_value", lr_value}};
  for (const auto& [name, v] : positive) {
    if (!(v > 0.0)) {
      throw std::invalid_argument(std::string("PpoConfig: ") + name +
                                  " must be > 0 (got " + std::to_string(v) +
                                  ")");
    }
  }
  const std::pair<const char*, double> unit[] = {{"gamma", gamma},
                                                 {"gae_lambda", gae_lambda}};
  for (const auto& [name, v] : unit) {
    if (!(v >= 0.0 && v <= 1.0)) {
      throw std::invalid_argument(std::string("PpoConfig: ") + name +
                                  " must lie in [0, 1] (got " +
                                  std::to_string(v) + ")");
    }
  }
}

PpoAgent::PpoAgent(int obs_size, int num_params, PpoConfig config)
    : config_(config),
      obs_size_(obs_size),
      num_params_(num_params),
      policy_([&] {
        std::vector<int> sizes{obs_size};
        for (int i = 0; i < config.hidden_layers; ++i)
          sizes.push_back(config.hidden);
        sizes.push_back(num_params * kActions);
        return nn::Mlp(sizes, nn::Activation::Tanh, config.seed * 7919 + 1,
                       /*final_scale=*/0.01);
      }()),
      value_([&] {
        std::vector<int> sizes{obs_size};
        for (int i = 0; i < config.hidden_layers; ++i)
          sizes.push_back(config.hidden);
        sizes.push_back(1);
        return nn::Mlp(sizes, nn::Activation::Tanh, config.seed * 104729 + 2,
                       /*final_scale=*/1.0);
      }()) {}

std::vector<int> PpoAgent::act_sample(const std::vector<double>& obs,
                                      util::Rng& rng, double* logp_out) const {
  const std::vector<double> logits = policy_.forward(obs);
  std::vector<int> action(static_cast<std::size_t>(num_params_), 1);
  double logp = 0.0;
  for (int h = 0; h < num_params_; ++h) {
    const auto probs = nn::softmax_slice(
        logits, static_cast<std::size_t>(h) * kActions, kActions);
    const int a = nn::sample_categorical(probs, rng);
    action[static_cast<std::size_t>(h)] = a;
    logp += std::log(std::max(probs[static_cast<std::size_t>(a)], 1e-12));
  }
  if (logp_out != nullptr) *logp_out = logp;
  return action;
}

std::vector<int> PpoAgent::act_greedy(const std::vector<double>& obs) const {
  const std::vector<double> logits = policy_.forward(obs);
  std::vector<int> action(static_cast<std::size_t>(num_params_), 1);
  for (int h = 0; h < num_params_; ++h) {
    const auto probs = nn::softmax_slice(
        logits, static_cast<std::size_t>(h) * kActions, kActions);
    action[static_cast<std::size_t>(h)] = nn::argmax(probs);
  }
  return action;
}

double PpoAgent::value(const std::vector<double>& obs) const {
  return value_.forward(obs)[0];
}

std::vector<int> PpoAgent::act_sample_batch(
    const std::vector<double>& obs_rows, int rows,
    const std::vector<util::Rng*>& rngs, std::vector<double>* logps) const {
  if (rngs.size() != static_cast<std::size_t>(rows)) {
    throw std::invalid_argument("act_sample_batch: one RNG stream per row");
  }
  const std::vector<double> logits = policy_.forward_batch(obs_rows, rows);
  return nn::sample_heads_batch(logits, rows, num_params_, kActions, rngs,
                                logps);
}

std::vector<int> PpoAgent::act_greedy_batch(const std::vector<double>& obs_rows,
                                            int rows) const {
  const std::vector<double> logits = policy_.forward_batch(obs_rows, rows);
  return nn::argmax_heads_batch(logits, rows, num_params_, kActions);
}

std::vector<double> PpoAgent::value_batch(const std::vector<double>& obs_rows,
                                          int rows) const {
  return value_.forward_batch(obs_rows, rows);
}

TrainHistory PpoAgent::train(
    const std::function<env::SizingEnv()>& env_factory,
    const std::vector<circuits::SpecVector>& train_targets,
    const std::function<void(const IterationStats&)>& on_iteration) {
  if (train_targets.empty()) {
    throw std::invalid_argument("PpoAgent::train: no training targets");
  }
  TrainOptions options;
  options.sampler = std::make_shared<spec::SuiteSampler>(train_targets);
  return train(env_factory, options, on_iteration);
}

double PpoAgent::evaluate_goal_rate(
    const std::function<env::SizingEnv()>& env_factory,
    const std::vector<circuits::SpecVector>& targets,
    int holdout_lanes) const {
  if (targets.empty()) return -1.0;
  trace::TraceSpan span(trace::names::kRlHoldoutProbe);
  const int reached = count_reached(*this, env_factory, targets, 0,
                                    targets.size(), holdout_lanes);
  return static_cast<double>(reached) / static_cast<double>(targets.size());
}

TrainHistory PpoAgent::train(
    const std::function<env::SizingEnv()>& env_factory,
    const TrainOptions& options,
    const std::function<void(const IterationStats&)>& on_iteration) {
  if (!options.sampler) {
    throw std::invalid_argument("PpoAgent::train: no target sampler");
  }
  config_.validate();
  if (config_.num_workers > 1 &&
      !options.sampler->concurrent_sampling_safe()) {
    throw std::invalid_argument(
        "PpoAgent::train: sampler '" + options.sampler->name() +
        "' is a sequential generator (stateful draws) and cannot feed " +
        std::to_string(config_.num_workers) +
        " collection workers; generate a SpecSuite with it and train on a "
        "SuiteSampler instead");
  }
  if (options.holdout_interval <= 0) {
    throw std::invalid_argument(
        "PpoAgent::train: holdout_interval must be >= 1");
  }
  TrainHistory history;
  util::Rng master_rng(config_.seed);
  nn::Adam opt_policy(policy_.param_count(), config_.lr_policy);
  nn::Adam opt_value(value_.param_count(), config_.lr_value);

  // All envs from the factory share one problem (and thus one evaluation
  // backend), so any instance can observe the global backend telemetry.
  env::SizingEnv stats_probe = env_factory();
  const eval::EvalStats eval_baseline = stats_probe.problem().eval_stats();

  const int workers = config_.num_workers;
  const int lanes_per_worker = config_.envs_per_worker;
  const int total_lanes = config_.total_lanes();
  const std::size_t obs_width = static_cast<std::size_t>(obs_size_);
  long cumulative_steps = 0;
  int patience_hits = 0;
  // The ceiling of steps / lanes, without the overflow of steps + lanes - 1.
  const int lane_quota = config_.steps_per_iteration / total_lanes +
                         (config_.steps_per_iteration % total_lanes != 0);

  // Every phase of an iteration runs on this one team: each lane group
  // and each holdout probe group is one item, and the value pass and the
  // update split their rows into items. Update scratch is allocated here
  // once: the update itself allocates nothing. A lane halts at the first
  // episode end at or past its quota, so it collects at most
  // lane_quota - 1 + horizon steps.
  const std::size_t max_lane_steps = static_cast<std::size_t>(
      lane_quota - 1 + std::max(stats_probe.config().horizon, 1));
  std::vector<std::size_t> orders;
  orders.reserve(static_cast<std::size_t>(config_.epochs) *
                 static_cast<std::size_t>(total_lanes) * max_lane_steps);
  ThreadTeam team(detail::update_team_size());
  detail::PpoUpdate update(policy_, value_, config_, team);
  std::vector<nn::Mlp::BatchTrace> value_traces(
      static_cast<std::size_t>(team.size()),
      value_.batch_trace(kValueItemRows));
  std::vector<ValueRow> value_rows;

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    trace::TraceSpan iteration_span(trace::names::kRlIteration);
    // ---- 1. Vectorized rollout collection -------------------------------
    // Each lane group drives one VectorSizingEnv of lanes_per_worker
    // lockstep lanes: every tick is one batched policy forward plus one
    // evaluate_batch() on the shared backend. Lane seeds are drawn in
    // global lane order, and each lane collects a fixed per-lane step
    // quota, so the episode set depends only on (seed, total_lanes) — not
    // on the group split or on which thread runs a group.
    std::vector<std::vector<Episode>> lane_episodes(
        static_cast<std::size_t>(total_lanes));
    // Episode outcomes (target, goal_met) buffered per global lane. They
    // replay into the sampler after the join, in lane order, so curriculum
    // state updates deterministically and independently of the group
    // split; the sampling distribution itself stays frozen while groups
    // draw from it.
    std::vector<std::vector<std::pair<circuits::SpecVector, bool>>>
        lane_outcomes(static_cast<std::size_t>(total_lanes));
    std::vector<std::uint64_t> lane_seeds;
    lane_seeds.reserve(static_cast<std::size_t>(total_lanes));
    for (int l = 0; l < total_lanes; ++l)
      lane_seeds.push_back(master_rng.next());

    auto collect = [&](int w) {
      const int L = lanes_per_worker;
      const std::size_t base =
          static_cast<std::size_t>(w) * static_cast<std::size_t>(L);
      env::SizingEnv probe = env_factory();
      // Collection pins warm starting off: warm-started evaluations depend
      // on each lane's history, and with several groups racing one shared
      // memo cache, which lane's (low-bit different) result gets memoized
      // would depend on thread timing — breaking both run-to-run
      // reproducibility and the worker/lane-split invariance contract.
      // Deployment and serial env use warm-start freely (single-threaded
      // lockstep keeps it deterministic).
      env::EnvConfig worker_config = probe.config();
      worker_config.warm_start = false;
      env::VectorSizingEnv venv(probe.problem_ptr(), worker_config, L);
      for (int i = 0; i < L; ++i) {
        venv.seed_lane(i, lane_seeds[base + static_cast<std::size_t>(i)]);
      }
      // Outcome reporting stays off: this group buffers outcomes and the
      // trainer replays them in global lane order after the join.
      venv.set_target_sampler(options.sampler, /*report_outcomes=*/false);

      std::vector<int> lane_steps(static_cast<std::size_t>(L), 0);
      std::vector<Episode> current(static_cast<std::size_t>(L));
      std::vector<std::vector<double>> obs = venv.reset_all();
      // Each lane's live episode target (step_all auto-resets lanes and
      // resamples before we can ask, so remember it at episode start).
      std::vector<circuits::SpecVector> episode_target(
          static_cast<std::size_t>(L));
      for (int i = 0; i < L; ++i) {
        episode_target[static_cast<std::size_t>(i)] = venv.target(i);
      }

      // Scratch for the per-tick batches over the still-running lanes.
      std::vector<int> act_lanes;
      std::vector<double> rows;
      std::vector<util::Rng*> rngs;
      std::vector<double> logps;
      std::vector<std::vector<int>> actions(static_cast<std::size_t>(L));
      const auto continue_lane = [&](int i) {
        return lane_steps[static_cast<std::size_t>(i)] < lane_quota;
      };

      while (venv.running_count() > 0) {
        act_lanes.clear();
        rows.clear();
        rngs.clear();
        for (int i = 0; i < L; ++i) {
          if (!venv.lane_running(i)) continue;
          act_lanes.push_back(i);
          const auto& o = obs[static_cast<std::size_t>(i)];
          rows.insert(rows.end(), o.begin(), o.end());
          rngs.push_back(&venv.lane_rng(i));
        }
        const int n = static_cast<int>(act_lanes.size());
        const std::vector<int> acts =
            act_sample_batch(rows, n, rngs, &logps);

        for (int k = 0; k < n; ++k) {
          const std::size_t li = static_cast<std::size_t>(act_lanes[k]);
          actions[li].assign(
              acts.begin() + static_cast<std::size_t>(k) * num_params_,
              acts.begin() + static_cast<std::size_t>(k + 1) * num_params_);
          // Every running lane steps exactly once this tick; count it now
          // so the continue_lane predicate sees post-tick totals.
          ++lane_steps[li];
        }

        std::vector<env::VectorSizingEnv::LaneStep> results =
            venv.step_all(actions, continue_lane);

        for (int k = 0; k < n; ++k) {
          const std::size_t li = static_cast<std::size_t>(act_lanes[k]);
          env::VectorSizingEnv::LaneStep& ls = results[li];
          Transition tr;
          tr.obs.assign(rows.begin() + static_cast<std::size_t>(k) * obs_width,
                        rows.begin() +
                            static_cast<std::size_t>(k + 1) * obs_width);
          tr.action = actions[li];
          tr.logp = logps[static_cast<std::size_t>(k)];
          tr.reward = ls.reward;
          Episode& ep = current[li];
          ep.total_reward += ls.reward;
          ep.steps.push_back(std::move(tr));
          if (ls.done) {
            ep.terminal_goal = ls.goal_met;
            if (!ls.goal_met) ep.final_obs = std::move(ls.final_obs);
            lane_episodes[base + li].push_back(std::move(ep));
            ep = Episode{};
            lane_outcomes[base + li].emplace_back(episode_target[li],
                                                  ls.goal_met);
            // The auto-reset already drew the next episode's target.
            episode_target[li] = venv.target(act_lanes[k]);
          }
          obs[li] = std::move(ls.obs);
        }
      }
    };

    {
      // The caller's view of the collection phase; groups that run on
      // helpers record their env ticks in those threads' trace buffers.
      trace::TraceSpan collect_span(trace::names::kRlCollect);
      run_fallible(team, workers, collect);
    }

    // Replay buffered episode outcomes into the sampler in global lane
    // order — the curriculum's synchronous, deterministic update point.
    for (const auto& outcomes : lane_outcomes) {
      for (const auto& [target, goal_met] : outcomes) {
        options.sampler->record_outcome(target, goal_met);
      }
    }

    // ---- 2. Value estimates ---------------------------------------------
    // One batched pass of the value net over every collected observation
    // and every truncated episode's last one. The net does not change
    // during collection, so these are the values a per-tick pass would
    // have computed, bit for bit.
    value_rows.clear();
    for (auto& episodes : lane_episodes) {
      for (Episode& ep : episodes) {
        for (Transition& tr : ep.steps) {
          value_rows.push_back({tr.obs.data(), &tr.value});
        }
        if (!ep.terminal_goal) {
          value_rows.push_back({ep.final_obs.data(), &ep.bootstrap_value});
        }
      }
    }
    {
      trace::TraceSpan value_span(trace::names::kRlValuePass);
      value_pass(value_, value_rows, value_traces, team);
    }

    // ---- 3. GAE advantages and returns ----------------------------------
    std::vector<const Transition*> batch;
    std::vector<double> advantages;
    std::vector<double> returns;
    double reward_sum = 0.0;
    double goal_sum = 0.0;
    double len_sum = 0.0;
    std::size_t episode_count = 0;

    for (const auto& episodes : lane_episodes) {
      for (const Episode& ep : episodes) {
        ++episode_count;
        reward_sum += ep.total_reward;
        goal_sum += ep.terminal_goal ? 1.0 : 0.0;
        len_sum += static_cast<double>(ep.steps.size());

        double next_value = ep.terminal_goal ? 0.0 : ep.bootstrap_value;
        double gae = 0.0;
        std::vector<double> ep_adv(ep.steps.size(), 0.0);
        for (std::size_t t = ep.steps.size(); t-- > 0;) {
          const Transition& tr = ep.steps[t];
          const double delta =
              tr.reward + config_.gamma * next_value - tr.value;
          gae = delta + config_.gamma * config_.gae_lambda * gae;
          ep_adv[t] = gae;
          next_value = tr.value;
        }
        for (std::size_t t = 0; t < ep.steps.size(); ++t) {
          batch.push_back(&ep.steps[t]);
          advantages.push_back(ep_adv[t]);
          returns.push_back(ep_adv[t] + ep.steps[t].value);
        }
      }
    }
    cumulative_steps += static_cast<long>(batch.size());

    // Normalize advantages over the iteration batch.
    {
      double mean = 0.0;
      for (double a : advantages) mean += a;
      mean /= static_cast<double>(advantages.size());
      double var = 0.0;
      for (double a : advantages) var += (a - mean) * (a - mean);
      const double stddev =
          std::sqrt(var / static_cast<double>(advantages.size())) + 1e-8;
      for (double& a : advantages) a = (a - mean) / stddev;
    }

    // ---- 4. Clipped-surrogate updates -----------------------------------
    // Every epoch's shuffle is drawn here, in the master-stream order of a
    // per-epoch Fisher-Yates pass. The update then reads nothing else that
    // changes, and fixes the order of every sum, so its result does not
    // depend on the team size or on scheduling.
    const std::size_t n = batch.size();
    orders.resize(static_cast<std::size_t>(config_.epochs) * n);
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      std::size_t* order = orders.data() + static_cast<std::size_t>(epoch) * n;
      if (epoch == 0) {
        std::iota(order, order + n, std::size_t{0});
      } else {
        std::copy(order - n, order, order);
      }
      for (std::size_t i = n; i-- > 1;) {
        std::swap(order[i], order[master_rng.bounded(i + 1)]);
      }
    }
    const long loss_terms = static_cast<long>(config_.epochs) *
                            static_cast<long>(n);
    detail::UpdateLosses losses;
    {
      trace::TraceSpan update_span(trace::names::kRlUpdate);
      losses = update.run({batch, advantages, returns, orders}, opt_policy,
                          opt_value);
    }

    // ---- 5. Bookkeeping and early stop -----------------------------------
    IterationStats stats;
    stats.iteration = iter;
    stats.cumulative_env_steps = cumulative_steps;
    stats.mean_episode_reward =
        reward_sum / static_cast<double>(episode_count);
    stats.goal_rate = goal_sum / static_cast<double>(episode_count);
    stats.mean_episode_len = len_sum / static_cast<double>(episode_count);
    stats.policy_loss =
        losses.policy / static_cast<double>(std::max(loss_terms, 1L));
    stats.value_loss =
        losses.value / static_cast<double>(std::max(loss_terms, 1L));
    stats.entropy = losses.entropy /
                    static_cast<double>(std::max(loss_terms, 1L) * num_params_);
    // Early-stop decision BEFORE the holdout probe, so the final iteration
    // (stopped or not) always carries a fresh holdout measurement.
    bool stopping = false;
    if (stats.mean_episode_reward >= config_.target_mean_reward ||
        stats.goal_rate >= config_.target_goal_rate) {
      if (++patience_hits >= config_.stop_patience) {
        history.converged = true;
        stopping = true;
      }
    } else {
      patience_hits = 0;
    }
    const bool last_iteration = stopping || iter + 1 == config_.max_iterations;

    if (!options.holdout.empty() &&
        (iter % options.holdout_interval == 0 || last_iteration)) {
      // The targets split into contiguous groups, one team item each; the
      // reached count, and so the rate, does not depend on the split.
      trace::TraceSpan probe_span(trace::names::kRlHoldoutProbe);
      const std::vector<circuits::SpecVector>& targets =
          options.holdout.targets();
      const std::size_t size = targets.size();
      const std::size_t groups =
          std::min(static_cast<std::size_t>(workers), size);
      std::vector<int> reached(groups, 0);
      run_fallible(team, static_cast<int>(groups), [&](int item) {
        const std::size_t g = static_cast<std::size_t>(item);
        reached[g] =
            count_reached(*this, env_factory, targets, size * g / groups,
                          size * (g + 1) / groups, options.holdout_lanes);
      });
      stats.holdout_goal_rate =
          static_cast<double>(
              std::accumulate(reached.begin(), reached.end(), 0)) /
          static_cast<double>(size);
      stats.holdout_evaluated = true;
      history.final_holdout_goal_rate = stats.holdout_goal_rate;
    }

    // Backend telemetry after the probe, so the iteration's cumulative
    // counters include every simulation this iteration actually cost
    // (collection AND holdout rollouts).
    const eval::EvalStats eval_now =
        stats_probe.problem().eval_stats().since(eval_baseline);
    stats.cumulative_simulations = eval_now.simulations;
    stats.cumulative_cache_hits = eval_now.cache_hits;

    history.iterations.push_back(stats);
    if (on_iteration) on_iteration(stats);
    if (stopping) break;
  }
  history.total_env_steps = cumulative_steps;
  history.eval_stats = stats_probe.problem().eval_stats().since(eval_baseline);
  return history;
}

void PpoAgent::save(std::ostream& out) const {
  out << "ppo_agent " << obs_size_ << " " << num_params_ << "\n";
  policy_.save(out);
  value_.save(out);
}

PpoAgent PpoAgent::load(std::istream& in) {
  std::string magic;
  int obs_size = 0, num_params = 0;
  in >> magic >> obs_size >> num_params;
  if (!in || magic != "ppo_agent" || obs_size < 1 ||
      obs_size > nn::Mlp::kMaxLoadWidth || num_params < 1 ||
      num_params > nn::Mlp::kMaxLoadWidth / kActions) {
    throw std::runtime_error("PpoAgent::load: bad header");
  }
  PpoConfig config;
  PpoAgent agent(obs_size, num_params, config);
  agent.policy_ = nn::Mlp::load(in);
  agent.value_ = nn::Mlp::load(in);
  // A mismatched net would load and later read past its input.
  if (agent.policy_.input_size() != obs_size ||
      agent.policy_.output_size() != num_params * kActions) {
    throw std::runtime_error("PpoAgent::load: policy does not map obs_size " +
                             std::to_string(obs_size) + " to " +
                             std::to_string(num_params * kActions) +
                             " logits");
  }
  if (agent.value_.input_size() != obs_size ||
      agent.value_.output_size() != 1) {
    throw std::runtime_error(
        "PpoAgent::load: value net does not map obs_size " +
        std::to_string(obs_size) + " to 1");
  }
  return agent;
}

}  // namespace autockt::rl
