// VectorSizingEnv contract tests: N lockstep lanes over a FunctionBackend
// must be bitwise-identical to N independent serial envs with the same
// per-lane seeds — batching changes wall-clock, never values. Plus the
// batched-inference seams it relies on: Mlp::forward_batch vs a forward()
// loop, batched categorical heads vs per-row sampling, and the PpoAgent
// batched wrappers.

#include <gtest/gtest.h>

#include <memory>

#include "env/vector_env.hpp"
#include "nn/categorical.hpp"
#include "nn/mlp.hpp"
#include "rl/ppo.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using namespace autockt::env;
using circuits::SpecVector;

namespace {

std::shared_ptr<const circuits::SizingProblem> synth(int n = 3, int grid = 21) {
  return std::make_shared<const circuits::SizingProblem>(
      test_support::make_synthetic_problem(n, grid));
}

/// Random-but-deterministic action, independent of the lane RNG streams.
std::vector<int> random_action(int num_params, util::Rng& rng) {
  std::vector<int> a(static_cast<std::size_t>(num_params));
  for (int& v : a) v = static_cast<int>(rng.bounded(3));
  return a;
}

}  // namespace

// ---- construction and validation -------------------------------------------

TEST(VectorSizingEnv, RejectsBadConstruction) {
  EXPECT_THROW(VectorSizingEnv(nullptr, EnvConfig{}, 2),
               std::invalid_argument);
  EXPECT_THROW(VectorSizingEnv(synth(), EnvConfig{}, 0),
               std::invalid_argument);
  EXPECT_THROW(VectorSizingEnv(synth(), EnvConfig{}, -3),
               std::invalid_argument);
}

TEST(VectorSizingEnv, ShapesMatchLaneEnv) {
  VectorSizingEnv venv(synth(), EnvConfig{}, 4);
  EXPECT_EQ(venv.num_lanes(), 4);
  EXPECT_EQ(venv.obs_size(), 2 * 3 + 3);
  EXPECT_EQ(venv.num_params(), 3);
  EXPECT_THROW(venv.lane(4), std::out_of_range);
  EXPECT_THROW(venv.set_target(-1, {}), std::out_of_range);
}

// ---- lockstep vs serial bitwise equivalence ---------------------------------

TEST(VectorSizingEnv, LockstepMatchesSerialBitwise) {
  auto prob = synth();
  // Per-spec targets far enough out that episodes run to the horizon.
  const SpecVector hard_target{1e9, -1e9, -1e9};
  EnvConfig config;
  config.horizon = 12;

  for (int lanes : {1, 2, 4, 8}) {
    VectorSizingEnv venv(prob, config, lanes);
    std::vector<SizingEnv> serial;
    for (int i = 0; i < lanes; ++i) {
      venv.set_target(i, hard_target);
      serial.emplace_back(prob, config);
      serial.back().set_target(hard_target);
    }

    // Reset: one batched evaluation must equal each serial reset bitwise.
    const auto obs0 = venv.reset_all();
    for (int i = 0; i < lanes; ++i) {
      EXPECT_EQ(obs0[static_cast<std::size_t>(i)],
                serial[static_cast<std::size_t>(i)].reset())
          << "lanes=" << lanes << " lane=" << i;
    }

    // Step with per-lane scripted actions; compare every field bitwise.
    util::Rng action_rng(17);
    for (int tick = 0; tick < config.horizon; ++tick) {
      std::vector<std::vector<int>> actions(static_cast<std::size_t>(lanes));
      for (int i = 0; i < lanes; ++i) {
        actions[static_cast<std::size_t>(i)] =
            random_action(venv.num_params(), action_rng);
      }
      const auto batch =
          venv.step_all(actions, [](int) { return false; });
      for (int i = 0; i < lanes; ++i) {
        const auto& ls = batch[static_cast<std::size_t>(i)];
        ASSERT_TRUE(ls.stepped);
        const auto sr =
            serial[static_cast<std::size_t>(i)].step(
                actions[static_cast<std::size_t>(i)]);
        EXPECT_EQ(ls.obs, sr.obs) << "lanes=" << lanes << " lane=" << i;
        EXPECT_EQ(ls.reward, sr.reward);  // bitwise, not approximate
        EXPECT_EQ(ls.done, sr.done);
        EXPECT_EQ(ls.goal_met, sr.goal_met);
        EXPECT_EQ(venv.lane(i).params(),
                  serial[static_cast<std::size_t>(i)].params());
      }
      if (tick + 1 == config.horizon) {
        for (int i = 0; i < lanes; ++i) {
          EXPECT_TRUE(batch[static_cast<std::size_t>(i)].done);
        }
      }
    }
    // Every lane halted at the horizon (continue_lane vetoed the reset).
    EXPECT_EQ(venv.running_count(), 0);
  }
}

TEST(VectorSizingEnv, AutoResetMatchesSerialEnvWithSamplerLoop) {
  auto prob = synth();
  EnvConfig config;
  config.horizon = 5;
  const std::vector<SpecVector> pool{
      {1e9, -1e9, -1e9}, {9.6, 5.3, 1.45}, {10.8, 4.7, 1.3}};

  const int lanes = 4;
  VectorSizingEnv venv(prob, config, lanes);
  venv.seed_lanes(99);
  venv.set_target_sampler([&pool](int /*lane*/, util::Rng& rng) {
    return pool[rng.bounded(pool.size())];
  });
  auto obs = venv.reset_all();

  // Serial reference: per lane, an identically seeded RNG drives the same
  // target-sample / reset / step loop.
  struct SerialLane {
    SizingEnv env;
    util::Rng rng;
  };
  std::vector<SerialLane> serial;
  {
    VectorSizingEnv seed_probe(prob, config, lanes);
    seed_probe.seed_lanes(99);
    for (int i = 0; i < lanes; ++i) {
      serial.push_back({SizingEnv(prob, config), seed_probe.lane_rng(i)});
      auto& lane = serial.back();
      lane.env.set_target(pool[lane.rng.bounded(pool.size())]);
      EXPECT_EQ(obs[static_cast<std::size_t>(i)], lane.env.reset());
    }
  }

  util::Rng action_rng(5);
  for (int tick = 0; tick < 40; ++tick) {
    std::vector<std::vector<int>> actions(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; ++i) {
      actions[static_cast<std::size_t>(i)] =
          random_action(venv.num_params(), action_rng);
    }
    const auto batch = venv.step_all(actions);  // auto-reset on done
    for (int i = 0; i < lanes; ++i) {
      auto& lane = serial[static_cast<std::size_t>(i)];
      const auto sr = lane.env.step(actions[static_cast<std::size_t>(i)]);
      const auto& ls = batch[static_cast<std::size_t>(i)];
      EXPECT_EQ(ls.reward, sr.reward) << "tick=" << tick << " lane=" << i;
      EXPECT_EQ(ls.done, sr.done);
      if (sr.done) {
        // The ended episode's terminal observation is preserved...
        EXPECT_EQ(ls.final_obs, sr.obs);
        // ...and the lane came back already reset on a resampled target.
        lane.env.set_target(pool[lane.rng.bounded(pool.size())]);
        EXPECT_EQ(ls.obs, lane.env.reset());
        EXPECT_EQ(venv.lane(i).steps_taken(), 0);
      } else {
        EXPECT_TRUE(ls.final_obs.empty());
        EXPECT_EQ(ls.obs, sr.obs);
      }
      EXPECT_EQ(venv.lane(i).target(), lane.env.target());
    }
  }
  EXPECT_EQ(venv.running_count(), lanes);
}

TEST(VectorSizingEnv, LaneStreamsIndependentOfLaneCount) {
  VectorSizingEnv small(synth(), EnvConfig{}, 2);
  VectorSizingEnv large(synth(), EnvConfig{}, 8);
  small.seed_lanes(1234);
  large.seed_lanes(1234);
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < 16; ++k) {
      EXPECT_EQ(small.lane_rng(i).next(), large.lane_rng(i).next());
    }
  }
}

TEST(VectorSizingEnv, HaltedLanesAreSkipped) {
  auto prob = synth();
  EnvConfig config;
  config.horizon = 2;
  VectorSizingEnv venv(prob, config, 3);
  for (int i = 0; i < 3; ++i) venv.set_target(i, {1e9, -1e9, -1e9});
  venv.reset_all();
  EXPECT_EQ(venv.running_count(), 3);
  venv.halt_lane(1);
  EXPECT_EQ(venv.running_count(), 2);

  const std::vector<std::vector<int>> actions(3, {1, 1, 1});
  auto batch = venv.step_all(actions, [](int) { return false; });
  EXPECT_TRUE(batch[0].stepped);
  EXPECT_FALSE(batch[1].stepped);
  EXPECT_TRUE(batch[2].stepped);
  EXPECT_EQ(venv.lane(1).steps_taken(), 0);

  // Second tick hits the horizon on the stepped lanes; they halt too.
  batch = venv.step_all(actions, [](int) { return false; });
  EXPECT_TRUE(batch[0].done);
  EXPECT_EQ(venv.running_count(), 0);

  // A halted lane can be restarted explicitly.
  const auto fresh = venv.reset_lanes({1});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_TRUE(venv.lane_running(1));
  EXPECT_EQ(venv.running_count(), 1);
}

TEST(VectorSizingEnv, BatchesFlowThroughTheBackend) {
  auto prob = synth();
  const auto before = prob->eval_stats();
  VectorSizingEnv venv(prob, EnvConfig{}, 6);
  for (int i = 0; i < 6; ++i) venv.set_target(i, {1e9, -1e9, -1e9});
  venv.reset_all();
  const std::vector<std::vector<int>> actions(6, {2, 2, 2});
  venv.step_all(actions, [](int) { return false; });
  const auto stats = prob->eval_stats().since(before);
  EXPECT_EQ(stats.batch_calls, 2);  // one reset batch + one step batch
  EXPECT_EQ(stats.batch_points, 12);
  EXPECT_EQ(stats.max_batch, 6);
  EXPECT_EQ(stats.pending_batches, 0);  // quiescent between ticks
}

// ---- batched MLP inference --------------------------------------------------

TEST(ForwardBatch, MatchesSerialForwardLoop) {
  // Row counts on both sides of the kernel's 4-row blocks (1, 3 and 5
  // leave a short tail block; 16 has none; 17 has a single-row tail).
  for (const auto act : {nn::Activation::Tanh, nn::Activation::Relu}) {
    nn::Mlp mlp({7, 50, 50, 50, 21}, act, 11);
    for (const int rows : {1, 3, 5, 16, 17}) {
      util::Rng rng(3 + static_cast<std::uint64_t>(rows));
      std::vector<double> x(static_cast<std::size_t>(rows) * 7);
      for (double& v : x) v = rng.uniform(-1.0, 1.0);

      const auto batched = mlp.forward_batch(x, rows);
      ASSERT_EQ(batched.size(), static_cast<std::size_t>(rows) * 21);
      for (int r = 0; r < rows; ++r) {
        const std::vector<double> row(x.begin() + r * 7,
                                      x.begin() + (r + 1) * 7);
        const auto serial = mlp.forward(row);
        for (int o = 0; o < 21; ++o) {
          // Designed to be not just close but bitwise-identical (same
          // accumulation order), which is what keeps trajectories exact.
          EXPECT_EQ(batched[static_cast<std::size_t>(r * 21 + o)],
                    serial[static_cast<std::size_t>(o)])
              << "rows " << rows << " row " << r << " output " << o;
        }
      }
    }
  }
}

TEST(ForwardBatch, RejectsBadShapes) {
  nn::Mlp mlp({4, 8, 2}, nn::Activation::Tanh, 1);
  EXPECT_THROW(mlp.forward_batch(std::vector<double>(7, 0.0), 2),
               std::invalid_argument);
  EXPECT_THROW(mlp.forward_batch(std::vector<double>(8, 0.0), -2),
               std::invalid_argument);
  EXPECT_TRUE(mlp.forward_batch({}, 0).empty());
}

TEST(CategoricalBatch, SampleHeadsMatchesPerRowSampling) {
  const int rows = 5, heads = 4, k = 3;
  util::Rng logit_rng(7);
  std::vector<double> logits(static_cast<std::size_t>(rows * heads * k));
  for (double& v : logits) v = logit_rng.uniform(-2.0, 2.0);

  std::vector<util::Rng> batch_streams, serial_streams;
  for (int r = 0; r < rows; ++r) {
    batch_streams.emplace_back(100 + static_cast<std::uint64_t>(r));
    serial_streams.emplace_back(100 + static_cast<std::uint64_t>(r));
  }
  std::vector<util::Rng*> rng_ptrs;
  for (auto& s : batch_streams) rng_ptrs.push_back(&s);

  std::vector<double> logps;
  const auto actions =
      nn::sample_heads_batch(logits, rows, heads, k, rng_ptrs, &logps);

  for (int r = 0; r < rows; ++r) {
    double logp = 0.0;
    for (int h = 0; h < heads; ++h) {
      const auto probs = nn::softmax_slice(
          logits, static_cast<std::size_t>((r * heads + h) * k),
          static_cast<std::size_t>(k));
      const int a = nn::sample_categorical(
          probs, serial_streams[static_cast<std::size_t>(r)]);
      EXPECT_EQ(actions[static_cast<std::size_t>(r * heads + h)], a);
      logp += std::log(std::max(probs[static_cast<std::size_t>(a)], 1e-12));
      EXPECT_EQ(nn::argmax_heads_batch(logits, rows, heads,
                                       k)[static_cast<std::size_t>(
                    r * heads + h)],
                nn::argmax(probs));
    }
    EXPECT_EQ(logps[static_cast<std::size_t>(r)], logp);
  }
}

TEST(PpoAgentBatch, BatchedActionsMatchSerialCalls) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  const int rows = 6;
  util::Rng obs_rng(21);
  std::vector<double> obs_rows(static_cast<std::size_t>(rows) * 9);
  for (double& v : obs_rows) v = obs_rng.uniform(-1.0, 1.0);

  std::vector<util::Rng> batch_streams, serial_streams;
  for (int r = 0; r < rows; ++r) {
    batch_streams.emplace_back(7 + static_cast<std::uint64_t>(r));
    serial_streams.emplace_back(7 + static_cast<std::uint64_t>(r));
  }
  std::vector<util::Rng*> rng_ptrs;
  for (auto& s : batch_streams) rng_ptrs.push_back(&s);

  std::vector<double> logps;
  const auto actions = agent.act_sample_batch(obs_rows, rows, rng_ptrs, &logps);
  const auto greedy = agent.act_greedy_batch(obs_rows, rows);
  const auto values = agent.value_batch(obs_rows, rows);

  for (int r = 0; r < rows; ++r) {
    const std::vector<double> obs(obs_rows.begin() + r * 9,
                                  obs_rows.begin() + (r + 1) * 9);
    double logp = 0.0;
    const auto serial_action = agent.act_sample(
        obs, serial_streams[static_cast<std::size_t>(r)], &logp);
    for (int h = 0; h < 3; ++h) {
      EXPECT_EQ(actions[static_cast<std::size_t>(r * 3 + h)],
                serial_action[static_cast<std::size_t>(h)]);
      EXPECT_EQ(greedy[static_cast<std::size_t>(r * 3 + h)],
                agent.act_greedy(obs)[static_cast<std::size_t>(h)]);
    }
    EXPECT_EQ(logps[static_cast<std::size_t>(r)], logp);
    EXPECT_EQ(values[static_cast<std::size_t>(r)], agent.value(obs));
  }
}

TEST(PpoAgentBatch, RejectsMismatchedRngCount) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  util::Rng rng(1);
  std::vector<util::Rng*> rngs{&rng};
  EXPECT_THROW(
      agent.act_sample_batch(std::vector<double>(18, 0.0), 2, rngs),
      std::invalid_argument);
}
