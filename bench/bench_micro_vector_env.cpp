// Micro-benchmarks for the vectorized rollout engine: environment steps per
// second for one serial SizingEnv versus a VectorSizingEnv at 1/4/16/64
// lockstep lanes, with and without the sharded memo cache (repeat visits
// are free; without it every fresh point runs as a lane of the simulation
// pipeline). Every vector tick is one batched policy forward
// (Mlp::forward_batch) plus one evaluate_batch(), which is exactly what PPO
// collection and deployment now pay per step.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "circuits/problems.hpp"
#include "env/vector_env.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"

using namespace autockt;

namespace {

enum class Stack { Cached, Uncached };

std::shared_ptr<const circuits::SizingProblem> tia(Stack stack) {
  circuits::ProblemOptions options;
  options.cache = stack == Stack::Cached;
  return std::make_shared<const circuits::SizingProblem>(
      circuits::make_tia_problem(options));
}

/// A target no TIA design can meet, so episodes always run to the horizon
/// and the measured steps are never cut short by goal termination.
circuits::SpecVector unreachable_target(const circuits::SizingProblem& prob) {
  circuits::SpecVector t;
  for (const auto& spec : prob.specs) {
    t.push_back(spec.sense == circuits::SpecSense::GreaterEq ? 1e18 : -1e18);
  }
  return t;
}

rl::PpoAgent make_agent(const env::SizingEnv& probe) {
  return rl::PpoAgent(probe.obs_size(), probe.num_params(), rl::PpoConfig{});
}

}  // namespace

// ---- serial baseline: one env, one policy forward, one evaluate() ----------

static void BM_SerialEnvSteps(benchmark::State& state, Stack stack) {
  auto prob = tia(stack);
  env::SizingEnv sizing_env(prob, env::EnvConfig{});
  sizing_env.set_target(unreachable_target(*prob));
  util::Rng rng(1);
  rl::PpoAgent agent = make_agent(sizing_env);
  std::vector<double> obs = sizing_env.reset();
  for (auto _ : state) {
    const auto action = agent.act_sample(obs, rng);
    auto sr = sizing_env.step(action);
    if (sr.done) {
      obs = sizing_env.reset();
    } else {
      obs = std::move(sr.obs);
    }
    benchmark::DoNotOptimize(obs.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SerialEnvSteps, cached, Stack::Cached);
BENCHMARK_CAPTURE(BM_SerialEnvSteps, uncached, Stack::Uncached);

// ---- vectorized: N lanes, batched forward, one evaluate_batch per tick -----

static void BM_VectorEnvSteps(benchmark::State& state, Stack stack) {
  const int lanes = static_cast<int>(state.range(0));
  auto prob = tia(stack);
  env::VectorSizingEnv venv(prob, env::EnvConfig{}, lanes);
  venv.seed_lanes(1);
  const auto target = unreachable_target(*prob);
  venv.set_target_sampler(
      [&target](int, util::Rng&) { return target; });
  rl::PpoAgent agent = make_agent(venv.lane(0));

  std::vector<std::vector<double>> obs = venv.reset_all();
  const std::size_t obs_width = static_cast<std::size_t>(venv.obs_size());
  const int num_params = venv.num_params();
  std::vector<double> rows(static_cast<std::size_t>(lanes) * obs_width);
  std::vector<util::Rng*> rngs;
  for (int i = 0; i < lanes; ++i) rngs.push_back(&venv.lane_rng(i));
  std::vector<std::vector<int>> actions(static_cast<std::size_t>(lanes));

  for (auto _ : state) {
    for (int i = 0; i < lanes; ++i) {
      std::copy(obs[static_cast<std::size_t>(i)].begin(),
                obs[static_cast<std::size_t>(i)].end(),
                rows.begin() + static_cast<std::size_t>(i) * obs_width);
    }
    const auto acts = agent.act_sample_batch(rows, lanes, rngs);
    for (int i = 0; i < lanes; ++i) {
      actions[static_cast<std::size_t>(i)].assign(
          acts.begin() + static_cast<std::size_t>(i * num_params),
          acts.begin() + static_cast<std::size_t>((i + 1) * num_params));
    }
    const auto results = venv.step_all(actions);  // auto-reset at horizon
    for (int i = 0; i < lanes; ++i) {
      obs[static_cast<std::size_t>(i)] =
          results[static_cast<std::size_t>(i)].obs;
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK_CAPTURE(BM_VectorEnvSteps, cached, Stack::Cached)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_VectorEnvSteps, uncached, Stack::Uncached)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);

// ---- isolated batched policy inference (the non-simulation half) -----------

static void BM_PolicyForwardBatch(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  rl::PpoConfig config;
  rl::PpoAgent agent(18, 7, config);
  util::Rng rng(3);
  std::vector<double> obs_rows(static_cast<std::size_t>(rows) * 18);
  for (double& v : obs_rows) v = rng.uniform(-1.0, 1.0);
  std::vector<util::Rng> streams(static_cast<std::size_t>(rows),
                                 util::Rng(5));
  std::vector<util::Rng*> rngs;
  for (auto& s : streams) rngs.push_back(&s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        agent.act_sample_batch(obs_rows, rows, rngs).data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PolicyForwardBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

BENCHMARK_MAIN();
