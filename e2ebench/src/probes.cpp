// Per-layer probes for the traced run. Each one times a public function of
// a single layer on fixed inputs drawn from the run's seed, repeats it, and
// reports the median. None of them depends on the workload, so their
// numbers line up across every traced run.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "circuits/problems.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "env/sizing_env.hpp"
#include "env/vector_env.hpp"
#include "eval/cached_backend.hpp"
#include "eval/disk_log_store.hpp"
#include "eval/function_backend.hpp"
#include "eval/process_pool_backend.hpp"
#include "nn/mlp.hpp"
#include "proc_tree.hpp"
#include "spice/mosfet.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace autockt;
namespace fs = std::filesystem;

/// Median wall time of `reps` calls of `fn`, divided by `per`.
template <typename Fn>
double time_median(int reps, double per, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0) / per);
  }
  return median(samples);
}

std::vector<eval::ParamVector> random_points(const circuits::SizingProblem& p,
                                             std::size_t n, util::Rng& rng) {
  std::vector<eval::ParamVector> out(n);
  for (auto& point : out) {
    for (const circuits::ParamDef& d : p.params) {
      point.push_back(static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(d.grid_size()))));
    }
  }
  return out;
}

void probe_nn(util::Rng& rng, Report* out) {
  // The PPO policy network of two_stage_opamp: obs -> 3x50 tanh -> 3 logits
  // per parameter.
  const auto problem = std::make_shared<const circuits::SizingProblem>(
      circuits::make_two_stage_problem());
  const env::SizingEnv probe(problem, env::EnvConfig{});
  const int in = probe.obs_size();
  const int outs = probe.num_params() * env::SizingEnv::kActionsPerParam;
  nn::Mlp policy({in, 50, 50, 50, outs}, nn::Activation::Tanh, rng.next(),
                 0.01);
  nn::Adam adam(policy.param_count());
  constexpr int kRows = 256;
  std::vector<std::vector<double>> rows(kRows, std::vector<double>(in));
  std::vector<double> d_out(static_cast<std::size_t>(outs));
  for (auto& row : rows) {
    for (double& x : row) x = rng.uniform(-1.0, 1.0);
  }
  for (double& g : d_out) g = rng.uniform(-1e-3, 1e-3);
  const double update_s = time_median(15, 1.0, [&] {
    policy.zero_grad();
    for (const auto& row : rows) {
      const nn::Mlp::Trace trace = policy.forward_trace(row);
      policy.backward(trace, d_out);
    }
    adam.step(policy.params(), policy.grads());
  });
  out->add("nn.update_minibatch_ms", 1e3 * update_s, "ms");

  std::vector<double> batch;
  for (int r = 0; r < 16; ++r) {
    batch.insert(batch.end(), rows[r].begin(), rows[r].end());
  }
  volatile double sink = 0.0;  // keeps the forwards observable
  const double forward_s = time_median(25, 20.0, [&] {
    for (int i = 0; i < 20; ++i) sink = policy.forward_batch(batch, 16)[0];
  });
  out->add("nn.forward16_us", 1e6 * forward_s, "us");
}

void probe_circuits(util::Rng& rng, Report* out) {
  constexpr std::size_t kDesigns = 16;
  const spice::TechCard card = spice::TechCard::ptm45();
  const circuits::SizingProblem tia = circuits::make_tia_problem();
  const circuits::SizingProblem opamp = circuits::make_two_stage_problem();
  std::vector<circuits::TiaParams> tia_designs;
  for (const auto& p : random_points(tia, kDesigns, rng)) {
    tia_designs.push_back(circuits::tia_params_from_grid(tia.params, p));
  }
  std::vector<circuits::TwoStageParams> opamp_designs;
  for (const auto& p : random_points(opamp, kDesigns, rng)) {
    opamp_designs.push_back(
        circuits::two_stage_params_from_grid(opamp.params, p));
  }
  // Warm the per-thread workspaces (symbolic factorizations) first.
  (void)circuits::simulate_tia_batch(tia_designs, card);
  (void)circuits::simulate_two_stage_batch(opamp_designs, card);
  const double per_us = static_cast<double>(kDesigns) * 1e-6;
  const double tia_scalar = time_median(5, per_us, [&] {
    for (const auto& d : tia_designs) (void)circuits::simulate_tia(d, card);
  });
  const double tia_batch = time_median(5, per_us, [&] {
    (void)circuits::simulate_tia_batch(tia_designs, card);
  });
  const double opamp_batch = time_median(9, per_us, [&] {
    (void)circuits::simulate_two_stage_batch(opamp_designs, card);
  });
  out->add("circuits.tia_us_per_design", tia_scalar, "us");
  out->add("circuits.tia_batch16_us_per_design", tia_batch, "us");
  out->add("circuits.two_stage_batch16_us_per_design", opamp_batch, "us");
}

void probe_pex(util::Rng& rng, Report* out) {
  circuits::ProblemOptions options;
  options.cache = false;
  const circuits::SizingProblem pex = circuits::make_ngm_pex_problem(options);
  const auto points = random_points(pex, 16, rng);
  (void)pex.evaluate(points.front());
  const double per_point = time_median(5, 16e-6, [&] {
    for (const auto& p : points) (void)pex.evaluate(p);
  });
  out->add("pex.eval_us_per_point", per_point, "us");
}

void probe_worker_roundtrip(util::Rng& rng, Report* out) {
  eval::ProcessPoolBackend::Options options;
  options.workers = 2;
  auto pool = std::make_unique<eval::ProcessPoolBackend>(
      [] {
        return std::make_shared<eval::FunctionBackend>(
            [](const eval::ParamVector& p) {
              return eval::EvalResult(
                  eval::SpecVector{static_cast<double>(p[0])});
            });
      },
      options);
  std::vector<eval::ParamVector> points(16);
  for (auto& p : points) {
    p = {static_cast<int>(rng.bounded(1000)), 1, 2, 3, 4, 5, 6};
  }
  (void)pool->evaluate_batch(points);
  const double roundtrip = time_median(
      200, 1e-6, [&] { (void)pool->evaluate_batch(points); });
  out->add("eval.worker_roundtrip_us", roundtrip, "us");
  const std::vector<ProcSample> workers = live_descendants();
  pool.reset();
  wait_for_exit(workers);
}

void probe_disk(util::Rng& rng, const std::string& workdir, Report* out) {
  // A synthetic cache shaped like ngm_ota_pex's: 7 grid indices -> 3 specs.
  constexpr std::size_t kEntries = 16384;
  constexpr std::uint64_t kFingerprint = 0xe2eb;
  const ScratchDir scratch(fs::path(workdir) /
                           ("probe-disk-" + std::to_string(getpid())));
  const std::string dir = (scratch.path() / "cache").string();
  std::vector<eval::ParamVector> keys(kEntries);
  {
    eval::DiskLogStore::Options write_options;
    write_options.fsync_every = kEntries;
    auto store = eval::DiskLogStore::open(dir, kFingerprint, write_options);
    if (!store.ok()) throw std::runtime_error(store.error().message);
    for (std::size_t i = 0; i < kEntries; ++i) {
      keys[i] = {static_cast<int>(i), static_cast<int>(i % 7), 3, 4, 5, 6, 7};
      (*store)->insert(keys[i], eval::SpecVector{rng.uniform(), rng.uniform(),
                                                 rng.uniform()});
    }
  }
  std::shared_ptr<eval::DiskLogStore> warm;
  const double open_s = time_median(3, 1.0, [&] {
    warm.reset();
    auto store = eval::DiskLogStore::open(dir, kFingerprint);
    if (!store.ok()) throw std::runtime_error(store.error().message);
    warm = *store;
  });
  out->add("eval.disk_open_s", open_s, "s");

  eval::CachedBackend cached(
      std::make_shared<eval::FunctionBackend>([](const eval::ParamVector&) {
        return eval::EvalResult(eval::SpecVector{0.0, 0.0, 0.0});
      }),
      warm);
  std::vector<eval::ParamVector> batch;
  for (int i = 0; i < 16; ++i) batch.push_back(keys[rng.bounded(kEntries)]);
  const double per_hit = time_median(
      400, 16e-9, [&] { (void)cached.evaluate_batch(batch); });
  out->add("eval.cache_hit_ns", per_hit, "ns");
}

void probe_env(util::Rng& rng, Report* out) {
  // Env bookkeeping alone: 16 lockstep lanes over a constant evaluator.
  circuits::SizingProblem constant = circuits::make_two_stage_problem();
  const circuits::SpecVector specs(constant.specs.size(), 1.0);
  constant.set_evaluator(
      [specs](const eval::ParamVector&) { return eval::EvalResult(specs); });
  auto problem =
      std::make_shared<const circuits::SizingProblem>(std::move(constant));
  constexpr int kLanes = 16;
  env::VectorSizingEnv venv(problem, env::EnvConfig{}, kLanes);
  util::Rng target_rng(rng.next());
  const auto targets = env::sample_targets(*problem, kLanes, target_rng);
  for (int i = 0; i < kLanes; ++i) {
    venv.seed_lane(i, rng.next());
    venv.set_target(i, targets[static_cast<std::size_t>(i)]);
  }
  (void)venv.reset_all();
  std::vector<std::vector<int>> actions(
      kLanes, std::vector<int>(static_cast<std::size_t>(venv.num_params())));
  const double tick = time_median(400, 1e-6, [&] {
    for (auto& a : actions) {
      for (int& x : a) x = static_cast<int>(rng.bounded(3));
    }
    (void)venv.step_all(actions);
  });
  out->add("env.tick_us", tick, "us");
}

}  // namespace

void run_probes(std::uint64_t seed, const std::string& workdir, Report* out) {
  util::Rng rng(util::stream_seed(seed, 0xe2e));
  probe_nn(rng, out);
  probe_circuits(rng, out);
  probe_pex(rng, out);
  probe_worker_roundtrip(rng, out);
  probe_disk(rng, workdir, out);
  probe_env(rng, out);
}

}  // namespace e2e
